"""eqlines benchmark: certify and search workloads through the CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

* ``certify-clique``: ``eqlines saturate --json`` on the 56-line closure
  best56 (default basis); the clique search dominates.
* ``certify-enum``: ``eqlines saturate --json`` on taylor90 over recipe
  05's basis J and on asche72 (default basis); enumeration dominates.
* ``search``: ``eqlines search asche72.json --rank 18 --runs 5000 --seed S
  --emit-best OUT --json``; span membership dominates.

The CLI runs from the checkout's ``src`` exactly as the installed
``eqlines`` console script runs it (``eqlines.cli:main``), one process
per call, each in its own process group.  Inputs are built with
``eqlines construct`` during set-up.  With ``--trace 0`` the run reports
end-to-end metrics of the CLI; with ``--trace 1`` each op is also run
by perfbench/traced.py, which calls the CLI's own ``main`` in-process
with spans around the library calls, and the run reports per-layer
metrics.  perfbench/README.md lists the metrics, the
correctness gate and the known gaps.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record
(stamp, per-op figures, spans) is written to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
OUT = BENCH / "out"

CLI_MAIN = "import sys; from eqlines.cli import main; sys.exit(main())"
SETUP_REPS = 5
PR_SET_CHILD_SUBREAPER = 36

# Recipe 05's basis J of taylor90 (1-based line indices).
TAYLOR_J = (6, 7, 13, 19, 21, 24, 27, 34, 43, 45, 48, 52, 57, 61, 66, 70,
            74, 80, 82, 89)

SEARCH_RANK = 18
SEARCH_RUNS = 5000


@dataclass(frozen=True)
class Saturate:
    """One ``eqlines saturate`` call and the counters it must reproduce."""

    name: str                 # input stem; perfbench/expected/<name>.json
    basis: Optional[tuple]    # 1-based basis passed at seed 0 (None: default)
    patterns: int
    candidates: int
    edges: int
    omega: int


@dataclass(frozen=True)
class Search:
    """The recipe-07 ``eqlines search`` call on asche72."""

    name: str = "search-asche72"  # perfbench/expected/<name>.json


@dataclass(frozen=True)
class Workload:
    build: tuple              # `eqlines construct` targets of the set-up
    calls: tuple              # Saturate and Search calls of one op
    cap_s: float              # wall-time cap of one op
    derive_best56: bool = False


WORKLOADS = {
    "certify-clique": Workload(
        build=("asche72",),
        calls=(Saturate("best56", None, 131072, 197, 12313, 38),),
        cap_s=20.0,
        derive_best56=True,
    ),
    "certify-enum": Workload(
        build=("taylor90", "asche72"),
        calls=(
            Saturate("taylor90", TAYLOR_J, 524288, 70, 2415, 70),
            Saturate("asche72", None, 262144, 112, 5994, 53),
        ),
        cap_s=15.0,
    ),
    "search": Workload(build=("asche72",), calls=(Search(),), cap_s=15.0),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "maxclique.clique_s": "s",
    "maxclique.omega": "count",
    "maxclique.optimal_ratio": "ratio",
    "saturation.enumerate_s": "s",
    "saturation.patterns": "count",
    "saturation.candidates": "count",
    "saturation.candidate_yield": "ratio",
    "saturation.graph_s": "s",
    "saturation.edges": "count",
    "saturation.graph_bytes_computed": "bytes",
    "saturation.select_basis_s": "s",
    "saturation.cover_s": "s",
    "lineset.load_s": "s",
    "cli.overhead_s": "s",
    "spansearch.search_s": "s",
    "spansearch.draws": "count",
    "spansearch.full_rank_draws": "count",
    "spansearch.full_rank_ratio": "ratio",
    "spansearch.best_closure": "count",
    "spansearch.best_hits": "count",
    "spansearch.complement_s": "s",
    "spansearch.extract_s": "s",
    "lineset.save_s": "s",
    "constructions.build_s": "s",
    "trace.coverage": "ratio",
}

class OpFailed(Exception):
    """An op exited non-zero, overran its cap or printed a wrong result."""


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------


@dataclass
class Child:
    status: Optional[int]     # exit code, or None on timeout
    wall: float
    cpu: float                # user + sys of the child and what it reaped
    rss_mb: float             # peak RSS of the child and what it reaped
    stdout: Path


def become_subreaper() -> None:
    """Make orphaned descendants (pool workers of a killed CLI process)
    children of this process, so that they can be waited for."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _end_group(pgid: int) -> None:
    """SIGKILL what is left of a process group and reap every descendant."""
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                raise RuntimeError(f"descendants of process group {pgid} did not exit")
            time.sleep(0.01)


def spawn(argv: list, out: Path, deadline: float) -> Child:
    """Run argv in a new session with stdout to `out`, stderr to
    `out`.err; kill its whole process group at `deadline`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    wronly = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), wronly, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, f"{out}.err", wronly, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, *argv], env,
        file_actions=actions, setsid=True,
    )
    reaped = False
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - start))
        if not ready:
            os.killpg(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reaped = True
    finally:
        os.close(pidfd)
        if not reaped:
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        _end_group(pid)
    return Child(
        status=os.waitstatus_to_exitcode(status) if ready else None,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out,
    )


def check_exit(child: Child, what: str) -> None:
    if child.status is None:
        raise OpFailed("timeout")
    if child.status != 0:
        err = Path(f"{child.stdout}.err").read_text(errors="replace").strip()
        raise OpFailed(f"{what} exited {child.status}: {err[-300:]}")


def cli(args: list, out: Path, deadline: float) -> Child:
    child = spawn(["-c", CLI_MAIN, *args], out, deadline)
    check_exit(child, f"eqlines {args[0]}")
    return child


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------


class SplitMix64:
    """The generator eqlines documents, used here to shuffle inputs."""

    def __init__(self, seed: int):
        self.state = seed & (2**64 - 1)

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & (2**64 - 1)
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        lim = 2**64 - 2**64 % bound
        while True:
            r = self.next64()
            if r < lim:
                return r % bound


def relabel(path: Path, rng: SplitMix64) -> list:
    """Rewrite a line-set file with its lines shuffled (Fisher-Yates);
    return new_index_of[old_index]."""
    doc = json.loads(path.read_text())
    n = doc["n"]
    perm = list(range(n))          # new line i is old line perm[i]
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    doc["signs"] = [[doc["signs"][a][b] for b in perm] for a in perm]
    if doc.get("coords") is not None:
        doc["coords"] = [doc["coords"][a] for a in perm]
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    inverse = [0] * n
    for new, old in enumerate(perm):
        inverse[old] = new
    return inverse


@dataclass
class Inputs:
    dir: Path
    basis: dict = field(default_factory=dict)   # name -> 1-based --basis or None
    n: dict = field(default_factory=dict)       # name -> line count
    graph: dict = field(default_factory=dict)   # name -> compatibility graph
    asche: object = None                        # asche72 LineSet (search check)


def setup(wl: Workload, seed: int, threads: int, where: Path) -> tuple[Inputs, float]:
    """Build the workload's inputs with the CLI; returns them and the
    set-up wall time.  Seed 0 keeps the recipe files; seed s > 0 relabels
    every certify input and maps its seed-0 basis through the relabelling,
    keeping the basis order, so candidates, graph and clique search are
    the ones of seed 0 (see README: a sorted basis would reorder the
    graph and move clique time several-fold between seeds)."""
    where.mkdir(parents=True)
    inputs = Inputs(where)
    deadline = time.perf_counter() + 120.0
    start = time.perf_counter()
    for target in wl.build:
        cli(["construct", target, "-o", str(where / f"{target}.json")],
            where / f"construct-{target}.out", deadline)
    if wl.derive_best56:
        cli(["search", str(where / "asche72.json"), "--rank", "18", "--runs",
             "12", "--seed", "0", "--emit-best", str(where / "best56.json"),
             "--threads", str(threads), "--json"], where / "derive-best56.out",
            deadline)
    rng = SplitMix64(seed)
    for call in wl.calls:
        if not isinstance(call, Saturate):
            continue
        path = where / f"{call.name}.json"
        basis0 = call.basis
        if seed != 0:
            if basis0 is None:
                basis0 = json.loads((EXPECTED / f"{call.name}.json").read_text())["basis"]
            new_index = relabel(path, rng)
            basis0 = tuple(new_index[i - 1] + 1 for i in basis0)
        inputs.basis[call.name] = basis0
    elapsed = time.perf_counter() - start
    for call in wl.calls:
        if isinstance(call, Saturate):
            inputs.n[call.name] = json.loads((where / f"{call.name}.json").read_text())["n"]
    return inputs, elapsed


def add_references(wl: Workload, inputs: Inputs, threads: int) -> None:
    """Load what the correctness gate compares against, outside every
    timed region: the compatibility graph of each saturate input over the
    basis the op passes (so a printed clique witness can be checked), and
    asche72 for re-deriving search closures."""
    from eqlines import lineset, saturation

    for call in wl.calls:
        if not isinstance(call, Saturate):
            continue
        ls = lineset.load(str(inputs.dir / f"{call.name}.json"))
        given = inputs.basis[call.name]
        basis = saturation.select_basis(ls, None if given is None else [i - 1 for i in given])
        cands = saturation.enumerate_candidates(ls, basis, threads=threads)
        graph = saturation.build_compatibility_graph(cands, ls, basis)
        got = (len(cands), graph.edge_count())
        if got != (call.candidates, call.edges):
            raise OpFailed(f"{call.name}: reference graph has (K, edges) = {got}, "
                           f"expected {(call.candidates, call.edges)}")
        inputs.graph[call.name] = graph
    if "asche72" in wl.build:
        inputs.asche = lineset.load(str(inputs.dir / "asche72.json"))


# --------------------------------------------------------------------------
# ops and their correctness gate
# --------------------------------------------------------------------------


def op_calls(wl: Workload, inputs: Inputs, seed: int, opdir: Path) -> list:
    """The op as a list of call specs (shared by the CLI and the replay)."""
    calls = []
    for call in wl.calls:
        if isinstance(call, Saturate):
            calls.append({"kind": "saturate", "name": call.name,
                          "file": str(inputs.dir / f"{call.name}.json"),
                          "basis": inputs.basis[call.name]})
        else:
            calls.append({"kind": "search", "name": call.name,
                          "file": str(inputs.dir / "asche72.json"),
                          "rank": SEARCH_RANK, "runs": SEARCH_RUNS,
                          "seed": seed, "emit": str(opdir / "best.json")})
    return calls


def cli_args(call: dict, threads: int) -> list:
    if call["kind"] == "saturate":
        args = ["saturate", call["file"]]
        if call["basis"] is not None:
            args += ["--basis", ",".join(map(str, call["basis"]))]
    else:
        args = ["search", call["file"], "--rank", str(call["rank"]),
                "--runs", str(call["runs"]), "--seed", str(call["seed"]),
                "--emit-best", call["emit"]]
    return args + ["--threads", str(threads), "--json"]


def canonical(doc: dict) -> str:
    """The CLI's --json text of `doc`."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def check_saturate(call: dict, spec: Saturate, text: str, seed: int,
                   inputs: Inputs) -> None:
    """Seed 0: every field but the witness byte-equal to the expected
    file.  Other seeds: the invariants.  Every seed: the witness is a
    clique of size omega in the compatibility graph.  The witness is not
    compared with a fixed one, since another clique order may return
    another maximum clique."""
    doc = json.loads(text)
    witness = doc["clique_witness"]
    if seed == 0:
        expected = (EXPECTED / f"{spec.name}.json").read_text()
        masked = dict(doc, clique_witness=json.loads(expected)["clique_witness"])
        if text != canonical(doc) or canonical(masked) != expected:
            raise OpFailed(f"{spec.name}: stdout differs from expected/{spec.name}.json")
    else:
        want = {"basis": list(call["basis"]), "candidate_count": spec.candidates,
                "clique_number": spec.omega, "N": inputs.n[spec.name],
                "saturated": True, "clique_optimal": True,
                "total_patterns": spec.patterns}
        got = {key: doc.get(key) for key in want}
        if got != want:
            raise OpFailed(f"{spec.name}: got {got}, expected {want}")
    adj = inputs.graph[spec.name].adj
    vs = [v - 1 for v in witness]
    if len(set(vs)) != spec.omega or len(vs) != spec.omega or not all(
            0 <= v < len(adj) for v in vs) or not all(
            adj[u] >> v & 1 for i, u in enumerate(vs) for v in vs[i + 1:]):
        raise OpFailed(f"{spec.name}: clique_witness is not a clique of size {spec.omega}")


def check_search(call: dict, text: str, seed: int, asche) -> None:
    from eqlines import lineset, spansearch

    if seed == 0 and text != (EXPECTED / f"{call['name']}.json").read_text():
        raise OpFailed(f"search: stdout differs from expected/{call['name']}.json")
    doc = json.loads(text)
    hist = {int(k): v for k, v in doc["histogram"].items()}
    best = doc["best"]
    if sum(hist.values()) != call["runs"] or best["closure_size"] != max(hist):
        raise OpFailed(f"search: histogram {hist} does not fit best {best}")
    closure = spansearch.span_closure(asche, [i - 1 for i in best["subset"]])
    if [i + 1 for i in closure] != best["closure"]:
        raise OpFailed("search: best closure differs from span_closure")
    emitted = lineset.load(call["emit"])
    report = lineset.validate(emitted)
    if not report.passed or report.rank != SEARCH_RANK or emitted.n != len(closure):
        raise OpFailed("search: emitted best set fails validate at rank 18")


@dataclass
class OpRecord:
    index: int
    error: Optional[str] = None
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    texts: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    counters: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def run_cli_op(wl, calls, threads, seed, inputs, opdir, rec) -> None:
    """Run the op's CLI calls and gate their output.  A timed-out op
    enters wall_s and cpu_s at no less than its cap, so a timeout never
    makes them look better."""
    from eqlines.errors import EqlinesError

    deadline = time.perf_counter() + wl.cap_s
    for call, spec in zip(calls, wl.calls):
        child = spawn(["-c", CLI_MAIN, *cli_args(call, threads)],
                      opdir / f"{call['name']}.out", deadline)
        rec.wall += child.wall
        rec.cpu += child.cpu
        rec.rss_mb = max(rec.rss_mb, child.rss_mb)
        if child.status is None:
            rec.wall = max(rec.wall, wl.cap_s)
            rec.cpu = max(rec.cpu, wl.cap_s)
        check_exit(child, f"eqlines {call['kind']}")
        text = child.stdout.read_text()
        rec.texts.append(text)
        try:
            if call["kind"] == "saturate":
                check_saturate(call, spec, text, seed, inputs)
            else:
                check_search(call, text, seed, inputs.asche)
        except (ValueError, KeyError, TypeError, EqlinesError) as exc:
            raise OpFailed(f"{call['name']}: malformed output: {exc!r}") from exc


def replay(argvs: list, op: str, where: Path, cap_s: float) -> dict:
    """Run the CLI calls `argvs` in perfbench/traced.py under `cap_s`."""
    spec_path = where / f"trace-{op}.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "op": op, "argvs": argvs}))
    child = spawn([str(BENCH / "traced.py"), str(spec_path)],
                  where / f"trace-{op}.out", time.perf_counter() + cap_s)
    check_exit(child, "traced run")
    got = json.loads(child.stdout.read_text().splitlines()[-1])
    if any(got["codes"]):
        raise OpFailed(f"traced run: CLI exit codes {got['codes']}")
    return got


def run_traced_op(wl, calls, threads, opdir, rec) -> None:
    traced_calls = [dict(c, emit=str(opdir / "best.traced.json")) if c["kind"] == "search"
                    else c for c in calls]
    got = replay([cli_args(c, threads) for c in traced_calls], f"op{rec.index}",
                 opdir, wl.cap_s)
    for call, text, cli_text in zip(calls, got["docs"], rec.texts):
        if text != cli_text:
            raise OpFailed(f"{call['name']}: traced result differs from the CLI --json")
    for call, spec, count in zip(calls, wl.calls, got["counters"]):
        if call["kind"] == "saturate":
            want = {"patterns": spec.patterns, "candidates": spec.candidates,
                    "edges": spec.edges, "omega": spec.omega, "optimal": True,
                    "witness_is_clique": True}
            if {k: count.get(k) for k in want} != want:
                raise OpFailed(f"{call['name']}: counters {count}, expected {want}")
        elif Path(call["emit"]).read_bytes() != Path(opdir / "best.traced.json").read_bytes():
            raise OpFailed("search: traced --emit-best file differs from the CLI's")
    rec.counters = got["counters"]
    rec.spans = got["spans"]
    rec.layers = layer_metrics(got["spans"], got["counters"], rec.wall)


def span_seconds(spans: list) -> dict:
    """Total duration of the spans of each name.  A span inside another
    of the same name (asche_72 builds taylor_90 first) is not counted
    twice."""
    by_id = {s["id"]: s for s in spans}
    total: dict = {}
    for s in spans:
        up = s["parent"]
        while up is not None and by_id[up]["name"] != s["name"]:
            up = by_id[up]["parent"]
        if up is None:
            total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
    return total


def layer_metrics(spans: list, counters: list, cli_wall: float) -> dict:
    """Per-layer figures of one traced op (seconds and counts per op).
    A metric ``X_s`` is the time in spans named ``X``."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    parents = {s["parent"] for s in spans}
    root = next(s for s in spans if s["parent"] is None)
    leaves = sum(dur[s["id"]] for s in spans if s["id"] not in parents)
    seconds = span_seconds(spans)
    out = {name: seconds.get(name[:-2], 0.0)
           for name, unit in PER_LAYER.items() if unit == "s"}
    total = lambda key: sum(c.get(key, 0) for c in counters)  # noqa: E731
    cliques = [c for c in counters if "omega" in c]
    out.update({
        "maxclique.omega": total("omega"),
        "maxclique.optimal_ratio":
            sum(c["optimal"] for c in cliques) / len(cliques) if cliques else 0.0,
        "saturation.patterns": total("patterns"),
        "saturation.candidates": total("candidates"),
        "saturation.candidate_yield":
            total("candidates") / total("patterns") if total("patterns") else 0.0,
        "saturation.edges": total("edges"),
        "saturation.graph_bytes_computed": sum(8 * c["candidates"] ** 2 for c in cliques),
        "spansearch.draws": total("draws"),
        "spansearch.full_rank_draws": total("full_rank_draws"),
        "spansearch.full_rank_ratio":
            total("full_rank_draws") / total("draws") if total("draws") else 0.0,
        "spansearch.best_closure": total("best_closure"),
        "spansearch.best_hits": total("best_hits"),
        "cli.overhead_s": cli_wall - dur[root["id"]],
        "trace.coverage": leaves / dur[root["id"]],
    })
    return out


# --------------------------------------------------------------------------
# stamp and main
# --------------------------------------------------------------------------


def git_commit() -> Optional[str]:
    """HEAD of the checkout when it is the top of a git work tree, else None."""
    try:
        got = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = got.stdout.split()
    if got.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources, identifying the program measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "eqlines").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "eqlines" / "cli.py").is_file():
        print(f"error: no eqlines sources under {SRC}", file=sys.stderr)
        return 2
    become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    import numpy

    wl = WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    run_dir = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)

    try:
        setups = [setup(wl, args.seed, threads, run_dir / f"setup{k}")
                  for k in range(1 if args.trace else SETUP_REPS)]
        inputs = setups[-1][0]
        add_references(wl, inputs, threads)
        if args.trace:
            traced_setup = run_dir / "trace-setup"
            traced_setup.mkdir()
            setup_trace = replay(
                [["construct", t, "-o", str(traced_setup / f"{t}.json")] for t in wl.build],
                "setup", run_dir, 120.0)
    except OpFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < args.seconds:
        rec = OpRecord(index=len(records))
        records.append(rec)
        opdir = run_dir / f"op{rec.index}"
        opdir.mkdir()
        calls = op_calls(wl, inputs, args.seed, opdir)
        try:
            run_cli_op(wl, calls, threads, args.seed, inputs, opdir, rec)
            if args.trace:
                run_traced_op(wl, calls, threads, opdir, rec)
        except OpFailed as exc:
            rec.error = str(exc)
        print(f"op {rec.index}: {rec.error or 'ok'} wall {rec.wall:.3f}s",
              file=sys.stderr)

    # Timed-out ops stay in the end-to-end medians at their cap; an op
    # that printed a wrong result makes the whole run incorrect.
    good = [r for r in records if r.error is None]
    failed = len(records) - len(good)
    correct = bool(good) and not any(r.error and r.error != "timeout" for r in records)
    metrics = {}
    if args.trace:
        for name, unit in PER_LAYER.items():
            if name == "constructions.build_s":
                value = span_seconds(setup_trace["spans"])["constructions.build"]
            else:
                pick = statistics.median if unit in ("s", "ratio") else statistics.median_low
                value = pick(r.layers[name] for r in good) if good else 0.0
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "setup_s": [t for _, t in setups],
            "wall_s": [r.wall for r in records],
            "cpu_s": [r.cpu for r in records],
            "peak_rss_mb": [r.rss_mb for r in records],
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(values[name]), "unit": unit}

    record = {
        "stamp": {
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": threads,
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "run_seconds": args.seconds,
            "ops": len(records),
            "op_cap_s": wl.cap_s,
            "setup_reps": len(setups),
        },
        "setup_s": [t for _, t in setups],
        "ops": [{"index": r.index, "error": r.error, "wall_s": r.wall,
                 "cpu_s": r.cpu, "peak_rss_mb": r.rss_mb, "layers": r.layers,
                 "counters": r.counters} for r in records],
        "spans": ([*setup_trace["spans"], *(s for r in records for s in r.spans)]
                  if args.trace else []),
        "metrics": metrics,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
