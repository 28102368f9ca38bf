"""Command-line front end: construct, validate, saturate, search, bound, info.

Conventions: all line and vertex indices printed or accepted by the CLI
are 1-based (the Python API is 0-based).  Rationals are written "p/q".
Machine output (--json) is emitted on stdout with sorted keys and no
timestamps, so identical inputs give byte-identical output; progress and
diagnostics go to stderr.  Exit codes: 0 success, 1 validation failure,
2 usage error or refusal.

Each handler imports the modules it runs, so a call loads only what its
subcommand needs: `construct` loads the constructions (and, for
`from-graph6` only, the graph6 codec), `saturate` the saturation and
clique modules, `search` numpy with the search module, and `validate`,
`bound` and `info` neither.  Only `search` loads numpy.  The package's
records are plain `__slots__` classes (`_record.Record`), which generate
no code on import and load no module that would.

Every BLAS call in eqlines is a small stacked product of the span
search (d <= 43), where a second BLAS thread never pays and its pool
costs start-up time, so `main` sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before any handler imports
numpy, unless the caller has set any of them: a caller's own value
always wins.

A program run ends with `gc.freeze()`: the interpreter's collection at
exit would walk every live object (18 ms over numpy's import heap) only
to free what the process's end frees; `main(argv)` freezes nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import lineset
from .errors import (
    EqlinesError,
    HypothesisViolated,
    InvalidLineSet,
    MalformedGraph6,
    NotABasis,
    NotPSD,
    OutOfRange,
    OverLimit,
    RankDeficient,
)
from .linalg import format_rational, parse_rational

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2

DEFAULT_WORK_CEILING = 1 << 24
WORK_CEILING_CAP_BITS = 1 << 16

# the thread-count variables of OpenBLAS, OpenMP and MKL
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a rational 'p/q': {text!r}") from exc


def _seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer seed: {text!r}") from exc


def _ceiling(text: str) -> int:
    """Work ceiling from an integer or 'b^e' (b, e >= 0).  A power of at
    least 2^WORK_CEILING_CAP_BITS, told by bit length, is never evaluated
    but clamped to that value; a set of rank r is refused when 2^(r-1)
    exceeds the ceiling, so the clamp changes no refusal up to rank
    WORK_CEILING_CAP_BITS + 1."""
    try:
        if "^" in text:
            base, exp = (int(part) for part in text.split("^", 1))
            if base < 0 or exp < 0:
                raise ValueError("negative base or exponent")
            if base > 1 and exp * (base.bit_length() - 1) >= WORK_CEILING_CAP_BITS:
                return 1 << WORK_CEILING_CAP_BITS
            return base ** exp
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a work ceiling (integer or 'b^e'): {text!r}"
        ) from exc


def _indices_1based(text: str) -> list[int]:
    try:
        idx = [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated index list: {text!r}"
        ) from exc
    if any(i < 1 for i in idx):
        raise argparse.ArgumentTypeError("CLI indices are 1-based (>= 1)")
    return idx


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _progress_printer(label: str):
    def emit(done: int, total: int) -> None:
        print(f"{label}: {done}/{total}", file=sys.stderr, flush=True)

    return emit


def _load_lineset(path: str) -> lineset.LineSet:
    return lineset.load(path)


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


def _cmd_construct(args: argparse.Namespace) -> int:
    from . import constructions

    target = args.target
    if target == "octads":
        design = constructions.generate_octads()
        doc = {
            "count": len(design),
            "octads": [list(design.points(i)) for i in range(len(design))],
        }
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
                fh.write("\n")
        if args.json:
            _emit_json(doc)
        else:
            first = " ".join(str(p) for p in design.points(0))
            print(f"octads: {len(design)} blocks; first = {{{first}}}")
            if args.output:
                print(f"written to {args.output}")
        return EXIT_OK

    if target == "tremain14":
        ls = constructions.tremain_28()
    elif target == "taylor90":
        ls = constructions.taylor_90()
    elif target == "asche72":
        ls = constructions.asche_72()
    elif target == "from-graph6":
        if not args.graph6_file:
            print("construct from-graph6 requires a graph6 file", file=sys.stderr)
            return EXIT_USAGE
        with open(args.graph6_file, "rb") as fh:
            data = fh.read()
        from .graph6 import parse_graph6

        n, adj = parse_graph6(data)
        ls = constructions.from_adjacency(n, adj, args.angle)
        params = constructions.srg_check(n, adj)
        if params is None:
            print("warning: graph is not strongly regular", file=sys.stderr)
        else:
            print(
                "strongly regular: SRG(%d, %d, %d, %d)" % params,
                file=sys.stderr,
            )
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(target)

    if args.output:
        lineset.save(ls, args.output)
    if args.json:
        _emit_json(lineset.to_json_dict(ls))
    else:
        print(
            f"{target}: {ls.n} lines, rank {ls.rank}, "
            f"angle {format_rational(ls.angle)}"
        )
        if args.output:
            print(f"written to {args.output}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    ls = _load_lineset(args.file)
    report = lineset.validate(ls)
    if args.json:
        _emit_json(report.to_dict())
    else:
        for check in report.checks:
            status = "ok" if check.passed else f"FAIL ({check.detail})"
            print(f"{check.name}: {status}")
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"{verdict}: {report.n} lines, rank {report.rank}, "
            f"angle {format_rational(report.angle)}"
        )
    return EXIT_OK if report.passed else EXIT_INVALID


def _cmd_saturate(args: argparse.Namespace) -> int:
    from . import maxclique, saturation

    ls = _load_lineset(args.file)
    # a rank-0 set scans nothing; check_saturated refuses it
    patterns = 1 << (ls.rank - 1) if ls.rank else 0
    if patterns > args.work_ceiling and not args.force:
        print(
            f"refusing: 2^{ls.rank - 1} = {patterns} sign patterns exceed "
            f"the work ceiling {args.work_ceiling}; pass --force to override",
            file=sys.stderr,
        )
        return EXIT_USAGE
    basis = None
    if args.basis is not None:
        basis = [i - 1 for i in args.basis]
    sink = None
    if args.export_graph:

        def sink(graph: maxclique.SimpleGraph) -> None:
            with open(args.export_graph, "w", encoding="utf-8") as fh:
                fh.write(maxclique.to_dimacs(graph))

    progress = None if args.json else _progress_printer("patterns")
    try:
        report = saturation.check_saturated(
            ls,
            basis_override=basis,
            progress=progress,
            graph_sink=sink,
            force=args.force,
        )
    except OverLimit as exc:
        print(f"refusing: {exc}; pass --force to override", file=sys.stderr)
        return EXIT_USAGE
    except IndexError as exc:
        # a --basis index past the last line
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        _emit_json(report.to_dict())
    else:
        print("basis:", " ".join(str(i + 1) for i in report.basis_indices))
        print(f"candidates: {report.candidate_count}")
        print(f"clique number: {report.clique_number}")
        if not report.clique_optimal:
            print("(clique search hit its node budget; N is a lower bound, "
                  "and N = n leaves saturation undecided)")
        print(f"N = {len(report.basis_indices)} + {report.clique_number} "
              f"= {report.n_bound}")
        print(f"saturated: {'yes' if report.saturated else 'no'}")
        if args.export_graph:
            print(f"compatibility graph written to {args.export_graph}")
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    from . import spansearch

    ls = _load_lineset(args.file)
    if ls.coords is not None:  # refuse before the first draw
        lineset.require_valid(ls)
        lineset.require_coords(ls)
    progress = None if args.json else _progress_printer("runs")
    summary = spansearch.random_search(
        ls,
        args.rank,
        args.runs,
        args.seed,
        progress=progress,
    )
    best = summary.best
    found = best is not None and best.rank_ok
    complement = None
    if found and ls.coords is not None:
        # the best draw spans the closure, in fewer rows
        complement = spansearch.orthogonal_complement(ls, best.subset)
    if args.csv:
        import csv

        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "seed", "closure_size", "rank_ok"])
            writer.writerows(
                [run.index, run.seed, run.closure_size,
                 "true" if run.rank_ok else "false"]
                for run in summary.run_log
            )
    if args.emit_best and found:
        sub = spansearch.extract_sublineset(ls, best.closure)
        lineset.save(sub, args.emit_best)
    if args.json:
        doc = summary.to_dict()
        if complement is not None:
            doc["complement"] = complement
        _emit_json(doc)
    else:
        if not found:
            print("no run produced a full-rank subset")
        else:
            print(
                f"best closure: {best.closure_size} lines of rank {best.rank} "
                f"at run {best.index} (run seed {best.seed})"
            )
            print("closure:", " ".join(str(i + 1) for i in best.closure))
            if complement:
                print("orthogonal complement of the best closure:")
                for vec in complement:
                    print("  ", " ".join(str(x) for x in vec))
        print("histogram (closure size: runs):")
        for size in sorted(summary.histogram):
            print(f"  {size}: {summary.histogram[size]}")
        if args.csv:
            print(f"run log written to {args.csv}")
        if args.emit_best and found:
            print(f"best sub-lineset written to {args.emit_best}")
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    value = lineset.relative_bound(args.rank, args.alpha)
    floor = value.numerator // value.denominator
    if args.json:
        _emit_json(
            {
                "rank": args.rank,
                "alpha": format_rational(args.alpha),
                "exact": format_rational(value),
                "floor": floor,
            }
        )
    else:
        print(
            f"R({args.rank}, {format_rational(args.alpha)}) = "
            f"{format_rational(value)} (floor {floor})"
        )
    return EXIT_OK


def _cmd_info(args: argparse.Namespace) -> int:
    entry = lineset.known_bounds(args.dimension)
    if args.json:
        _emit_json({"d": entry.d, "lower": entry.lower, "upper": entry.upper})
    else:
        if entry.lower == entry.upper:
            print(f"N({entry.d}) = {entry.lower}")
        else:
            print(f"N({entry.d}) in [{entry.lower}, {entry.upper}]")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqlines",
        description=(
            "Construct, validate, and analyze equiangular line sets with "
            "exact rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--json", action="store_true", help="machine-readable JSON on stdout"
        )

    def add_threads(p: argparse.ArgumentParser, text: str) -> None:
        p.add_argument(
            "--threads", type=int, default=os.cpu_count() or 1, help=text
        )

    p = sub.add_parser("construct", help="build a named line set or design")
    p.add_argument(
        "target",
        choices=["tremain14", "octads", "taylor90", "asche72", "from-graph6"],
    )
    p.add_argument("graph6_file", nargs="?", help="graph6 file (from-graph6)")
    p.add_argument("--angle", type=_rational, default=None,
                   help="common angle p/q (from-graph6)")
    p.add_argument("-o", "--output", help="write the result as JSON")
    add_json(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("validate", help="check a line-set JSON file")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("saturate", help="saturation analysis of a line set")
    p.add_argument("file")
    p.add_argument("--basis", type=_indices_1based, default=None,
                   help="comma-separated 1-based basis line indices")
    p.add_argument("--export-graph", help="write the compatibility graph (DIMACS)")
    p.add_argument("--work-ceiling", type=_ceiling, default=DEFAULT_WORK_CEILING,
                   help="refuse when 2^(rank-1) exceeds this (default 2^24)")
    p.add_argument("--force", action="store_true",
                   help="run even above the work ceiling or the graph "
                        "memory limit")
    add_threads(p, "accepted and ignored: saturation runs in one process")
    add_json(p)
    p.set_defaults(func=_cmd_saturate)

    p = sub.add_parser("search", help="randomized lower-rank subset search")
    p.add_argument("file")
    p.add_argument("--rank", type=int, required=True, help="subset rank to draw")
    p.add_argument("--runs", type=int, required=True, help="number of draws")
    p.add_argument("--seed", type=_seed, required=True, help="master seed")
    p.add_argument("--emit-best", help="write the best closure as a line-set JSON")
    p.add_argument("--csv", help="write the per-run log as CSV")
    add_threads(p, "accepted and ignored: the search runs in one process")
    add_json(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bound", help="exact relative bound r(1-a^2)/(1-r*a^2)")
    p.add_argument("rank", type=int)
    p.add_argument("alpha", type=_rational)
    add_json(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("info", help="known bounds on line counts per dimension")
    p.add_argument("dimension", type=int)
    add_json(p)
    p.set_defaults(func=_cmd_info)

    return parser


def _single_blas_thread() -> None:
    """Ask BLAS for one thread unless the caller has set a thread count.

    BLAS reads these variables once, when numpy loads; a process that
    has loaded numpy already is left as it is.
    """
    if "numpy" in sys.modules:
        return
    if not any(name in os.environ for name in BLAS_THREAD_VARS):
        for name in BLAS_THREAD_VARS:
            os.environ[name] = "1"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; return its exit code.  As the program (argv
    None) it ends with `gc.freeze()`, so that the collection at exit skips
    the heap, which the process's end frees anyway; a call with argv
    freezes nothing, as its caller goes on and frozen objects stay."""
    _single_blas_thread()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "construct" and args.target == "from-graph6":
        if args.angle is None:
            parser.error("construct from-graph6 requires --angle p/q")
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, MalformedGraph6) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotABasis, OutOfRange, RankDeficient, HypothesisViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotPSD, InvalidLineSet) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except EqlinesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
