"""Traced run of benchmark CLI calls: the CLI's own code, with spans.

Usage: python3 perfbench/traced.py SPEC.json

SPEC.json holds the source tree (``"src"``), an op id (``"op"``) and the
argument lists of the CLI calls to run (``"argvs"``).  The library
functions the CLI handlers reach through module attributes are replaced
by wrappers that record a span around each call and take work counters
from its arguments and return value; then ``eqlines.cli.main`` runs on
each argument list in this process, with stdout captured.  Spans stay in
memory; when the calls end, one JSON document goes to stdout holding the
spans, each call's stdout text and exit code, and the counters of each
call.  The harness (perfbench/run.py) compares that text with the stdout
of the untraced CLI process, so the trace cannot describe a different
program.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time


class Tracer:
    """In-memory span recorder: name, start, end, parent id and op id."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.counters: list[dict] = []    # one dict per CLI call
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a version that runs inside a span named
        `name`; count(counters, args, result) records work counters."""
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if count is not None:
                count(self.counters[-1], args, result)
            return result

        setattr(module, attr, traced)


def instrument(tr: Tracer) -> None:
    """Wrap every stage the saturate, search and construct handlers call."""
    from eqlines import cli, constructions, lineset, saturation, spansearch

    graphs = []    # the graph of the current call, for the witness check

    def enumerated(c, args, cands):
        c["patterns"] = 1 << (len(args[1]) - 1)
        c["candidates"] = len(cands)

    def graph(c, args, g):
        c["edges"] = g.edge_count()
        graphs[:] = [g]

    def clique(c, args, res):
        adj = graphs.pop().adj
        w = res.witness
        c["omega"] = res.size
        c["optimal"] = res.optimal
        c["witness_is_clique"] = len(set(w)) == res.size and all(
            adj[u] >> v & 1 for i, u in enumerate(w) for v in w[i + 1:])

    def searched(c, args, summary):
        best = summary.best
        c["draws"] = summary.runs
        c["full_rank_draws"] = sum(1 for run in summary.run_log if run.rank_ok)
        c["best_closure"] = 0 if best is None else best.closure_size
        c["best_hits"] = 0 if best is None else summary.histogram[best.closure_size]

    # Handlers are looked up when cli.build_parser() runs inside main().
    for handler in ("_cmd_saturate", "_cmd_search", "_cmd_construct"):
        inner = getattr(cli, handler)

        def run(args, inner=inner, name="cli." + handler[5:]):
            tr.counters.append({})
            with tr.span(name):
                return inner(args)

        setattr(cli, handler, run)
    tr.wrap(cli, "_load_lineset", "lineset.load")
    tr.wrap(cli, "_emit_json", "cli.emit_json")
    tr.wrap(saturation, "select_basis", "saturation.select_basis")
    tr.wrap(saturation, "enumerate_candidates", "saturation.enumerate", enumerated)
    tr.wrap(saturation, "build_compatibility_graph", "saturation.graph", graph)
    tr.wrap(saturation, "verify_nonbasis_cover", "saturation.cover")
    tr.wrap(saturation, "max_clique", "maxclique.clique", clique)
    tr.wrap(spansearch, "random_search", "spansearch.search", searched)
    tr.wrap(spansearch, "orthogonal_complement", "spansearch.complement")
    tr.wrap(spansearch, "extract_sublineset", "spansearch.extract")
    tr.wrap(lineset, "save", "lineset.save")
    for build in ("tremain_28", "taylor_90", "asche_72"):
        tr.wrap(constructions, build, "constructions.build")


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    # Import everything the CLI imports before the first span opens.
    from eqlines import cli

    tr = Tracer(spec["op"])
    instrument(tr)
    docs, codes = [], []
    with tr.span("op"):
        for args in spec["argvs"]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes.append(cli.main(args))
            docs.append(out.getvalue())
    print(json.dumps({"spans": tr.spans, "docs": docs, "codes": codes,
                      "counters": tr.counters}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
