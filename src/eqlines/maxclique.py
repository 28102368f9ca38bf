"""Exact maximum clique via branch and bound with greedy-coloring bounds.

Vertices are 0-based; adjacency rows are Python int bitsets, which keeps
the inner loops allocation-free (set intersection is a single AND).
The symmetry check and the relabelling transpose the bit matrix
(`_transpose`), and no part of the module imports numpy: the rows are
written as binary digits, a block of about _BLOCK_DIGITS = 2^20 digits
at a time, and each column is a strided slice of a block read back by
int(text, 2).  That takes about 13 ms at K = 1806 vertices, where a
Python loop over bit pairs takes about a second.
The solver ranks the vertices once in degree-descending order and
colors every branch's pool in that fixed order (MCQ, Tomita & Seki
2003; Tomita et al. 2010), one color class at a time: a class is grown
by ANDs with precomputed non-neighbour masks (BBMC, San Segundo,
Rodriguez-Losada & Jimenez 2011), and the search branches only on the
classes that can beat the best clique.  Pools are kept on an explicit
stack, so a clique of any size is found without recursion, and
`CliqueResult.nodes` counts the pools entered, up to an optional node
budget.  Deterministic without exception: no clock is read, degree ties
break toward the lower index, and a starting clique is kept unless a
strictly larger one exists, so equal inputs give equal results.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ._record import Record

# binary digits in one block of `_transpose`
_BLOCK_DIGITS = 1 << 20


def _transpose(adj: Sequence[int], n: int) -> list[int]:
    """The rows of the transpose of the n x n bit matrix whose row i is
    adj[i] (bit j is entry [i, j]).  A block of columns c0.. of every
    row, last row first, is written as binary digits; column c is then
    every width-th digit, the highest row first, as int(text, 2) reads."""
    cols = []
    step = max(1, _BLOCK_DIGITS // max(n, 1))
    for c0 in range(0, n, step):
        width = min(step, n - c0)
        mask, spec = (1 << width) - 1, f"0{width}b"
        text = "".join([format(row >> c0 & mask, spec) for row in reversed(adj)])
        cols.extend([int(text[c::width], 2) for c in range(width - 1, -1, -1)])
    return cols


class SimpleGraph(Record):
    """Undirected simple graph; adj[i] has bit j set iff ij is an edge."""

    __slots__ = _fields = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if len(adj) != n:
            raise ValueError("adjacency must have one row per vertex")
        full = (1 << n) - 1
        for i, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {i} has bits beyond vertex {n - 1}")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i, (row, col) in enumerate(zip(adj, _transpose(adj, n))):
            diff = (row ^ col) >> i + 1
            if diff:
                j = i + (diff & -diff).bit_length()
                raise ValueError(f"adjacency not symmetric at ({i},{j})")
        super().__init__(n, adj)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def is_clique(self, vertices: Sequence[int]) -> bool:
        """Whether vertices are distinct, in range and pairwise adjacent."""
        vs = list(vertices)
        if len(set(vs)) != len(vs) or any(not 0 <= v < self.n for v in vs):
            return False
        return all(
            self.adj[u] >> v & 1 for i, u in enumerate(vs) for v in vs[i + 1:]
        )


class CliqueResult(Record):
    """nodes counts the candidate pools the search entered, the whole
    vertex set included: a function of the graph, the node budget and
    the starting clique alone, like the rest of the result."""

    __slots__ = _fields = ("size", "witness", "optimal", "nodes")
    _defaults = (0,)


def _color_classes(nadj: Sequence[int], single: Sequence[int], pool: int) -> list[int]:
    """Greedy coloring of the vertices in pool, highest label first, one
    class at a time: [0, class 1, class 2, ...] as bitsets; the leading
    0 stands for "no class left".  Vertex v sits at bit v - 1, so the
    highest vertex of a set is its bit_length(); nadj[v] is the set of
    the other vertices not adjacent to v, and single[v] is {v}."""
    classes = [0]
    while pool:
        avail = pool
        cls = 0
        while avail:
            v = avail.bit_length()
            avail &= nadj[v]
            cls |= single[v]
        pool ^= cls
        classes.append(cls)
    return classes


def max_clique(
    g: SimpleGraph,
    node_budget: Optional[int] = None,
    initial: Sequence[int] = (),
) -> CliqueResult:
    """Maximum clique size and one witness.

    Branch and bound after MCQ (Tomita & Seki 2003): the vertices are
    ranked once in degree-descending order (lower index first on ties),
    and every candidate pool is greedily colored in that fixed order,
    one color class at a time over precomputed non-neighbour masks
    (BBMC, San Segundo et al. 2011).  A vertex of color c can lift a
    clique of s vertices to at most s + c, so the search branches only
    on the classes above len(best) - s, highest class first and the
    last-ranked vertex of a class first, and checks the bound again
    before every vertex, since best may grow meanwhile.  The search
    keeps its own stack of pools, so no recursion limit caps the clique
    size.  initial, if given, must be a clique of g (ValueError
    otherwise) and is the starting best: it stays the witness unless a
    strictly larger clique exists.  Otherwise the witness is the first
    maximum clique the search meets, in the order the ranking fixes.
    The witness is returned sorted, in g's own labels.  At most
    node_budget pools are entered, the whole vertex set first; a pool past
    it ends the search with optimal=False and the longest clique in hand.
    """
    if not g.is_clique(initial):
        raise ValueError(f"initial vertices {list(initial)} are not a clique")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget {node_budget} is negative")
    if not g.n or node_budget == 0:
        return CliqueResult(len(initial), tuple(sorted(initial)), not g.n)
    # labels 1..n run against the ranking, so that the coloring's next
    # vertex, the first-ranked of a set, is the set's bit_length()
    order = sorted(range(g.n), key=lambda v: (g.degree(v), -v))
    label = {v: k for k, v in enumerate(order, 1)}
    # g is symmetric, so transposing its rows in ranked order ranks the
    # columns, and taking those in ranked order ranks the rows again
    cols = _transpose([g.adj[v] for v in order], g.n)
    adj = [0] + [cols[v] for v in order]
    full = (1 << g.n) - 1
    single = [0] + [1 << i for i in range(g.n)]
    # complements within the vertex range: nonnegative, so every AND
    # stays on CPython's fast path for positive ints
    nadj = [0] + [full ^ adj[v] ^ single[v] for v in range(1, g.n + 1)]
    limit = -1 if node_budget is None else node_budget
    best = [label[v] for v in initial]
    stack: list[int] = []
    # (pool, classes, color, cls) of every ancestor of the current pool:
    # cls is what is left of classes[color]; it and classes[1:color] are
    # still to branch on
    frames = []
    pool, nodes, optimal = full, 1, True
    classes = _color_classes(nadj, single, pool)
    color = len(classes) - 1
    cls = classes[color]
    while True:
        # a finished pool has color 0, and its branches made best
        # longer than stack, so this also closes it
        if len(stack) + color <= len(best):
            if not frames:
                break
            pool, classes, color, cls = frames.pop()
            stack.pop()
            continue
        bit = cls & -cls
        cls ^= bit
        pool ^= bit
        if not cls:
            color -= 1
            cls = classes[color]
        v = bit.bit_length()
        stack.append(v)
        child = pool & adj[v]
        if child:
            if nodes == limit:
                best, optimal = max(best, stack, key=len), False
                break
            nodes += 1
            frames.append((pool, classes, color, cls))
            pool = child
            classes = _color_classes(nadj, single, pool)
            color = len(classes) - 1
            cls = classes[color]
        else:
            if len(stack) > len(best):
                best = stack.copy()
            stack.pop()
    witness = tuple(sorted(order[v - 1] for v in best))
    return CliqueResult(len(best), witness, optimal, nodes)


def to_dimacs(g: SimpleGraph, comment: str = "") -> str:
    """DIMACS .clq text (1-based vertices) for third-party solvers."""
    lines = [f"c {part}" for part in comment.splitlines()]
    lines.append(f"p edge {g.n} {g.edge_count()}")
    for i, row in enumerate(g.adj):
        above = format(row >> i + 1, "b")[::-1]
        lines.extend(
            f"e {i + 1} {i + 2 + k}" for k, c in enumerate(above) if c == "1"
        )
    return "\n".join(lines) + "\n"
