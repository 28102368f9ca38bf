"""Exact maximum clique via branch and bound with greedy-coloring bounds.

Vertices are 0-based; adjacency rows are Python int bitsets, which keeps
the inner loops allocation-free (set intersection is a single AND).
Whole-graph work (the symmetry check, the relabelling, DIMACS export)
goes through the packed bit matrix of the rows (`_bits`, K x K/8
bytes), unpacked to 0/1 (`_unpack`) and packed back (`_pack`) one block
of about _UNPACKED entries at a time: milliseconds at K ~ 2000
vertices, where a Python loop over bit pairs takes about a second, and
never K x K bytes.
The solver ranks the vertices once in degree-descending order and
colors every branch's pool in that fixed order (MCQ, Tomita & Seki
2003; Tomita et al. 2010), one color class at a time: a class is grown
by ANDs with precomputed non-neighbour masks (BBMC, San Segundo,
Rodriguez-Losada & Jimenez 2011), and the search branches only on the
classes that can beat the best clique.  Pools are kept on an explicit
stack, so a clique of any size is found without recursion, and
`CliqueResult.nodes` counts the pools entered.  Deterministic by
construction: degree ties break toward the lower index, and a
caller-supplied starting clique is kept unless a strictly larger one
exists, so identical inputs return identical witnesses and node counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


# 0/1 entries (bytes) of one unpacked block of rows
_UNPACKED = 1 << 18


def _bits(adj: Sequence[int], n: int) -> np.ndarray:
    """The (n, ceil(n/8)) uint8 bit matrix of bitset rows: bit j % 8 of
    byte [i, j // 8] is bit j of adj[i] (np.packbits' little bit order);
    the inverse of _pack."""
    width = (n + 7) // 8
    raw = b"".join(row.to_bytes(width, "little") for row in adj)
    return np.frombuffer(raw, dtype=np.uint8).reshape(n, width)


def _pack(a: np.ndarray) -> list[int]:
    """Bitset rows of a 0/1 matrix."""
    packed = np.packbits(a, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack(bits: np.ndarray, count: int) -> np.ndarray:
    """The 0/1 matrix of the first count columns of a bit matrix."""
    return np.unpackbits(bits, axis=1, count=count, bitorder="little")


def _block_rows(n: int) -> int:
    """Rows of one unpacked block of an n-column matrix: a multiple of
    8, so that a block of rows is also a whole number of byte columns."""
    return max(8, _UNPACKED // max(n, 1) // 8 * 8)


def _transposed_blocks(bits: np.ndarray):
    """(r0, rows, cols) over blocks of rows of the square 0/1 matrix of
    a bit matrix: rows are its rows r0.. and cols the same rows of its
    transpose, unpacked from byte columns r0 // 8.. of the bit matrix."""
    n = len(bits)
    step = _block_rows(n)
    for r0 in range(0, n, step):
        rows = _unpack(bits[r0:r0 + step], n)
        yield r0, rows, _unpack(bits[:, r0 // 8:(r0 + step) // 8], len(rows)).T


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph; adj[i] has bit j set iff ij is an edge."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise ValueError("adjacency must have one row per vertex")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {i} has bits beyond vertex {self.n - 1}")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for r0, rows, cols in _transposed_blocks(_bits(self.adj, self.n)):
            diff = np.argwhere(np.triu(rows != cols, r0 + 1))
            if len(diff):
                i, j = diff[0].tolist()
                raise ValueError(f"adjacency not symmetric at ({r0 + i},{j})")

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "SimpleGraph":
        """Graph of a square adjacency matrix (nonzero entry = edge); it
        must be symmetric with a zero diagonal (ValueError otherwise)."""
        a = np.asarray(a, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency matrix must be square")
        return cls(len(a), tuple(_pack(a)))

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "SimpleGraph":
        """Graph of an (n, ceil(n/8)) uint8 bit matrix in np.packbits'
        little bit order, the inverse of `_bits`; it must be symmetric
        with an empty diagonal and clear padding (ValueError otherwise)."""
        rows = (int.from_bytes(row.tobytes(), "little") for row in bits)
        return cls(len(bits), tuple(rows))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        adj = [0] * n
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(n, tuple(adj))

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


@dataclass(frozen=True)
class CliqueResult:
    """nodes counts the candidate pools the search entered, the whole
    vertex set included: deterministic for a given graph and starting
    clique unless a time budget cut the search short."""

    size: int
    witness: tuple[int, ...]
    optimal: bool
    nodes: int = 0


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
    time_budget: Optional[float] = None,
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
    The witness is returned sorted, in g's own labels.  With a time
    budget (seconds), the best clique found so far is returned with
    optimal=False once time is up.
    """
    if not g.is_clique(initial):
        raise ValueError(f"initial vertices {list(initial)} are not a clique")
    if g.n == 0:
        return CliqueResult(0, (), True)
    # labels 1..n run against the ranking, so that the coloring's next
    # vertex, the first-ranked of a set, is the set's bit_length()
    order = sorted(range(g.n), key=lambda v: (g.degree(v), -v))
    label = {v: k for k, v in enumerate(order, 1)}
    bits, where = _bits(g.adj, g.n), np.array(order, dtype=np.intp)
    step = _block_rows(g.n)
    adj = [0]
    for r0 in range(0, g.n, step):
        adj.extend(_pack(_unpack(bits[where[r0:r0 + step]], g.n)[:, where]))
    full = (1 << g.n) - 1
    single = [0] + [1 << i for i in range(g.n)]
    # complements within the vertex range: nonnegative, so every AND
    # stays on CPython's fast path for positive ints
    nadj = [0] + [full ^ adj[v] ^ single[v] for v in range(1, g.n + 1)]
    deadline = None if time_budget is None else time.monotonic() + time_budget
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
            nodes += 1
            if deadline is not None and not nodes & 2047 \
                    and time.monotonic() > deadline:
                optimal = False
                break
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
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p edge {g.n} {g.edge_count()}")
    bits = _bits(g.adj, g.n)
    step = _block_rows(g.n)
    for r0 in range(0, g.n, step):
        block = np.triu(_unpack(bits[r0:r0 + step], g.n), r0 + 1)
        for i, j in np.argwhere(block).tolist():
            lines.append(f"e {r0 + i + 1} {j + 1}")
    return "\n".join(lines) + "\n"
