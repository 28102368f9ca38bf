"""Explicit equiangular line families and graph-based ingestion.

Every family is built from integer data only: a Gram matrix is the
Python-integer dot products of the line vectors over their common
squared norm (`RatMatrix.from_integers`), so no construction touches
floating point or imports numpy.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from operator import mul
from typing import Generator, Iterable, Iterator, Optional, Sequence

from ._record import Record
from ._tables import (
    E1_MINUS_E2,
    E1_MINUS_E3,
    TAYLOR_OCTADS,
    TREMAIN_COLUMN_ORDER,
    TREMAIN_MINUS_ROWS,
    TREMAIN_PLUS_ROWS,
    VEC_C,
    VEC_C1,
    VEC_C2,
    tremain_star_row,
)
from .errors import ConstructionMismatch, NotPSD
from .linalg import RatMatrix
from .lineset import LineSet, SignMatrix, from_sign_matrix

IntVector24 = tuple[int, ...]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


# --------------------------------------------------------------------------
# Octad design on 24 points
# --------------------------------------------------------------------------


class OctadDesign(Record):
    """759 eight-point blocks over {1,...,24}; bit k-1 of a mask = point k."""

    __slots__ = _fields = ("masks",)

    def __len__(self) -> int:
        return len(self.masks)

    def points(self, i: int) -> tuple[int, ...]:
        """Sorted point tuple of block i."""
        m = self.masks[i]
        return tuple(k + 1 for k in range(24) if m >> k & 1)


# Size of the span of the greedy's blocks: the 2^12 words of the
# extended binary Golay code.
_GOLAY_WORDS = 1 << 12


def _greedy_blocks() -> Iterator[int]:
    """The blocks of the lexicographic greedy over the 8-subsets of
    {1,...,24}, in the greedy's order; see `generate_octads`.

    Two 8-subsets meet in 5 or more points iff they share a 5-subset, so
    the greedy keeps a subset iff none of its 5-subsets lies in
    ``covered``, the 5-subsets of the blocks kept so far.  Rather than
    scan all 735,471 subsets, a depth-first search extends sorted
    prefixes a_1 < ... < a_k in lexicographic order, so its leaves come
    in the greedy's order:

    - Pruning: appending point x adds only the 5-subsets that contain x,
      the prefix's 4-subsets with x.  If one is covered, every leaf
      under the prefix is rejected, since ``covered`` only grows.  The
      bound x <= 16 + k leaves room for the remaining points.
    - Unwinding: ``covered`` grows only when a leaf L is kept.  Every
      live prefix of 5 or more points is then a subset of L, so dead;
      the search resumes at the fifth point.

    Run to the end, it yields the greedy's 759 blocks after 32,477
    nodes; it does only the work its consumer draws.
    """
    covered: set[int] = set()

    def extend(
        prefix: int, size: int, start: int, subsets: list[list[int]]
    ) -> Generator[int, None, bool]:
        """Try every next point from ``start``; ``subsets[j]`` holds the
        masks of the j-subsets of ``prefix`` (j = 0..4).  Returns True
        when a leaf was kept, which kills this prefix once it has 5
        points."""
        for x in range(start, 17 + size):
            bit = 1 << x
            if size >= 4 and not covered.isdisjoint(map(bit.__or__, subsets[4])):
                continue
            if size == 7:
                leaf = prefix | bit
                points = [1 << p for p in range(24) if leaf >> p & 1]
                covered.update(sum(five) for five in itertools.combinations(points, 5))
                yield leaf
                return True
            grown = [subsets[0]] + [
                subsets[j] + list(map(bit.__or__, subsets[j - 1])) for j in range(1, 5)
            ]
            kept = yield from extend(prefix | bit, size + 1, x + 1, grown)
            if kept and size >= 5:
                return True
        return False

    yield from extend(0, 0, 0, [[0], [], [], [], []])


def _octads_in_span(blocks: Iterable[int]) -> tuple[int, ...]:
    """The weight-8 words of the XOR span of ``blocks`` in lexicographic
    order of their sorted point tuples.  Blocks are drawn only until the
    span holds `_GOLAY_WORDS` words.

    Raises ConstructionMismatch unless the span reaches dimension 12
    and has exactly 759 words of weight 8, the first being {1,...,8}.
    """
    span = {0}
    for block in blocks:
        if block not in span:
            span.update([w ^ block for w in span])
            if len(span) == _GOLAY_WORDS:
                break
    else:
        raise ConstructionMismatch(
            f"the blocks span {len(span).bit_length() - 1} dimensions, not 12"
        )
    # Read from point 1 up, the earlier of two 8-sets in lexicographic
    # order holds a 1 where the two first differ: it is the larger string.
    octads = sorted(
        (w for w in span if w.bit_count() == 8),
        key=lambda w: f"{w:024b}"[::-1],
        reverse=True,
    )
    if len(octads) != 759 or octads[0] != 0xFF:
        raise ConstructionMismatch(
            f"the span holds {len(octads)} words of weight 8, "
            "not the 759 octads from {1,...,8}"
        )
    return tuple(octads)


@functools.cache
def generate_octads() -> OctadDesign:
    """The lexicographic greedy over the 8-subsets of {1,...,24}.

    The greedy visits the 8-subsets in lexicographic order and keeps one
    iff it meets every kept subset in at most 4 points.  It keeps exactly
    759 blocks, starting with {1,...,8}, and any two blocks meet in 0, 2,
    or 4 points: the Steiner system S(5,8,24) as a constant-weight
    lexicode (Conway & Sloane, "Lexicographic codes", 1986).

    Conway & Sloane also show that binary lexicodes are linear.  The
    one of length 24 and distance 8 is the extended binary Golay code, a
    12-dimensional code over GF(2), and the greedy's blocks are its 759
    words of weight 8 (the tests check this against the full greedy
    scan).  So the first blocks determine all the others: the pruned
    search of `_greedy_blocks` stops once the blocks kept so far span
    12 dimensions, at the 78th block, and the design is the weight-8
    words of their span, sorted into the greedy's order.
    `_octads_in_span` raises ConstructionMismatch unless the span has
    dimension 12 and exactly 759 words of weight 8, the first being
    {1,...,8}.
    """
    return OctadDesign(_octads_in_span(_greedy_blocks()))


# --------------------------------------------------------------------------
# 28 lines in R^14 from a 7+7 row layout
# --------------------------------------------------------------------------


class TremainColumn(Record):
    """One unit column: three entries of squared weight 1/5 among rows 1-7
    (circle = +1, bullet = -1) plus one entry of squared weight 2/5 in star
    block row star_row (1-7).  Inner products stay rational:
    <w_i, w_j> = (circle_i . circle_j + 2*[star_row_i == star_row_j]) / 5.
    """

    __slots__ = _fields = ("circle", "star_row")

    def __init__(self, circle: tuple[int, ...], star_row: int):
        if len(circle) != 7:
            raise ValueError("circle part must have 7 entries")
        if any(x not in (-1, 0, 1) for x in circle):
            raise ValueError("circle entries must be -1, 0, or +1")
        if sum(abs(x) for x in circle) != 3:
            raise ValueError("exactly 3 circle entries must be nonzero")
        if not 1 <= star_row <= 7:
            raise ValueError("star row must lie in 1..7")
        super().__init__(circle, star_row)

    def int_coords(self) -> tuple[int, ...]:
        """Embedding in Z^21 whose standard dot product over squared norm 5
        reproduces the inner products of the class docstring: the star
        coordinate is duplicated so that equal star rows contribute 2."""
        star = [0] * 14
        star[2 * (self.star_row - 1)] = 1
        star[2 * (self.star_row - 1) + 1] = 1
        return self.circle + tuple(star)


def tremain_columns() -> tuple[TremainColumn, ...]:
    """The 28 columns of the layout, in emission order (right-to-left)."""
    circle = {col: [0] * 7 for col in range(1, 29)}
    for row, cols in TREMAIN_PLUS_ROWS.items():
        for col in cols:
            circle[col][row - 1] = 1
    for row, cols in TREMAIN_MINUS_ROWS.items():
        for col in cols:
            circle[col][row - 1] = -1
    return tuple(
        TremainColumn(tuple(circle[col]), tremain_star_row(col) - 7)
        for col in TREMAIN_COLUMN_ORDER
    )


@functools.cache
def tremain_28() -> LineSet:
    """28 equiangular lines in R^14 with angle 1/5."""
    return _lineset_from_vectors([c.int_coords() for c in tremain_columns()], 5)


# --------------------------------------------------------------------------
# 90 lines in R^20 and 72 lines in R^19 from the octad design
# --------------------------------------------------------------------------


def g_vector(points: Sequence[int]) -> IntVector24:
    """Integer line vector of an octad E: 4 on E, minus 4 extra at point 1,
    minus 1 everywhere; squared norm 80 whenever 1 is in E."""
    s = frozenset(points)
    return tuple(4 * (k in s) - 4 * (k == 1) - 1 for k in range(1, 25))


def _lineset_from_vectors(vectors: Sequence[Sequence[int]], norm_sq: int) -> LineSet:
    """Lines at angle 1/5 along integer vectors of squared norm norm_sq:
    the Gram entries are their dot products over norm_sq."""
    n = len(vectors)
    nums = [0] * (n * n)
    for i, u in enumerate(vectors):
        for j in range(i, n):
            nums[i * n + j] = nums[j * n + i] = _dot(u, vectors[j])
    return LineSet.from_gram(
        RatMatrix.from_integers(n, n, nums, norm_sq),
        Fraction(1, 5),
        coords=vectors,
        coords_norm_sq=norm_sq,
    )


@functools.cache
def _taylor_vectors() -> tuple[IntVector24, ...]:
    """The 90 line vectors of `taylor_90`, derived once for it and for
    `asche_72`."""
    design = generate_octads()
    constraints = (E1_MINUS_E2, VEC_C, VEC_C1, VEC_C2)
    chosen: list[tuple[int, ...]] = []
    vectors: list[IntVector24] = []
    for i in range(len(design)):
        if not design.masks[i] & 1:
            continue
        pts = design.points(i)
        g = g_vector(pts)
        if all(_dot(g, v) == 0 for v in constraints):
            chosen.append(pts)
            vectors.append(g)
    if len(chosen) != 90:
        raise ConstructionMismatch(
            f"expected 90 surviving octads, found {len(chosen)}"
        )
    if tuple(chosen) != TAYLOR_OCTADS:
        raise ConstructionMismatch(
            "surviving octads differ from the frozen table"
        )
    return tuple(vectors)


@functools.cache
def taylor_90() -> LineSet:
    """90 equiangular lines in R^20 with angle 1/5.

    Keeps the octads E containing point 1 whose line vector g(E) has zero
    integer dot product with each of e1-e2, c, c1, c2, and checks the
    survivors against the frozen 90-row table.
    """
    return _lineset_from_vectors(_taylor_vectors(), 80)


@functools.cache
def asche_72() -> LineSet:
    """72 equiangular lines in R^19: the 90-line family minus the 18 blocks
    containing point 3; every kept line vector is orthogonal to e1-e3.

    Built from its own 72 vectors, so its Gram matrix and rank come
    from one 72x72 elimination; the set equals
    ``taylor_90().restrict(keep)`` without building the 90 lines.
    """
    vectors = _taylor_vectors()
    keep = [i for i, pts in enumerate(TAYLOR_OCTADS) if 3 not in pts]
    if len(keep) != 72:
        raise ConstructionMismatch(
            f"expected 72 octads avoiding point 3, found {len(keep)}"
        )
    for i in keep:
        if _dot(vectors[i], E1_MINUS_E3) != 0:
            raise ConstructionMismatch(
                f"kept line {i} is not orthogonal to e1-e3"
            )
    return _lineset_from_vectors([vectors[i] for i in keep], 80)


# --------------------------------------------------------------------------
# Seidel ingestion from graph adjacency
# --------------------------------------------------------------------------


def from_adjacency(n: int, adj: Sequence[int], angle: Fraction) -> LineSet:
    """Lines from a graph's adjacency bitset rows: sign matrix
    S = J - I - 2A (adjacent pairs get -1), Gram = I + angle*S.

    Raises ValueError when there are not n rows or they are not
    symmetric, and NotPSD when the Gram matrix of the requested angle is
    not positive semidefinite.  The rule with adjacent pairs at +angle,
    S = 2A - J + I, is this one applied to the complement rows
    ``full ^ row ^ (1 << i)``.
    """
    if len(adj) != n:
        raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
    signs = tuple(
        tuple(0 if i == j else -1 if row >> j & 1 else 1 for j in range(n))
        for i, row in enumerate(adj)
    )
    ls = from_sign_matrix(SignMatrix(n, signs), Fraction(angle))
    if not ls.is_psd:
        raise NotPSD(
            f"I + ({angle})*S is not positive semidefinite; "
            f"the angle is incompatible with this graph"
        )
    return ls


def srg_check(
    n: int, adj: Sequence[int]
) -> Optional[tuple[int, int, int, int]]:
    """(n, k, lambda, mu) if the graph is strongly regular, else None.

    Constant degree k, every adjacent pair has lambda common neighbours,
    every non-adjacent pair has mu.  Graphs with no adjacent pair or no
    non-adjacent pair (empty, complete) return None: a parameter would be
    undefined.
    """
    if n == 0:
        return None
    degrees = {row.bit_count() for row in adj}
    if len(degrees) != 1:
        return None
    k = degrees.pop()
    lam: Optional[int] = None
    mu: Optional[int] = None
    for i in range(n):
        for j in range(i + 1, n):
            common = (adj[i] & adj[j]).bit_count()
            if adj[i] >> j & 1:
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    if lam is None or mu is None:
        return None
    return (n, k, lam, mu)
