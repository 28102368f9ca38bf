"""Reference implementations the tests compare the library against.

They are deliberately plain: the `Fraction`-tuple matrix that integer
numerators over one denominator replaced in `RatMatrix`, the exact
fraction-free determinant and a PSD test by principal minors, the
symmetric elimination that decided PSD alone before `linalg.psd_basis`
also returned the rank and the basis, the greedy span scan that chose
`select_basis`'s default basis before it read those pivot rows, the
`Fraction` Gauss-Jordan solver, inverse, kernel and candidate system
that the one fraction-free routine of `linalg` replaced, dense rational
products, the vectorized block scan over sign patterns that the
meet-in-the-middle engine replaced, the per-draw span membership that
the stacked blocks of `SpanEngine.member_masks` replaced, with the
residue rules over the 26-bit primes `_PRIMES26` that the engine's
multi-prime rounds kept until one prime, lifted and checked exactly
(`SpanEngine._members_mod`), replaced them (with its per-matrix
`_det_inverse_mod`; `span_members` and `span_members_many`, the member
lists the engine once read off its masks; `modular_members` and
`exact_members`, which run the engine's modular and exact tiers
alone), the one-prime-at-a-time stacked determinant and Hadamard bit
count that the engine's rounds replaced, the scalar subset sampler that
the vectorised draws of `random_search` replaced, an inverse of the
SplitMix64 finalizer, and the greedy scan over all 8-subsets that
`generate_octads` replaced (it runs a pruned search up to the 78th
block and takes the weight-8 words of the blocks' span), and the
recursive MCQ clique search with its list of (vertex, color)
pairs that the class-at-a-time coloring and explicit stack of
`max_clique` replaced, and the `Candidate` list of `Fraction`
coordinates with its lcm re-integerization and linear pairwise forms
that the `CandidateSet` and the bilinear `pairwise_hits` replaced (plus
`candidate_coeffs`, the exact coordinates of a `CandidateSet`), with
the balanced base-2^40 limbs (`_balanced_limbs`, `_exact_equal`) and the
upper-triangle graph assembly (`graph_from_upper_bits`) that the one
exact array of `_exact_array` and `graph_from_bits` replaced, and those
numpy kernels in turn, which the packed Python-int lanes of `_intops`
and `maxclique._transpose` replaced: the int64-or-object array
`_exact_array`, the block scan `block_unit_patterns` over the rows of
`_pattern_block`, the packed masks of `pairwise_hits`, and the bit
matrix of bitset rows (`_bits`, `_pack`, `_unpack`,
`_transposed_blocks`, `graph_from_bits`, `numpy_dimacs`), with
`sign_patterns`, which maps +-1 rows to the pattern indices the lane
kernels take.
Last come the helpers the library dropped because no program path
called them, kept for the tests that build fixtures or references
with them: `encode_graph6`, `graph_from_edges`, `graph_from_matrix`,
`count_containing`, `tremain_inner`, `filter_orthogonal` with its
`EmptyResult`, `identity`, and `inverse` over `integer_inverse`; and
`from_graph6`, which composes `parse_graph6` and `from_adjacency` as
the library did before `construct from-graph6` decoded its file once,
with the graph fixtures `w3_collinear` and `complement_rows`; and
`span_engine`, a `SpanEngine` over any PSD integer matrix with the
basis that `psd_basis` finds, for tests whose matrices are no line set.
None of them is used by the library.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from eqlines._intops import enumerate_unit_patterns, scaled_candidate_matrix
from eqlines.constructions import OctadDesign, TremainColumn, from_adjacency
from eqlines.errors import EqlinesError, HypothesisViolated, NotSymmetric, SingularMatrix
from eqlines.graph6 import HEADER, parse_graph6
from eqlines.linalg import RatMatrix, integer_inverse, integer_scaled, psd_basis
from eqlines.lineset import LineSet
from eqlines.maxclique import CliqueResult, SimpleGraph
from eqlines.saturation import CandidateSet
from eqlines.spansearch import MASK64, MIX1, MIX2, SpanEngine, SplitMix64

# 26-bit primes: a centred residue is below 2^25, so the product of two
# is below 2^50, exact in float64
_PRIMES26 = (
    67108859, 67108837, 67108819, 67108777, 67108763, 67108757,
    67108753, 67108747, 67108739, 67108729, 67108721, 67108709,
    67108693, 67108669, 67108667, 67108661, 67108649, 67108633,
    67108597, 67108579, 67108529, 67108511, 67108507, 67108493,
)
# patterns per block of the numpy scans, and forms per block of the
# numpy pairwise masks
_SCAN_BLOCK = 1 << 14
# 0/1 entries (bytes) of one unpacked block of a bit matrix
_UNPACKED = 1 << 18


def _exact_array(w: list[list[int]]) -> np.ndarray:
    """W as an array in which every +-1 form is exact.

    A form eps^T W eps', and every partial sum of it in any order, is a
    sum of at most d^2 terms +-W_ij, so int64 holds it exactly when
    d^2 * max|W| < 2^63; past that the array takes object dtype, whose
    Python ints are exact at any size.
    """
    d = len(w)
    top = max((abs(x) for row in w for x in row), default=0)
    return np.array(w, dtype=np.int64 if d * d * top < 1 << 63 else object)


def _pattern_block(ms: np.ndarray, d: int) -> np.ndarray:
    """Sign-pattern rows (+-1 int64) for a vector of pattern indices."""
    ms = np.asarray(ms, dtype=np.int64)
    e = np.ones((len(ms), d), dtype=np.int64)
    for t in range(1, d):
        e[:, t] = 1 - 2 * ((ms >> (d - 1 - t)) & 1)
    return e


def block_unit_patterns(w: list[list[int]], t_target: int) -> list[int]:
    """The library's numpy scan before the packed-lane scan: ascending
    pattern indices m with eps^T W eps == t_target.

    Meet in the middle: with b = (d-1)//2 and a = d - b, write
    m = h*2^b + l, where h fixes the first a signs (the first is +1) and
    l the last b.  Then eps^T W eps = q_H[h] + q_L[l] + e_H[h]^T C e_L[l]
    with C = W_HL + W_LH^T, so a block of high halves costs one matmul
    against P = C E_L^T, which is built once.  Row-major order of the
    (h, l) block is ascending m.  The forms are computed over
    `_exact_array(W)`, so `==` decides each block exactly.
    """
    d = len(w)
    b = (d - 1) // 2
    a = d - b
    wa = _exact_array(w)
    e_l = _pattern_block(np.arange(1 << b, dtype=np.int64), b + 1)[:, 1:]
    w_hh = wa[:a, :a]
    q_l = ((e_l @ wa[a:, a:]) * e_l).sum(axis=1)
    p = (wa[:a, a:] + wa[a:, :a].T) @ e_l.T
    highs = 1 << (d - 1 - b)
    rows = max(1, _SCAN_BLOCK >> b)
    kept: list[int] = []
    for h0 in range(0, highs, rows):
        hs = np.arange(h0, min(h0 + rows, highs), dtype=np.int64)
        e_h = _pattern_block(hs, a)
        forms = (((e_h @ w_hh) * e_h).sum(axis=1)[:, None] + q_l + e_h @ p).ravel()
        kept.extend(((h0 << b) + np.flatnonzero(forms == t_target)).tolist())
    return kept


def sign_patterns(e: np.ndarray) -> list[int]:
    """The pattern index of each +-1 row of e with its first sign made
    +1, which negates the row's forms and keeps their absolute values."""
    d = e.shape[1]
    return [sum(1 << (d - 1 - t) for t in range(1, d) if row[t] != row[0])
            for row in e.tolist()]


def pairwise_hits(e: np.ndarray, w: list[list[int]], target: int) -> np.ndarray:
    """The library's numpy compatibility mask before `pairwise_rows`:
    the exact mask |eps_i^T W eps_j| == target, for the +-1 rows e and an
    integer d x d matrix W, as a (len(e), ceil(len(e)/8)) uint8 bit
    matrix: bit j % 8 of byte [i, j // 8] is entry [i, j] (np.packbits'
    little bit order).  Each row block costs (e[blk] @ W) @ e.T over
    `_exact_array(W)`, so `==` decides it exactly.
    """
    wa = _exact_array(w)
    k = len(e)
    hit = np.zeros((k, (k + 7) // 8), dtype=np.uint8)
    rows = max(1, _SCAN_BLOCK // max(k, 1))
    for r0 in range(0, k, rows):
        forms = (e[r0:r0 + rows] @ wa) @ e.T
        hit[r0:r0 + rows] = np.packbits(
            abs(forms) == target, axis=1, bitorder="little"
        )
    return hit


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


def _transposed_blocks(bits: np.ndarray):
    """(r0, rows, cols) over blocks of rows of the square 0/1 matrix of
    a bit matrix: rows are its rows r0.. and cols the same rows of its
    transpose, unpacked from byte columns r0 // 8.. of the bit matrix.
    A block is a multiple of 8 rows, so it is also a whole number of
    byte columns."""
    n = len(bits)
    step = max(8, _UNPACKED // max(n, 1) // 8 * 8)
    for r0 in range(0, n, step):
        rows = _unpack(bits[r0:r0 + step], n)
        yield r0, rows, _unpack(bits[:, r0 // 8:(r0 + step) // 8], len(rows)).T


def numpy_dimacs(g: SimpleGraph, comment: str = "") -> str:
    """The library's `to_dimacs` over the unpacked blocks of `_bits`."""
    lines = [f"c {part}" for part in comment.splitlines()]
    lines.append(f"p edge {g.n} {g.edge_count()}")
    bits = _bits(g.adj, g.n)
    step = max(8, _UNPACKED // max(g.n, 1) // 8 * 8)
    for r0 in range(0, g.n, step):
        block = np.triu(_unpack(bits[r0:r0 + step], g.n), r0 + 1)
        for i, j in np.argwhere(block).tolist():
            lines.append(f"e {r0 + i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def graph_from_bits(bits: np.ndarray) -> SimpleGraph:
    """The library's `SimpleGraph.from_bits`: the graph of an
    (n, ceil(n/8)) uint8 bit matrix in np.packbits' little bit order, the
    inverse of `_bits`; it must be symmetric with an empty diagonal and
    clear padding (ValueError otherwise)."""
    rows = (int.from_bytes(row.tobytes(), "little") for row in bits)
    return SimpleGraph(len(bits), tuple(rows))


class FractionRatMatrix:
    """Immutable dense matrix of rationals, stored row-major: the
    library's `RatMatrix` as a tuple of `Fraction` entries, before it
    kept integer numerators over one denominator.  Verbatim apart from
    the names `FractionRatMatrix` and `fraction_integer_scaled`."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Fraction]):
        entries = tuple(Fraction(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "FractionRatMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for row in rows:
            if len(row) != nc:
                raise ValueError("ragged rows")
            flat.extend(Fraction(x) for x in row)
        return cls(nr, nc, flat)

    @classmethod
    def identity(cls, n: int) -> "FractionRatMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "FractionRatMatrix":
        ents = [self[i, j] for i in row_idx for j in col_idx]
        return FractionRatMatrix(len(row_idx), len(col_idx), ents)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self[i, j] == self[j, i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FractionRatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"FractionRatMatrix({self.rows}x{self.cols})"


def fraction_integer_scaled(m: FractionRatMatrix) -> tuple[list[list[int]], int]:
    """Scale a rational matrix to integers: (rows, s) with rows = s*m and
    s the lcm of every entry's denominator."""
    scale = lcm(*(x.denominator for x in m.entries))
    rows = [[x.numerator * (scale // x.denominator) for x in m.row(i)]
            for i in range(m.rows)]
    return rows, scale


def transpose(m: RatMatrix) -> RatMatrix:
    return RatMatrix(
        m.cols, m.rows, [m[i, j] for j in range(m.cols) for i in range(m.rows)]
    )


def matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    return RatMatrix(
        a.rows,
        b.cols,
        [
            sum(a[i, k] * b[k, j] for k in range(a.cols))
            for i in range(a.rows)
            for j in range(b.cols)
        ],
    )


def det(m: RatMatrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    a = []
    for i in range(n):
        row = m.row(i)
        den = 1
        for x in row:
            den = lcm(den, x.denominator)
        scale *= den
        a.append([int(x * den) for x in row])
    sign = 1
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        pivot = a[c][c]
        for i in range(c + 1, n):
            fac = a[i][c]
            arow, crow = a[i], a[c]
            for j in range(c + 1, n):
                arow[j] = (arow[j] * pivot - fac * crow[j]) // prev
            arow[c] = 0
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1]) / scale


def psd_by_minors(m) -> bool:
    """Exact PSD test of a symmetric matrix: every principal minor is
    nonnegative (exponential in the size; for small matrices only)."""
    return all(
        det(m.submatrix(s, s)) >= 0
        for k in range(1, m.rows + 1)
        for s in itertools.combinations(range(m.rows), k)
    )


def is_psd(m: RatMatrix) -> bool:
    """Exact positive-semidefiniteness test (the library's `is_psd`
    before `linalg.psd_basis` replaced it; verbatim).

    Symmetric fraction-free elimination with diagonal pivoting: any
    negative diagonal entry in a remaining block certifies "not PSD";
    if the remaining diagonal is all zero the block itself must be zero.
    """
    if m.rows != m.cols or not m.is_symmetric():
        raise NotSymmetric("PSD test requires a symmetric matrix")
    n = m.rows
    a, _ = integer_scaled(m)
    prev = 1
    for step in range(n):
        piv = None
        for i in range(step, n):
            d = a[i][i]
            if d < 0:
                return False
            if d > 0 and piv is None:
                piv = i
        if piv is None:
            # zero diagonal block: PSD iff the whole block is zero
            return all(
                a[i][j] == 0 for i in range(step, n) for j in range(i + 1, n)
            )
        if piv != step:
            a[step], a[piv] = a[piv], a[step]
            for row in a:
                row[step], row[piv] = row[piv], row[step]
        pivot = a[step][step]
        for i in range(step + 1, n):
            fac = a[i][step]
            arow, srow = a[i], a[step]
            for j in range(i, n):
                arow[j] = (arow[j] * pivot - fac * srow[j]) // prev
        for i in range(step + 1, n):
            arow = a[i]
            for j in range(step + 1, i):
                arow[j] = a[j][i]
            arow[step] = 0
            a[step][i] = 0
        prev = pivot
    return True


def greedy_span_basis(ls: LineSet) -> list[int]:
    """The default basis of `select_basis` before it read the pivot rows
    of `LineSet.basis`, verbatim: a greedy leftmost scan keeping each
    line that enlarges the span, through `SpanEngine`."""
    r = ls.rank
    m_rows, _ = integer_scaled(ls.gram)
    engine = SpanEngine(m_rows, ls.basis)
    chosen: list[int] = []
    in_span: frozenset[int] = frozenset()
    while len(chosen) < r:
        nxt = next(
            j for j in range(ls.n) if j not in in_span and j not in chosen
        )
        chosen.append(nxt)
        if len(chosen) < r:
            got = span_members(engine, chosen)
            assert got is not None, "greedily chosen lines must stay independent"
            in_span = frozenset(got)
    return chosen


def _gauss_jordan(aug: list[list[Fraction]], n: int) -> None:
    # in-place reduction of an n-row augmented system; raises on singular
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            raise SingularMatrix(f"no pivot in column {c}")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        crow = aug[c]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                fac = aug[r][c]
                aug[r] = [x - fac * y for x, y in zip(aug[r], crow)]


def fraction_inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse of a nonsingular square matrix."""
    if a.rows != a.cols:
        raise ValueError("inverse requires a square matrix")
    n = a.rows
    aug = [
        list(a.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)
    ]
    _gauss_jordan(aug, n)
    return RatMatrix(n, n, [x for row in aug for x in row[n:]])


def fraction_scaled_candidate_matrix(
    gram: RatMatrix, basis: Sequence[int], alpha: Fraction
) -> tuple[list[list[int]], int, int]:
    """Integerize V = alpha * inverse(G_B).

    Returns (W, L, T) with W = L*V integral and T = L/alpha integral, so
    that a sign pattern eps has unit norm iff eps^T W eps == T, and two
    unit patterns meet at +-alpha iff eps_i^T W eps_j == +-L.
    """
    gb = gram.submatrix(list(basis), list(basis))
    inv = fraction_inverse(gb)
    d = len(basis)
    v = [[alpha * inv[i, j] for j in range(d)] for i in range(d)]
    scale = 1
    for row in v:
        for x in row:
            scale = lcm(scale, x.denominator)
    scale = lcm(scale, alpha.numerator)
    w = [[int(x * scale) for x in row] for row in v]
    t = int(Fraction(scale) / alpha)
    return w, scale, t


def matvec(m: RatMatrix, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(vec) != m.cols:
        raise ValueError("dimension mismatch")
    return tuple(
        sum(a * b for a, b in zip(m.row(i), vec)) for i in range(m.rows)
    )


def solve(a: RatMatrix, b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact solution x of a·x = b for nonsingular square a."""
    if a.rows != a.cols:
        raise ValueError("solve requires a square matrix")
    if len(b) != a.rows:
        raise ValueError("right-hand side has wrong length")
    n = a.rows
    aug = [list(a.row(i)) + [Fraction(b[i])] for i in range(n)]
    _gauss_jordan(aug, n)
    return tuple(row[n] for row in aug)


def fraction_kernel(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space, one vector per free column.

    Each basis vector is scaled to primitive integer form (integer
    entries with gcd 1) for readability; entries are still Fractions.
    """
    nr, nc = m.rows, m.cols
    a = [list(m.row(i)) for i in range(nr)]
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        rrow = a[r]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                fac = a[i][c]
                a[i] = [x - fac * y for x, y in zip(a[i], rrow)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    basis = []
    free = [c for c in range(nc) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * nc
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -a[i][fc]
        den = 1
        for x in vec:
            den = lcm(den, x.denominator)
        ints = [int(x * den) for x in vec]
        g = gcd(*ints)
        if g > 1:
            ints = [x // g for x in ints]
        basis.append(tuple(Fraction(x) for x in ints))
    return basis


# limb base for exact multi-word int64 arithmetic on +-1 quadratic forms
_LIMB_BASE = 1 << 40
_LIMB_HALF = _LIMB_BASE >> 1


def _balanced_limbs(w: list[list[int]]) -> list[np.ndarray]:
    """Split an integer matrix into balanced base-2^40 limbs (int64)."""
    rows = [list(r) for r in w]
    limbs = []
    while any(x for r in rows for x in r):
        cur = []
        for r in rows:
            crow = []
            for idx, x in enumerate(r):
                digit = (x + _LIMB_HALF) % _LIMB_BASE - _LIMB_HALF
                crow.append(digit)
                r[idx] = (x - digit) // _LIMB_BASE
            cur.append(crow)
        limbs.append(np.array(cur, dtype=np.int64))
    if not limbs:
        limbs.append(np.zeros((len(w), len(w[0]) if w else 0), dtype=np.int64))
    return limbs


def _exact_equal(forms: list[np.ndarray], target: int) -> np.ndarray:
    """Mask of the entries whose limb forms sum_k forms[k] * 2^(40k) equal
    target exactly.

    One limb: the int64 forms are the values.  Several limbs: an exact
    mod-2^40 prefilter on limb 0, then Python-int recombination of the
    survivors.  Balanced limbs have |entry| <= 2^39, so a form of fewer
    than 2^24 such products stays inside int64.
    """
    if len(forms) == 1:
        return forms[0] == target
    hit = forms[0] % _LIMB_BASE == target % _LIMB_BASE
    for pos in np.flatnonzero(hit).tolist():
        value = sum(int(f.flat[pos]) * _LIMB_BASE**k for k, f in enumerate(forms))
        if value != target:
            hit.flat[pos] = False
    return hit


def _exact_quadratic(
    e: np.ndarray, limbs: list[np.ndarray], target: int
) -> np.ndarray:
    """Positions in the block where eps^T W eps == target, exactly.

    Single limb: the int64 form is exact (|entry| < 2^39, d <= 2^11).
    Several limbs: an exact mod-2^40 prefilter on the low limb, then a
    full Python-int recombination for the few survivors.
    """
    forms = [(e * (e @ wk.T)).sum(axis=1) for wk in limbs]
    if len(limbs) == 1:
        return np.nonzero(forms[0] == target)[0]
    # reduce the target first: it may lie past int64
    cand = np.nonzero((forms[0] - target % _LIMB_BASE) % _LIMB_BASE == 0)[0]
    keep = []
    for pos in cand:
        total = sum(
            int(forms[k][pos]) * _LIMB_BASE**k for k in range(len(limbs))
        )
        if total == target:
            keep.append(pos)
    return np.array(keep, dtype=np.int64)


def enumerate_range_batch(
    w: list[list[int]],
    t_target: int,
    start: int,
    stop: int,
    block: int = 1 << 14,
    progress: Optional[Callable[[int], None]] = None,
) -> list[int]:
    """Pattern indices m in [start, stop) whose pattern has unit norm."""
    d = len(w)
    limbs = _balanced_limbs(w)
    kept: list[int] = []
    for off in range(start, stop, block):
        ms = np.arange(off, min(off + block, stop), dtype=np.int64)
        e = _pattern_block(ms, d)
        for pos in _exact_quadratic(e, limbs, t_target):
            kept.append(int(ms[pos]))
        if progress is not None:
            progress(int(ms[-1]) + 1 - start)
    return kept


def direct_unit_patterns(w, t_target):
    """All pattern indices with eps^T W eps == t_target, by Python ints."""
    d = len(w)
    out = []
    for m in range(1 << (d - 1)):
        eps = [1] + [
            -1 if m >> (d - 1 - t) & 1 else 1 for t in range(1, d)
        ]
        s = sum(w[i][j] * eps[i] * eps[j] for i in range(d) for j in range(d))
        if s == t_target:
            out.append(m)
    return out


def _hadamard_bits(a: list[list[int]]) -> int:
    """Upper bound on bits of |det| via the Hadamard row-norm product."""
    total = 0
    for row in a:
        norm_sq = sum(x * x for x in row)
        if norm_sq == 0:
            return 0
        total += (norm_sq.bit_length() + 1) // 2 + 1
    return total


def _det_mod_many(a: np.ndarray, p: int) -> np.ndarray:
    """det mod p of every matrix of a (k, d, d) integer stack.

    Fraction-free elimination mod p over the whole stack at once: the
    pivot of column c is its first nonzero entry at or below row c, and
    each lower row r becomes pivot*row_r - a_rc*row_c (only the columns
    right of c are kept up to date).  That scales the determinant by
    pivot^(d-1-c), so det * scale == sign * prod(pivots) with scale the
    product of the pivot prefix products; one inverse per nonsingular
    matrix at the end undoes it.  Entries stay below p, so every product
    stays below 2^52.
    """
    a = a % p
    k, d = a.shape[:2]
    sign = np.ones(k, dtype=np.int64)
    prod = np.ones(k, dtype=np.int64)
    scale = np.ones(k, dtype=np.int64)
    for c in range(d):
        piv = c + np.argmax(a[:, c:, c] != 0, axis=1)
        swap = np.flatnonzero(piv != c)
        if len(swap):
            top = a[swap, c].copy()
            a[swap, c] = a[swap, piv[swap]]
            a[swap, piv[swap]] = top
            sign[swap] = -sign[swap]
        pv = a[:, c, c]
        prod = prod * pv % p
        if c + 1 < d:
            # only the trailing block is read again
            rest = a[:, c + 1:, c + 1:]
            t = pv[:, None, None] * rest
            t -= a[:, c + 1:, c:c + 1] * a[:, c:c + 1, c + 1:]
            np.remainder(t, p, out=rest)
            scale = scale * prod % p
    det = np.zeros(k, dtype=np.int64)
    for u in np.flatnonzero(prod).tolist():
        det[u] = int(sign[u]) * int(prod[u]) * pow(int(scale[u]), -1, p) % p
    return det


def sample_subset(rng: SplitMix64, n: int, k: int) -> list[int]:
    """Sorted uniform k-subset of range(n) (partial Fisher-Yates)."""
    idx = list(range(n))
    for i in range(k):
        j = i + rng.below(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def _unshift_xor(y: int, s: int) -> int:
    # inverse of x -> x ^ (x >> s) on 64-bit words
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def mix64_inverse(z: int) -> int:
    """The x with mix64(x) == z: undo the xor-shifts and multiply by the
    inverses of both constants modulo 2^64."""
    z = _unshift_xor(z & MASK64, 31)
    z = z * pow(MIX2, -1, 1 << 64) & MASK64
    z = _unshift_xor(z, 27)
    z = z * pow(MIX1, -1, 1 << 64) & MASK64
    return _unshift_xor(z, 30)


def _det_inverse_mod(a: np.ndarray, p: int) -> tuple[int, Optional[np.ndarray]]:
    """(det mod p, inverse mod p or None if singular mod p)."""
    d = len(a)
    aug = np.concatenate([a % p, np.eye(d, dtype=np.int64)], axis=1)
    det = 1
    for c in range(d):
        piv = c + int(np.argmax(aug[c:, c] != 0))
        if aug[piv, c] == 0:
            return 0, None
        if piv != c:
            aug[[c, piv]] = aug[[piv, c]]
            det = -det % p
        det = det * int(aug[c, c]) % p
        inv = pow(int(aug[c, c]), -1, p)
        aug[c] = aug[c] * inv % p
        fac = aug[:, c].copy()
        fac[c] = 0
        aug -= fac[:, None] * aug[c][None, :]
        aug %= p
    return det, aug[:, d:]


class PerDrawSpanEngine(SpanEngine):
    """The per-draw span membership that `SpanEngine.members_many`
    replaced, verbatim: a float-proposed, int64-verified adjugate for
    one draw, then residues modulo the 26-bit primes through the
    per-matrix `_det_inverse_mod`, then exact rational elimination.
    `members_many` loops over the draws one at a time.  It keeps its own
    int64 copies of the Gram matrix and of its residues, and its own
    width rule: `small` (max_m < 2^31) sends every draw through the
    float and int64 residue paths, and only wider entries to Python-int
    residues.  It reads no basis, so it takes any symmetric matrix."""

    def __init__(self, m_rows: list[list[int]]):
        super().__init__(m_rows, ())
        self.small = self.max_m < 2**31
        if self.small:
            self.m_np = np.array(m_rows, dtype=np.int64)
            self.diag_np = np.array(self.diag, dtype=np.int64)
        self._int_mod_cache: dict[int, np.ndarray] = {}

    def _mod(self, p: int) -> np.ndarray:
        got = self._int_mod_cache.get(p)
        if got is None:
            if self.small:
                got = self.m_np % p
            else:
                got = np.array(
                    [[x % p for x in row] for row in self.m_rows], dtype=np.int64
                )
            self._int_mod_cache[p] = got
        return got

    def members_many(self, subsets):
        return [self.members(s) for s in subsets]

    def members(self, subset: Sequence[int]) -> Optional[list[int]]:
        """Sorted member indices, or None when the subset block is singular."""
        subset = sorted(subset)
        if self.small:
            got = self._members_float(subset)
            if got is not None:
                return got
        return self._members_modular(subset)

    # -- tier 1: float proposal, exact integer verification ---------------

    def _members_float(self, subset: list[int]) -> Optional[list[int]]:
        d = len(subset)
        a = self.m_np[np.ix_(subset, subset)]
        try:
            detf = np.linalg.det(a.astype(np.float64))
            if not np.isfinite(detf) or not 0.5 <= abs(detf) < 2**62:
                return None
            inv = np.linalg.inv(a.astype(np.float64))
        except np.linalg.LinAlgError:
            return None
        dr = int(round(detf))
        bf = np.round(inv * dr)
        if not np.all(np.isfinite(bf)):
            return None
        max_b = int(np.max(np.abs(bf))) if bf.size else 0
        # budgets: entries of A@B and M_S@B are sums of d terms of
        # max_m*max_b; the quadratic form adds another factor d*max_m;
        # the comparison target is max_m*|det|
        inner = d * self.max_m * max(max_b, 1)
        if max_b >= 2**62 or inner >= 2**62 or d * self.max_m * inner >= 2**62:
            return None
        if self.max_m * abs(dr) >= 2**62:
            return None
        b = bf.astype(np.int64)
        if not np.array_equal(a @ b, dr * np.eye(d, dtype=np.int64)):
            return None
        ms = self.m_np[:, subset]
        forms = ((ms @ b) * ms).sum(axis=1)
        return np.nonzero(forms == self.diag_np * dr)[0].tolist()

    # -- tier 2: multi-modular residues ------------------------------------

    def _members_modular(self, subset: list[int]) -> Optional[list[int]]:
        d = len(subset)
        if d > 1024:
            # int64 dot-product budget of the residue engine
            return exact_members(self, subset)
        a_rows = [[self.m_rows[i][j] for j in subset] for i in subset]
        det_bits = _hadamard_bits(a_rows)
        value_bits = (
            det_bits + 2 * max(self.max_m.bit_length(), 1)
            + 2 * max(d, 1).bit_length() + 4
        )
        need_det = det_bits + 2
        need_val = value_bits + 2
        if need_val > sum(p.bit_length() - 1 for p in _PRIMES26):
            return exact_members(self, subset)

        sub = np.array(subset, dtype=np.intp)
        det_zero_bits = 0
        used_bits = 0
        alive: Optional[np.ndarray] = None
        saw_nonzero_det = False
        for p in _PRIMES26:
            mp = self._mod(p)
            det_p, inv_p = _det_inverse_mod(mp[np.ix_(sub, sub)], p)
            if inv_p is None:
                det_zero_bits += p.bit_length() - 1
                if det_zero_bits >= need_det and not saw_nonzero_det:
                    return None  # certified singular
                continue
            saw_nonzero_det = True
            b_p = inv_p * det_p % p
            msp = mp[:, sub]
            forms = ((msp @ b_p % p) * msp).sum(axis=1) % p
            target = mp[np.arange(self.n), np.arange(self.n)] * det_p % p
            ok = forms == target
            alive = ok if alive is None else (alive & ok)
            used_bits += p.bit_length() - 1
            if used_bits >= need_val:
                return np.nonzero(alive)[0].tolist()
        # prime pool exhausted without certification either way
        return exact_members(self, subset)


def _mask_lists(full: np.ndarray, mask: np.ndarray) -> list[Optional[list[int]]]:
    """The member indices of each mask row, or None where full is False."""
    return [np.flatnonzero(m).tolist() if f else None for m, f in zip(mask, full)]


def span_members_many(
    engine: SpanEngine, subsets: Sequence[Sequence[int]]
) -> list[Optional[list[int]]]:
    """The library's `SpanEngine.members_many`, before `span_closure`
    read `member_masks` directly: the sorted members of each subset, or
    None when its Gram block is singular."""
    return _mask_lists(*engine.member_masks(subsets))


def span_members(engine: SpanEngine, subset: Sequence[int]) -> Optional[list[int]]:
    """The library's `SpanEngine.members`: `span_members_many` of one subset."""
    return span_members_many(engine, [subset])[0]


def modular_members(
    engine: SpanEngine, subsets: Sequence[Sequence[int]]
) -> list[Optional[list[int]]]:
    """The answers of tiers 3 to 5 of `engine` (`_members_mod`) on
    every draw, with no float tier in front."""
    sub = np.array(subsets, dtype=np.intp)
    full = np.zeros(len(sub), dtype=bool)
    mask = np.zeros((len(sub), engine.n), dtype=bool)
    engine._members_mod(sub, np.arange(len(sub)), full, mask)
    return _mask_lists(full, mask)


def span_engine(m_rows: list[list[int]]) -> SpanEngine:
    """A `SpanEngine` over the PSD integer matrix m_rows, with the basis
    that `linalg.psd_basis` finds for it."""
    basis = psd_basis(RatMatrix.from_rows(m_rows))
    assert basis is not None, "span_engine needs a PSD matrix"
    return SpanEngine(m_rows, basis)


def exact_members(engine: SpanEngine, subset: Sequence[int]) -> Optional[list[int]]:
    """The answer of tier 5 of `engine` (`_members_exact`) on one draw."""
    row = np.zeros(engine.n, dtype=bool)
    full = engine._members_exact(list(subset), row)
    return np.flatnonzero(row).tolist() if full else None


def greedy_octads() -> tuple[int, ...]:
    """The greedy lexicographic scan of all 8-subsets of {1,...,24} that
    `generate_octads` replaced, verbatim: a subset is kept iff it meets
    every kept subset in at most 4 points."""
    kept: list[int] = []
    for combo in itertools.combinations(range(24), 8):
        m = 0
        for c in combo:
            m |= 1 << c
        for k in kept:
            if (m & k).bit_count() > 4:
                break
        else:
            kept.append(m)
    return tuple(kept)


def color_order(adj: Sequence[int], pool: int) -> list[tuple[int, int]]:
    """Greedy coloring of the vertices in pool, lowest index first.

    Returns (vertex, color) pairs; vertices appear grouped by color in
    increasing color order, so the last entries have the highest bound.
    """
    order = []
    remaining = pool
    color = 0
    while remaining:
        color += 1
        avail = remaining
        while avail:
            v = (avail & -avail).bit_length() - 1
            order.append((v, color))
            remaining &= ~(1 << v)
            avail &= ~adj[v]
            avail &= remaining
    return order


def mcq_max_clique(g: SimpleGraph, initial: Sequence[int] = ()) -> CliqueResult:
    """The library's `max_clique` before it colored one class at a time
    over non-neighbour masks and kept its own stack: MCQ over the
    degree-descending labels, one recursive call per candidate pool,
    which it counts as nodes.  No node budget; initial is trusted to be
    a clique."""
    if g.n == 0:
        return CliqueResult(0, (), True, 0)
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    label = {v: k for k, v in enumerate(order)}
    adj = [sum(1 << label[u] for u in range(g.n) if g.adj[v] >> u & 1)
           for v in order]
    best = [label[v] for v in initial]
    stack: list[int] = []
    nodes = 0

    def expand(pool: int) -> None:
        nonlocal best, nodes
        nodes += 1
        for v, color in reversed(color_order(adj, pool)):
            if len(stack) + color <= len(best):
                return
            pool &= ~(1 << v)
            stack.append(v)
            child = pool & adj[v]
            if child:
                expand(child)
            elif len(stack) > len(best):
                best = stack.copy()
            stack.pop()

    expand((1 << g.n) - 1)
    return CliqueResult(len(best), tuple(sorted(order[v] for v in best)), True, nodes)


@dataclass(frozen=True)
class Candidate:
    """One unit vector meeting every basis line at +-alpha.

    pattern_index: lexicographic index m of the sign pattern;
    signs: the pattern itself (first entry +1);
    coeffs: coordinates over the basis lines, c = alpha * G_B^(-1) * signs.
    """

    pattern_index: int
    signs: tuple[int, ...]
    coeffs: tuple[Fraction, ...]


def _pattern_signs(m: int, d: int) -> tuple[int, ...]:
    return (1,) + tuple(
        -1 if m >> (d - 1 - t) & 1 else 1 for t in range(1, d)
    )


def fraction_enumerate_candidates(
    ls: LineSet, basis: Sequence[int], progress=None, threads: int = 1
) -> list[Candidate]:
    """The library's `enumerate_candidates` before it returned a
    `CandidateSet`: one `Candidate` of `Fraction` coordinates per kept
    pattern, through an object-dtype product."""
    d = len(basis)
    w, scale, t_target = scaled_candidate_matrix(ls.gram, basis, ls.angle)
    ms = enumerate_unit_patterns(w, t_target, progress)
    e = _pattern_block(np.array(ms, dtype=np.int64), d)
    # object dtype keeps the numerators exact at any width of W
    nums = e.astype(object) @ np.array(w, dtype=object).T
    return [
        Candidate(m, _pattern_signs(m, d),
                  tuple(Fraction(x, scale) for x in row))
        for m, row in zip(ms, nums.tolist())
    ]


def linear_pairwise_hits(
    e: np.ndarray, m: list[list[int]], targets: Sequence[int]
) -> list[np.ndarray]:
    """The library's `pairwise_hits` before it took the bilinear forms
    eps_i^T W eps_j: exact masks |eps_i^T m_j| == t, one per target t,
    for +-1 rows e and integer rows m, packed as np.packbits does with
    little bit order."""
    limbs = _balanced_limbs(m)
    width = (len(m) + 7) // 8
    hits = [np.zeros((len(e), width), dtype=np.uint8) for _ in targets]
    rows = max(1, _SCAN_BLOCK // max(len(m), 1))
    for r0 in range(0, len(e), rows):
        forms = [e[r0:r0 + rows] @ mk.T for mk in limbs]
        for hit, t in zip(hits, targets):
            hit[r0:r0 + rows] = np.packbits(
                _exact_equal(forms, t) | _exact_equal(forms, -t),
                axis=1, bitorder="little",
            )
    return hits


def lcm_compatibility_graph(
    cands: Sequence[Candidate], ls: LineSet, basis: Sequence[int]
) -> SimpleGraph:
    """The library's `build_compatibility_graph` over a `Candidate`
    list: the lcm D of the coefficient denominators re-integerizes the
    coordinates as M = D * coeffs, edges are forms eps_i^T M_j of +-D,
    and a form of +-D/alpha (when D/alpha is an integer) would mean two
    candidates giving one line, which is checked."""
    den = lcm(*(x.denominator for c in cands for x in c.coeffs))
    m = [[x.numerator * (den // x.denominator) for x in c.coeffs]
         for c in cands]
    e = np.array([c.signs for c in cands], dtype=np.int64)
    dup = Fraction(den) / ls.angle
    targets = [den] if dup.denominator != 1 else [den, dup.numerator]
    edge, *dups = linear_pairwise_hits(e, m, targets)
    diag = np.arange(len(cands))
    for same in dups:
        # clear the diagonal: each candidate meets itself at D/alpha
        same[diag, diag >> 3] &= ~(1 << (diag & 7)).astype(np.uint8)
        i = np.flatnonzero(same.any(axis=1))
        if len(i):
            i = int(i[0])
            j = int(np.flatnonzero(np.unpackbits(same[i], bitorder="little"))[0])
            raise HypothesisViolated(
                f"candidates {i} and {j} describe the same line"
            )
    return graph_from_upper_bits(edge)


def graph_from_upper_bits(bits: np.ndarray) -> SimpleGraph:
    """Graph of the strict upper triangle of an (n, ceil(n/8)) uint8
    bit matrix in np.packbits' little bit order (bit j % 8 of byte
    [i, j // 8] is entry [i, j]): edge ij, i < j, is entry [i, j];
    the diagonal and the lower triangle are ignored."""
    adj = []
    for r0, rows, cols in _transposed_blocks(bits):
        adj.extend(_pack(np.triu(rows, r0 + 1) | np.tril(cols, r0 - 1)))
    return SimpleGraph(len(bits), tuple(adj))


def candidate_coeffs(cands: CandidateSet) -> list[tuple[Fraction, ...]]:
    """Exact coordinates c = W eps / L over the basis lines of each
    candidate, in Python ints."""
    w, d = cands.w, len(cands.w)
    out = []
    for m in cands.patterns:
        eps = _pattern_signs(m, d)
        out.append(tuple(
            Fraction(sum(x * s for x, s in zip(row, eps)), cands.scale)
            for row in w
        ))
    return out


# -- helpers the library dropped because no program path used them --------


class EmptyResult(EqlinesError):
    """A filter removed every member of its input family."""


def filter_orthogonal(
    source: LineSet, constraints: Sequence[Sequence[int]]
) -> LineSet:
    """Lines of source whose integer coordinate vectors are orthogonal to
    every constraint vector.  The source must carry coordinates."""
    if source.coords is None:
        raise ValueError("source line set carries no coordinate vectors")
    cons = [tuple(int(x) for x in v) for v in constraints]
    for v in cons:
        if len(v) != len(source.coords[0]):
            raise ValueError("constraint length must match coordinate length")
    keep = [
        i
        for i, g in enumerate(source.coords)
        if all(sum(map(mul, g, v)) == 0 for v in cons)
    ]
    if not keep:
        raise EmptyResult("no line is orthogonal to every constraint")
    if len(keep) == source.n:
        return source
    return source.restrict(keep)


def count_containing(design: OctadDesign, *points: int) -> int:
    """Number of blocks of design containing all the given points."""
    want = 0
    for p in points:
        if not 1 <= p <= 24:
            raise ValueError("points must lie in 1..24")
        want |= 1 << (p - 1)
    return sum(1 for m in design.masks if m & want == want)


def tremain_inner(a: TremainColumn, b: TremainColumn) -> Fraction:
    """<w_a, w_b> of two Tremain columns, from their layout alone."""
    d = sum(map(mul, a.circle, b.circle))
    if a.star_row == b.star_row:
        d += 2
    return Fraction(d, 5)


def identity(n: int) -> RatMatrix:
    return RatMatrix.from_integers(
        n, n, [int(i == j) for i in range(n) for j in range(n)], 1
    )


def inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse of a nonsingular square matrix, through the
    library's `integer_inverse`."""
    if a.rows != a.cols:
        raise ValueError("inverse requires a square matrix")
    m, scale = integer_scaled(a)
    # a = m/scale, so a^-1 = scale * m^-1 = scale * R/D
    r, d = integer_inverse(m)
    return RatMatrix.from_integers(a.rows, a.cols, [scale * x for y in r for x in y], d)


def graph_from_matrix(a: Sequence[Sequence]) -> SimpleGraph:
    """Graph of a square adjacency matrix given as any 2-D sequence
    of rows, nested lists or an array (nonzero entry = edge); it
    must be symmetric with a zero diagonal (ValueError otherwise)."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("adjacency matrix must be square")
    return SimpleGraph(n, tuple(
        int("".join(["1" if x else "0" for x in row])[::-1], 2) for row in a
    ))


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> SimpleGraph:
    adj = [0] * n
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return SimpleGraph(n, tuple(adj))


def _encode_n(n: int) -> bytes:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63 for s in range(30, -1, -6)])
    raise ValueError("vertex count too large for graph6")


def encode_graph6(n: int, adj: list[int], header: bool = False) -> bytes:
    """Encode adjacency bitsets as graph6 bytes (no trailing newline)."""
    for i in range(n):
        if adj[i] >> n:
            raise ValueError(f"adjacency row {i} has bits beyond vertex {n - 1}")
        if adj[i] >> i & 1:
            raise ValueError(f"self-loop at vertex {i}")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bit = adj[i] >> j & 1
            if bit != (adj[j] >> i & 1):
                raise ValueError(f"adjacency not symmetric at ({i},{j})")
            bits.append(bit)
    while len(bits) % 6:
        bits.append(0)
    out = bytearray(HEADER if header else b"")
    out += _encode_n(n)
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k : k + 6]:
            v = (v << 1) | b
        out.append(v + 63)
    return bytes(out)


def from_graph6(data: bytes, angle: Fraction) -> LineSet:
    """Lines of a graph6-encoded graph under `from_adjacency`'s rule
    S = J - I - 2A (adjacent pairs get -1), Gram = I + angle*S."""
    return from_adjacency(*parse_graph6(data), angle)


def complement_rows(n: int, adj: Sequence[int]) -> list[int]:
    """Adjacency rows of the complement graph.  `from_adjacency` of them
    is the rule S = 2A - J + I (adjacent pairs of the graph at +angle)."""
    full = (1 << n) - 1
    return [full ^ row ^ (1 << i) for i, row in enumerate(adj)]


def w3_collinear() -> list[int]:
    """Adjacency rows of the collinearity graph of W(3), SRG(40,12,2,4),
    as bitsets.  Its points are the 40 points of PG(3, 3), the vectors
    of GF(3)^4 whose first nonzero entry is 1, in `itertools.product`
    order; two distinct points are collinear when the symplectic form
    x0*y1 - x1*y0 + x2*y3 - x3*y2 vanishes mod 3.  The form and the
    point order fix the default basis of the 40 lines, and so K."""
    points = [
        v for v in itertools.product(range(3), repeat=4)
        if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1
    ]

    def form(x, y):
        return (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) % 3

    return [
        sum(1 << j for j, y in enumerate(points) if x != y and not form(x, y))
        for x in points
    ]
