"""Randomized rank-reduction search inside an equiangular line set.

Strategy: draw a subset of lines whose Gram block is nonsingular, take
its span-closure (every line of the parent set lying in the span), and
keep the largest closure seen.  Closures of d independent lines have
rank exactly d, so large closures are large lower-rank line sets.

The generator is SplitMix64, pinned here so that results reproduce
bit-for-bit: state advances by the golden-ratio increment and is
finalized by two xor-multiply rounds.  Run i of a search derives its
own seed as mix64(master + i*GOLDEN), so runs are independent of
execution order.

The search runs in one process, a chunk of runs at a time.  A chunk
is a whole number of the blocks that `SpanEngine.block` sizes so that
their (draws, d, n) column gather holds about 2^17 float64 entries (101
draws at n = 72, d = 18), as many as keep the chunk's (runs, n)
permutation near _DRAW_CHUNK = 2^16 entries (9 blocks there).  The
subsets of a chunk are drawn together, one numpy uint64 SplitMix64 lane
per run (`_draw_block`), bit-identical to drawing each run on its own;
`SplitMix64`, `mix64` and `run_seed` remain the definition of the
stream.  `SpanEngine.member_masks` then decides the chunk into closure
masks in stacked numpy, block by block in arrays it reuses, with the
draws the float tiers leave open gathered across the chunk's blocks.

Every span decision is exact.  Floating point either *proposes* an
integer adjugate, or an integer kernel vector of a singular block, that
is then verified exactly (a failed verification falls through), or
carries integers of at most 2^53, where float64 arithmetic is exact in
any summation order (the verifications themselves, and the centred
residues of `_inverse_mod`); no tolerance ever decides an answer.  One
width rule keeps every integer in range: a draw of d lines reaches
numpy only when d * max|M| <= 2^27, and any wider draw goes to exact
integer elimination.  A valid set has max|M| = q, the angle's
denominator (q <= 7 and d <= 43 on every shipped set).  This is the one
module that loads numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from math import prod
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from ._record import Record
from .errors import OutOfRange, RankDeficient, SingularMatrix
from .lineset import LineSet, require_coords, require_valid, validate

# entries of the (runs, n) permutation that one `_draw_block` call
# shuffles: random_search draws chunks of whole blocks about this size
_DRAW_CHUNK = 1 << 16

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
# the two multipliers of the SplitMix64 finalizer
MIX1, MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

ProgressSink = Callable[[int, int], None]

# float64 entries of the (draws, d, n) column gather that decides one
# stacked block of span-membership draws; this sizes the block (101
# draws at n = 72, d = 18)
_DRAW_GATHER = 1 << 17

# every integer of magnitude at most 2^53 is exact in float64
_FLOAT_EXACT = 1 << 53

# 26-bit primes: a centred residue is below 2^25, so the product of two
# is below 2^50, exact in float64
_PRIMES26 = (
    67108859, 67108837, 67108819, 67108777, 67108763, 67108757,
    67108753, 67108747, 67108739, 67108729, 67108721, 67108709,
    67108693, 67108669, 67108667, 67108661, 67108649, 67108633,
    67108597, 67108579, 67108529, 67108511, 67108507, 67108493,
)
# each prime exceeds 2^_PRIME_LOG2, so t of them cover t * _PRIME_LOG2 bits
_PRIME_LOG2 = 25
_PRIME_BITS = _PRIME_LOG2 * len(_PRIMES26)
# _PRIME_SQ[t] = (p_1 * ... * p_t)^2, the square of the first t primes' product
_PRIME_SQ = [prod(_PRIMES26[:t]) ** 2 for t in range(len(_PRIMES26) + 1)]


def mix64(z: int) -> int:
    """SplitMix64 finalizer: two xor-shift-multiply rounds plus a shift."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator; identical output on every platform."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def below(self, bound: int) -> int:
        """Uniform value in [0, bound) via rejection (no modulo bias);
        bound must lie in 1..2^64, since a draw has 64 bits."""
        if not 0 < bound <= 1 << 64:
            raise ValueError("bound must lie in 1..2^64")
        lim = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next64()
            if r < lim:
                return r % bound


def run_seed(master: int, index: int) -> int:
    """Per-run seed: decorrelates consecutive runs of one master seed."""
    return mix64((master + index * GOLDEN) & MASK64)


def _mix64_many(z: np.ndarray) -> np.ndarray:
    """`mix64` of every entry of a uint64 array (products wrap mod 2^64)."""
    z = z ^ (z >> 30)
    z *= MIX1
    z ^= z >> 27
    z *= MIX2
    return z ^ (z >> 31)


def _draw_block(
    master: int, lo: int, hi: int, n: int, k: int
) -> tuple[list[int], np.ndarray]:
    """Seeds and sorted k-subsets of range(n) of runs lo..hi-1.

    Bit-identical to drawing each run on its own with
    SplitMix64(run_seed(master, i)): every lane takes the same partial
    Fisher-Yates steps, j = i + below(n - i), with below's rejection
    rule.  A rejected lane advances its own state and redraws until it
    is accepted; a bound dividing 2^64 rejects nothing.
    """
    runs = np.arange(lo, hi, dtype=np.uint64)
    seeds = _mix64_many(runs * GOLDEN + master)
    state = seeds.copy()
    lanes = np.arange(hi - lo)
    # the smallest dtype that holds n keeps the (runs, n) shuffle small
    perm = np.tile(np.arange(n, dtype=np.min_scalar_type(n)), (hi - lo, 1))
    for i in range(k):
        bound = n - i
        lim = (1 << 64) - (1 << 64) % bound
        state += GOLDEN
        r = _mix64_many(state)
        if lim < 1 << 64:
            redo = np.flatnonzero(r >= lim)
            while len(redo):
                state[redo] += GOLDEN
                r[redo] = _mix64_many(state[redo])
                redo = redo[r[redo] >= lim]
        j = i + (r % bound).astype(np.intp)
        perm[lanes, i], perm[lanes, j] = perm[lanes, j], perm[lanes, i]
    return seeds.tolist(), np.sort(perm[:, :k], axis=1).astype(np.intp)


# --------------------------------------------------------------------------
# span membership (exact, five tiers)


def _centre(t: np.ndarray, p, p_inv) -> np.ndarray:
    """t - p*rint(t/p) for float64 integers |t| <= 2^52 and 26-bit primes
    p: the residue of t mod p, within p/2 + 2 of zero.  The quotient is
    estimated through 1/p, off by far less than 1/2 at this size, and
    every product and difference is an integer below 2^53, exact."""
    q = t * p_inv
    np.rint(q, out=q)
    q *= p
    return np.subtract(t, q, out=q)


def _kernel_zero(a: np.ndarray, max_m: int) -> np.ndarray:
    """Mask of the matrices of a (k, d, d) float64 stack of integers
    (|entry| <= max_m) certified singular by an integer kernel vector.

    One batched float solve of (A + eps*I) x = probe, with eps =
    1e-12 * max_m, proposes x; for a singular A the kernel part of x,
    of order (v . probe) / eps for a kernel vector v, swamps the rest.
    The probe 1 + (mix64(j) >> 12) / 2^52, j = 1..d, is pseudo-random and
    the same float64 on every platform (an affine one, 1 + frac(j * phi),
    is orthogonal to every v with sum v_j = sum j*v_j = 0).  Dividing x
    by its smallest entry above 2^-20 of its largest, and rounding, gives
    an integer w.  A matrix is certified only when w != 0,
    max|w| * max_m * d <= 2^53, so that every partial sum of A @ w is an
    integer of at most 2^53, exact in float64 in whatever order BLAS
    sums, and A @ w == 0.  A failed solve certifies nothing.
    """
    k, d = a.shape[:2]
    probe = 1.0 + np.array([mix64(j) >> 12 for j in range(1, d + 1)]) * 2.0**-52
    try:
        x = np.linalg.solve(a + 1e-12 * max_m * np.eye(d), probe[:, None])[..., 0]
    except np.linalg.LinAlgError:
        return np.zeros(k, dtype=bool)
    mag = np.abs(x)
    # a NaN or all-zero x has no significant entry and gives w = 0 or NaN
    sig = mag > mag.max(axis=1, keepdims=True, initial=0.0) * 2.0**-20
    unit = np.where(sig, mag, np.inf).min(axis=1, keepdims=True, initial=np.inf)
    with np.errstate(invalid="ignore"):
        w = np.rint(x / unit)
    max_w = np.abs(w).max(axis=1, initial=0.0)
    zero = (max_w > 0) & (max_w <= _FLOAT_EXACT // max(d * max_m, 1))
    take = np.flatnonzero(zero)
    zero[take] = (a[take] @ w[take, :, None] == 0).all(axis=(1, 2))
    return zero


def _inverse_mod(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Y, t) for a (k, d, d) float64 stack of integers (|entry| < 2^52)
    and one 26-bit prime p[k] per matrix: t == 0 when A is singular mod
    p, and otherwise t is a unit and Y == t * A^-1 (mod p), both centred.

    Fraction-free Gauss-Jordan over the whole stack at once, on the
    compact form of [A | I]: the pivot of column c is the first row
    pi(c) not yet a pivot row whose entry is nonzero, with value v, and
    every other row r becomes v*row_r - a_rc*row_pi(c).  Column c is then
    free and takes column pi(c) of the accumulated row operations L; the
    columns of L not yet stored are s_c times identity columns, s_c the
    product of the pivots before column c.  At the end L A holds t / s_c
    at (pi(c), c) and zeros elsewhere in column c, t the product of all
    pivots, so row c of t * A^-1 is s_c times row pi(c) of the stored L,
    with its column j moved to column pi(j).
    """
    k, d = a.shape[:2]
    p = p.astype(np.float64)
    p_inv = 1.0 / p
    p3, p3_inv = p[:, None, None], p_inv[:, None, None]
    lanes = np.arange(k)
    w = _centre(a, p3, p3_inv)
    free = np.ones((k, d), dtype=bool)
    piv = np.zeros((k, d), dtype=np.intp)
    scale = np.ones((k, d + 1))  # scale[:, c] = s_c
    for c in range(d):
        col = w[:, :, c].copy()
        cand = (col != 0) & free
        r = np.argmax(cand, axis=1)
        v = np.where(cand[lanes, r], col[lanes, r], 0.0)
        free[lanes, r] = False
        piv[:, c] = r
        row = w[lanes, r]
        w *= v[:, None, None]
        w -= col[:, :, None] * row[:, None, :]
        w[lanes, r] = row
        w[:, :, c] = -col * scale[:, c, None]
        w[lanes, r, c] = scale[:, c]
        w = _centre(w, p3, p3_inv)
        scale[:, c + 1] = _centre(scale[:, c] * v, p, p_inv)
    rows = np.take_along_axis(w, piv[:, :, None], axis=1) * scale[:, :d, None]
    y = np.empty_like(w)
    np.put_along_axis(y, np.broadcast_to(piv[:, None, :], w.shape), rows, axis=2)
    return _centre(y, p3, p3_inv), scale[:, d]


class SpanEngine:
    """Reusable exact span-membership tester over one integer Gram matrix.

    Row j belongs to span(subset) iff M_jS (M_SS)^-1 M_Sj == M_jj.
    Its one query, `member_masks`, decides subsets of one size into
    masks (`span_closure` reads one row of them).  Tiers 1 and
    2 take stacked blocks of `block(d)` draws, sized so that the
    (draws, d, n) float64 gather of the columns M_:S holds about
    _DRAW_GATHER entries.  They fill arrays made once per d, `block(d)`
    draws deep (so an engine serves one thread at a time): the Gram
    blocks, their index and a gathered copy, the column gather and the
    forms.  No other stack of matrices is allocated but what det, inv
    and solve return and the A + eps*I of `_kernel_zero`.  The draws
    they leave open gather across blocks and go to tiers 3 and 4 a whole
    block's worth at a time (and once more at the end), so every stack
    stays within one block.  Tiers 1 to 4 take a draw of d lines only
    when d * max_m <= 2^27 (the width rule).  Each draw is decided by
    exactly one of five tiers, counted in `tier_counts`:

    1. float: batched det and inverse of the float64 Gram blocks propose
       the adjugate B = det * A^-1.  It is accepted only when
       max|B| * (d * max_m)^2 <= 2^53 and max_m * |det| <= 2^53, so
       that every partial sum of A @ B and of the membership forms
       m_j^T B m_j is an integer of at most 2^53, exact in float64 in
       whatever order BLAS sums, and then only when A @ B == det * I;
    2. kernel: a draw whose float det rounds to 0 is certified singular
       by `_kernel_zero` when one batched float solve proposes an
       integer w != 0 with max|w| * max_m * d <= 2^53 and A @ w == 0;
    3. singular and 4. modular: the draws left open go through rounds of
       one stacked modular Gauss-Jordan (`_inverse_mod`) over every
       (draw, prime) pair of the round.  A draw first takes the fewest
       26-bit primes whose squared product exceeds its exact Hadamard
       product (2 primes for asche72 at rank 18), and is certified
       singular (tier 3) when each of them divides det.  Otherwise
       every prime not dividing det is one membership vote, and the
       draw takes more primes until it has as many votes as the value
       bounds ask for (tier 4);
    5. exact: a draw the prime pool cannot cover, or any draw with
       d * max_m > 2^27, goes through fraction-free integer elimination
       (`_members_exact`, through `linalg.integer_inverse`).

    Every tier writes its answers straight into the rows of the two
    arrays `member_masks` returns; no list of members is built.
    """

    def __init__(self, m_rows: list[list[int]]):
        self.m_rows = m_rows
        self.n = len(m_rows)
        self.diag = [m_rows[i][i] for i in range(self.n)]
        self.max_m = max((abs(x) for row in m_rows for x in row), default=0)
        self._work: dict[int, list[np.ndarray]] = {}  # d -> block arrays
        self._tiers = [0, 0, 0, 0, 0]

    @property
    def tier_counts(self) -> dict[str, int]:
        """Draws decided so far by each tier: float, kernel, singular,
        modular, exact."""
        return dict(zip(
            ("float", "kernel", "singular", "modular", "exact"), self._tiers
        ))

    @cached_property
    def cols(self) -> np.ndarray:
        """cols[j] is column j of M, as float64.  Only the numpy tiers
        read it, on draws with d * max_m <= 2^27, so every entry they
        read is exact."""
        m_f = np.array(self.m_rows, dtype=np.float64).reshape(self.n, self.n)
        return m_f.T.copy()

    def _blocks(self, sub: np.ndarray, index=None, out=None) -> np.ndarray:
        """The float64 Gram blocks A[k] = M[S_k, S_k] of a (draws, d)
        index array (cols[b, a] = M[a, b]), by one flat `np.take`, with
        the flat index in index and the blocks in out when given."""
        index = np.add(sub[:, None, :] * self.n, sub[:, :, None], out=index)
        # mode="raise" would copy out first; `member_masks` checks sub
        return np.take(self.cols, index, out=out, mode="clip")

    def block(self, d: int) -> int:
        """Draws of d lines that one stacked block decides."""
        return max(1, _DRAW_GATHER // max(self.n * d, 1))

    def member_masks(
        self, subsets: Sequence[Sequence[int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(full, mask) of subsets of one size: full[k] tells whether
        subset k has a nonsingular Gram block, and row k of the (draws, n)
        bool mask marks its members.

        Subsets of d lines with d * max_m > 2^27 all go to the exact
        tier.  Otherwise tiers 1 and 2 take the draws `block(d)` at a
        time.  The draws they leave open wait, across blocks, until a
        whole block's worth has gathered; they then go to the residue
        tiers together, and the rest once more at the end, so that no
        residue stack holds more than one block of draws.  An index
        outside 0..n-1 is IndexError.
        """
        # ndmin and the slice give no subsets the shape (0, 0)
        sub = np.array(subsets, dtype=np.intp, ndmin=2)[:len(subsets)]
        if sub.size and not 0 <= sub.min() <= sub.max() < self.n:
            raise IndexError("line index out of range")
        sub.sort(axis=1)
        count, d = sub.shape
        full = np.zeros(count, dtype=bool)
        mask = np.zeros((count, self.n), dtype=bool)
        # an empty draw counts as one line: numpy never reads max_m > 2^27
        if max(d, 1) * self.max_m > 1 << 27:
            self._tiers[4] += count
            for k, subset in enumerate(sub.tolist()):
                full[k] = self._members_exact(subset, mask[k])
            return full, mask
        step = self.block(d)
        left = np.empty(0, dtype=np.intp)
        for k in range(0, count, step):
            open_ = self._members_float(
                sub[k:k + step], full[k:k + step], mask[k:k + step]
            )
            left = np.concatenate([left, k + open_])
            if len(left) >= step:
                self._members_residue(sub, left[:step], full, mask)
                left = left[step:]
        self._members_residue(sub, left, full, mask)
        return full, mask

    # -- tiers 1 and 2: float proposals, exact float64 verification --------

    def _members_float(
        self, sub: np.ndarray, full: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Decide one block into its rows of full and mask, and return
        the draws left open: every draw but those whose float-proposed
        adjugate verifies exactly within the 2^53 budget and those whose
        float det rounds to 0 and that `_kernel_zero` certifies singular."""
        count, d = sub.shape
        open_ = np.ones(count, dtype=bool)
        if d not in self._work:
            shapes = [(d, np.intp)] + [(d, float)] * 2 + [(self.n, float)] * 2
            self._work[d] = [np.empty((self.block(d), d, w), t) for w, t in shapes]
        index, a, at, xs, forms = (w[:count] for w in self._work[d])
        self._blocks(sub, index, a)
        detf = np.linalg.det(a)
        size = np.abs(detf)
        zero = np.flatnonzero(size < 0.5)
        if len(zero):
            az = np.take(a, zero, axis=0, out=at[:len(zero)], mode="clip")
            kernel = zero[_kernel_zero(az, self.max_m)]
            open_[kernel] = False
            self._tiers[1] += len(kernel)
        cap_det = _FLOAT_EXACT // max(self.max_m, 1)
        take = np.flatnonzero((size >= 0.5) & (size < cap_det + 1))
        t = len(take)
        at = np.take(a, take, axis=0, out=at[:t], mode="clip")
        try:
            b = np.linalg.inv(at)
        except np.linalg.LinAlgError:
            return np.flatnonzero(open_)
        dr = np.rint(detf[take])
        b *= dr[:, None, None]
        np.rint(b, out=b)
        # NaN or inf fails the budget; a, free now, takes |B|, A @ B - det*I
        max_b = np.abs(b, out=a[:t]).max(axis=(1, 2), initial=0.0)
        fits = (max_b <= _FLOAT_EXACT // max((d * self.max_m) ** 2, 1)) & (
            np.abs(dr) <= cap_det
        )
        b[~fits] = 0
        check = np.matmul(at, b, out=a[:t])
        check.reshape(t, d * d)[:, ::d + 1] -= dr[:, None]
        exact = fits & ~check.any(axis=(1, 2))
        # xs[k, a, j] = M[j, S_a]
        xs = np.take(self.cols, sub[take], axis=0, out=xs[:t], mode="clip")
        forms = np.matmul(b, xs, out=forms[:t])
        forms *= xs
        hits = forms.sum(axis=1)[exact] == dr[exact, None] * np.diagonal(self.cols)
        take = take[exact]
        mask[take], full[take] = hits, True
        open_[take] = False
        self._tiers[0] += len(take)
        return np.flatnonzero(open_)

    # -- tiers 3 and 4: multi-modular residues -----------------------------

    def _hadamard(self, sub: np.ndarray) -> list[int]:
        """Hadamard's bound prod_i ||a_i||^2 >= det(A)^2 on the Gram block
        A of each draw, as an exact integer.  A squared row norm is at
        most d * max_m^2 <= 2^54 / d, so int64 holds it exactly."""
        a = self._blocks(sub).astype(np.int64)
        return [prod(row) for row in (a * a).sum(axis=2).tolist()]

    def _members_residue(
        self, sub: np.ndarray, left: np.ndarray, full: np.ndarray, mask: np.ndarray
    ) -> None:
        """Decide the draws sub[left] by tiers 3 to 5, into their rows of
        full and mask (left untouched when singular); the draws keep the
        width rule, d * max_m <= 2^27.

        Round by round, every open draw takes its next untried primes,
        and one stacked `_inverse_mod` over the round's (draw, prime)
        pairs gives t and Y = t A^-1 mod p.  A draw with Hadamard bound H
        first takes the first `need` primes, the least count with
        (p_1...p_need)^2 > H: when each of them divides det (t == 0), a
        nonzero det would have det^2 >= (p_1...p_need)^2 > H, so the draw
        is singular (need == 0 is a zero row, singular outright).
        Otherwise every prime with t != 0 is a vote: t / det is a unit,
        and row j survives p iff m_j^T Y m_j == t M_jj (mod p).
        m_j^T adj(A) m_j - M_jj det(A) is an integer of at most value_bits
        bits, so it is zero iff it vanishes modulo primes whose product
        exceeds 2^(value_bits + 2); each pool prime exceeds 2^25, which
        sets the votes a draw wants.  It takes one more prime per vote
        still wanted until it has them.  A draw the pool cannot cover
        goes to `_members_exact`.
        """
        if not len(left):
            return
        draws = sub[left]
        count, d = draws.shape
        need = np.empty(count, dtype=np.intp)
        want = np.zeros(count, dtype=np.intp)
        for k, h in enumerate(self._hadamard(draws)):
            need[k] = bisect_right(_PRIME_SQ, h)
            value_bits = (
                (h.bit_length() + 1) // 2 + 2 * max(self.max_m.bit_length(), 1)
                + 2 * max(d, 1).bit_length() + 4
            )
            if value_bits + 2 <= _PRIME_BITS:
                want[k] = -(-(value_bits + 2) // _PRIME_LOG2)
        tried = np.zeros(count, dtype=np.intp)
        votes = np.zeros(count, dtype=np.intp)  # primes not dividing det
        alive = np.ones((count, self.n), dtype=bool)
        while True:
            # a need past the pool's 24 primes is never met
            singular = (votes == 0) & (tried >= need)
            take = np.where(votes == 0, need - tried, want - votes)
            # a draw the rest of the pool cannot cover stops here
            take[singular | (tried + take > len(_PRIMES26))] = 0
            todo = np.flatnonzero(take > 0)
            if not len(todo):
                break
            # rows: each prime with the draws that try it in this round
            rows = [
                (p, todo[(tried[todo] <= t) & (t < tried[todo] + take[todo])])
                for t, p in enumerate(_PRIMES26)
            ]
            rows = [(p, r) for p, r in rows if len(r)]
            tried += take
            y, unit = _inverse_mod(
                self._blocks(draws[np.concatenate([r for _, r in rows])]),
                np.repeat([p for p, _ in rows], [len(r) for _, r in rows]),
            )
            lo = 0
            for p, r in rows:
                y_p, unit_p = y[lo:lo + len(r)], unit[lo:lo + len(r)]
                lo += len(r)
                good = unit_p != 0  # a prime dividing det is skipped
                votes[r[good]] += 1
                vote = good & (want[r] > 0)
                if vote.any():
                    alive[r[vote]] &= self._forms_mod(
                        draws[r[vote]], y_p[vote], unit_p[vote], p
                    )
        done = (want > 0) & (votes == want)
        mask[left[done]], full[left[done]] = alive[done], True
        exact = ~(singular | done)
        for k in left[exact].tolist():
            full[k] = self._members_exact(sub[k].tolist(), mask[k])
        self._tiers[2] += int(singular.sum())
        self._tiers[3] += int(done.sum())
        self._tiers[4] += int(exact.sum())

    def _forms_mod(
        self, sub: np.ndarray, y: np.ndarray, unit: np.ndarray, p: int
    ) -> np.ndarray:
        """Mask of the rows j with m_j^T Y m_j == unit * M_jj (mod p), for
        each draw of sub with its Y and unit from `_inverse_mod`.

        |Y| < 2^25, and the width rule keeps d * max_m <= 2^27, so every
        partial sum of Y @ M_S: and of the row sums of f * M_S: with
        |f| < 2^25 is an integer of at most 2^52, exact in float64.
        """
        p_inv = 1.0 / p
        x = self.cols[sub]
        f = _centre(y @ x, p, p_inv)
        forms = _centre((f * x).sum(axis=1), p, p_inv)
        target = _centre(unit[:, None] * np.diagonal(self.cols), p, p_inv)
        return _centre(forms - target, p, p_inv) == 0

    # -- tier 5: exact fraction-free elimination ---------------------------

    def _members_exact(self, subset: list[int], out: np.ndarray) -> bool:
        """Mark the members of span(subset) in the (n,) bool row out;
        False, with out untouched, when the subset's Gram block is
        singular."""
        try:
            r, den = linalg.integer_inverse(
                [[self.m_rows[i][j] for j in subset] for i in subset]
            )
        except SingularMatrix:
            return False
        # with R = den * A^-1 the criterion m A^-1 m == diag reads
        # m R m == den * diag, in integers
        for j in range(self.n):
            vec = [self.m_rows[j][k] for k in subset]
            value = sum(v * sum(x * y for x, y in zip(row, vec))
                        for v, row in zip(vec, r))
            out[j] = value == self.diag[j] * den
        return True


class SearchRun(Record):
    """One draw: its subset and closure; rank 0 marks a rank-deficient
    draw, whose closure is not computed and counts as size 0."""

    __slots__ = _fields = (
        "index", "seed", "subset", "closure", "closure_size", "rank",
    )

    @property
    def rank_ok(self) -> bool:
        return self.rank > 0

    def to_dict(self) -> dict:
        return {
            "run": self.index,
            "seed": self.seed,
            "subset": [i + 1 for i in self.subset],
            "closure": [i + 1 for i in self.closure],
            "closure_size": self.closure_size,
            "rank": self.rank,
            "rank_ok": self.rank_ok,
        }


class _RunLog(Sequence):
    """The `SearchRun` of each draw, in run order, built from the search's
    arrays when read; a singular draw has an empty closure row."""

    def __init__(self, rank, master, drawn, mask):
        self.arrays = rank, master, drawn, mask

    def __len__(self) -> int:
        return len(self.arrays[2])

    def __getitem__(self, i):
        rank, master, drawn, mask = self.arrays
        i = range(len(drawn))[i]  # IndexError past either end
        if isinstance(i, range):  # a slice
            return tuple(map(self.__getitem__, i))
        closure = tuple(np.flatnonzero(mask[i]).tolist())
        return SearchRun(i, run_seed(master, i), tuple(drawn[i].tolist()), closure,
                         len(closure), rank if closure else 0)

    def __eq__(self, other):
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


class SearchSummary(Record):
    __slots__ = _fields = (
        "runs", "target_rank", "master_seed", "best", "histogram", "run_log",
    )

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "target_rank": self.target_rank,
            "seed": self.master_seed,
            "best": None if self.best is None else self.best.to_dict(),
            "histogram": {
                str(k): self.histogram[k] for k in sorted(self.histogram)
            },
        }


def span_closure(ls: LineSet, subset: Sequence[int]) -> list[int]:
    """Ascending indices of every line lying in the span of the subset.

    Exact projection criterion: j is in the span iff
    G_jS (G_SS)^(-1) G_Sj == G_jj.  The subset itself is always included.
    Raises RankDeficient when the subset's Gram block is singular, and
    IndexError (`member_masks`) for an index outside 0..n-1.
    """
    idx = list(subset)
    m_rows, _ = linalg.integer_scaled(ls.gram)
    full, mask = SpanEngine(m_rows).member_masks([idx])
    if not full[0]:
        raise RankDeficient(f"Gram block on {len(idx)} lines is singular")
    return np.flatnonzero(mask[0]).tolist()


def random_search(
    ls: LineSet,
    target_rank: int,
    runs: int,
    seed: int,
    progress: Optional[ProgressSink] = None,
) -> SearchSummary:
    """runs independent draws of target_rank lines; summary of closures.

    Deterministic in (ls, target_rank, runs, seed): each run's subset
    comes from its own derived seed.  The closures stay one (runs, n)
    bool mask beside the (runs, target_rank) intp draws, n + 8r bytes
    per run with no ceiling on runs; the mask gives the histogram
    (singular draws at size 0) and the best run, the first of maximal
    closure size; `run_log` builds each `SearchRun` from them when read.
    progress (if given) receives (done, runs) once for each block of
    draws, as each chunk of blocks is decided, ending at (runs, runs);
    runs = 0 reports nothing.  A line set that fails a check of
    `lineset.require_valid` is refused with InvalidLineSet first.
    """
    require_valid(ls)
    if not 1 <= target_rank <= ls.rank:
        raise OutOfRange(
            f"target rank must lie in 1..{ls.rank}, got {target_rank}"
        )
    if runs < 0:
        raise OutOfRange(f"runs must be at least 0, got {runs}")
    seed &= MASK64
    m_rows, _ = linalg.integer_scaled(ls.gram)
    engine = SpanEngine(m_rows)
    block = engine.block(target_rank)
    chunk = block * max(1, _DRAW_CHUNK // (block * ls.n))
    drawn = np.empty((runs, target_rank), dtype=np.intp)
    mask = np.empty((runs, ls.n), dtype=bool)
    for lo in range(0, runs, chunk):
        hi = min(lo + chunk, runs)
        drawn[lo:hi] = _draw_block(seed, lo, hi, ls.n, target_rank)[1]
        mask[lo:hi] = engine.member_masks(drawn[lo:hi])[1]
        if progress is not None:
            for b in range(lo, hi, block):
                progress(min(b + block, hi), runs)
    sizes = mask.sum(axis=1)
    log = _RunLog(target_rank, seed, drawn, mask)
    return SearchSummary(
        runs=runs,
        target_rank=target_rank,
        master_seed=seed,
        best=log[int(np.argmax(sizes))] if runs else None,
        histogram={k: c for k, c in enumerate(np.bincount(sizes).tolist()) if c},
        run_log=log,
    )


def extract_sublineset(ls: LineSet, indices: Sequence[int]) -> LineSet:
    """Principal Gram submatrix as a new LineSet, rank recomputed and all
    invariants re-validated (a failed validation raises ValueError)."""
    sub = ls.restrict(indices)
    report = validate(sub)
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise ValueError(f"extracted line set fails validation: {failed}")
    return sub


def orthogonal_complement(
    ls: LineSet, indices: Sequence[int]
) -> list[tuple[int, ...]]:
    """Primitive integer basis (`linalg.kernel`) of the space orthogonal
    to the coordinate vectors of the indexed lines (the standard basis
    when there are none).  It depends only on their span, so any lines
    with one span give one basis: `search` passes its best draw, not the
    closure.  Requires coordinates that match the Gram matrix
    (`lineset.require_coords`, ValueError otherwise), and raises
    IndexError for an index outside 0..n-1."""
    require_coords(ls)
    idx = list(indices)
    if any(not 0 <= i < ls.n for i in idx):
        raise IndexError("line index out of range")
    dim = len(ls.coords[0]) if ls.coords else 0
    flat = [x for i in idx for x in ls.coords[i]]
    return linalg.kernel(linalg.RatMatrix.from_integers(len(idx), dim, flat, 1))
