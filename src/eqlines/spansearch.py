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
stream.  `SpanEngine.members_many` then decides the chunk in stacked
numpy, block by block, with the draws the float tiers leave open
gathered across the chunk's blocks.

Every span decision is exact.  Floating point either *proposes* an
integer adjugate, or an integer kernel vector of a singular block, that
is then verified exactly (a failed verification falls through), or
carries integers of at most 2^53, where float64 arithmetic is exact in
any summation order (the verifications themselves, and the centred
residues of `_inverse_mod`); no tolerance ever decides an answer.  This
is the one module that loads numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from math import prod
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from ._record import Record
from .errors import OutOfRange, RankDeficient, SingularMatrix
from .lineset import LineSet, _coords_check, require_valid, validate

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
# the fractional part of the golden ratio: the probe of `_kernel_zero`
# has entries 1 + frac(k * _PHI), distinct for every k
_PHI = 0.6180339887498949
# digit base of the residues split by `SpanEngine._forms_mod`
_DIGIT = 1 << 13

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


def _nonzero_rows(hits: np.ndarray) -> list[list[int]]:
    """The column indices of the True entries of each row of a 2-D mask,
    from one `np.nonzero`."""
    cols = np.nonzero(hits)[1].tolist()
    ends = np.cumsum(hits.sum(axis=1)).tolist()
    return [cols[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _kernel_zero(a: np.ndarray, max_m: int) -> np.ndarray:
    """Mask of the matrices of a (k, d, d) float64 stack of integers
    (|entry| <= max_m) certified singular by an integer kernel vector.

    One batched float solve of (A + eps*I) x = probe, with eps =
    1e-12 * max_m and the fixed probe 1 + frac(k * phi), proposes x; for
    a singular A the kernel part of x, of order 1/eps, swamps the rest.
    Dividing x by its smallest entry above 2^-20 of its largest, and
    rounding, gives an integer w.  A matrix is certified only when
    w != 0, max|w| * max_m * d <= 2^53, so that every partial sum of
    A @ w is an integer of at most 2^53, exact in float64 in whatever
    order BLAS sums, and A @ w == 0.  A failed solve certifies nothing.
    """
    k, d = a.shape[:2]
    probe = 1.0 + np.arange(1, d + 1) * _PHI % 1.0
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
    `members_many` decides a list of subsets of one size.  Tiers 1 and
    2 take stacked blocks of `block(d)` draws, sized so that the
    (draws, d, n) float64 gather of the columns M_:S holds about
    _DRAW_GATHER entries.  The draws they leave open gather across
    blocks and go to tiers 3 and 4 a whole block's worth at a time (and
    once more at the end), so every stack stays within one block.  Each
    draw is decided by exactly one of five tiers, counted in
    `tier_counts`:

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
    5. exact: a draw the prime pool cannot cover goes through
       fraction-free integer elimination (`_members_exact`, through
       `linalg.integer_inverse`).

    `members(subset)` is `members_many([subset])[0]`.
    """

    def __init__(self, m_rows: list[list[int]]):
        self.m_rows = m_rows
        self.n = len(m_rows)
        self.diag = [m_rows[i][i] for i in range(self.n)]
        self.max_m = max((abs(x) for row in m_rows for x in row), default=0)
        self.small = self.max_m < 2**31
        if self.small:
            # cols[j] is column j of M; every entry is exact in float64
            m_f = np.array(m_rows, dtype=np.float64).reshape(self.n, self.n)
            self.cols = m_f.T.copy()
        self._mod_cache: dict[int, np.ndarray] = {}
        self._tiers = [0, 0, 0, 0, 0]

    @property
    def tier_counts(self) -> dict[str, int]:
        """Draws decided so far by each tier: float, kernel, singular,
        modular, exact."""
        return dict(zip(
            ("float", "kernel", "singular", "modular", "exact"), self._tiers
        ))

    def _mod(self, p: int) -> np.ndarray:
        """The residues M mod p in [0, p), as float64."""
        got = self._mod_cache.get(p)
        if got is None:
            if self.small:
                got = self.cols.T % p
            else:
                got = np.array(
                    [[x % p for x in row] for row in self.m_rows], dtype=np.float64
                )
            self._mod_cache[p] = got
        return got

    def _blocks(self, sub: np.ndarray) -> np.ndarray:
        """The float64 Gram blocks A[k] = M[S_k, S_k] of a (draws, d)
        index array (cols[b, a] = M[a, b]), by one flat `np.take`."""
        return np.take(self.cols, sub[:, None, :] * self.n + sub[:, :, None])

    def block(self, d: int) -> int:
        """Draws of d lines that one stacked block decides."""
        return max(1, _DRAW_GATHER // max(self.n * d, 1))

    def members(self, subset: Sequence[int]) -> Optional[list[int]]:
        """Sorted member indices, or None when the subset block is singular."""
        return self.members_many([subset])[0]

    def members_many(
        self, subsets: Sequence[Sequence[int]]
    ) -> list[Optional[list[int]]]:
        """`members` of each subset, in order; the subsets share one size.

        Tiers 1 and 2 take the draws `block(d)` at a time.  The draws
        they leave open wait, across blocks, until a whole block's worth
        has gathered; they then go to the residue tiers together, and
        the rest once more at the end, so that no residue stack holds
        more than one block of draws.
        """
        if len(subsets) == 0:
            return []
        sub = np.array(subsets, dtype=np.intp)
        sub.sort(axis=1)
        count, d = sub.shape
        step = self.block(d)
        got: list[Optional[list[int]]] = [None] * count
        left = np.empty(0, dtype=np.intp)
        for k in range(0, count, step):
            if self.small:
                got[k:k + step], open_ = self._members_float(sub[k:k + step])
            else:
                open_ = np.arange(min(step, count - k))
            left = np.concatenate([left, k + open_])
            if len(left) >= step:
                self._members_residue(sub, left[:step], got)
                left = left[step:]
        self._members_residue(sub, left, got)
        return got

    # -- tiers 1 and 2: float proposals, exact float64 verification --------

    def _members_float(
        self, sub: np.ndarray
    ) -> tuple[list[Optional[list[int]]], np.ndarray]:
        """(got, open) for one block: got holds the members of each draw
        whose float-proposed adjugate verifies exactly within the 2^53
        budget, and None for every other draw; open lists the draws
        left undecided, which excludes those and the draws whose float
        det rounds to 0 and that `_kernel_zero` certifies singular."""
        count, d = sub.shape
        got: list[Optional[list[int]]] = [None] * count
        open_ = np.ones(count, dtype=bool)
        a = self._blocks(sub)
        detf = np.linalg.det(a)
        size = np.abs(detf)
        zero = np.flatnonzero(size < 0.5)
        if len(zero):
            kernel = zero[_kernel_zero(a[zero], self.max_m)]
            open_[kernel] = False
            self._tiers[1] += len(kernel)
        cap_det = _FLOAT_EXACT // max(self.max_m, 1)
        take = np.flatnonzero((size >= 0.5) & (size < cap_det + 1))
        try:
            inv = np.linalg.inv(a[take])
        except np.linalg.LinAlgError:
            return got, np.flatnonzero(open_)
        dr = np.rint(detf[take])
        b = np.rint(inv * dr[:, None, None])
        # a NaN or infinite proposal fails the budget comparison
        max_b = np.abs(b).max(axis=(1, 2), initial=0.0)
        fits = (max_b <= _FLOAT_EXACT // max((d * self.max_m) ** 2, 1)) & (
            np.abs(dr) <= cap_det
        )
        b, take, dr = b[fits], take[fits], dr[fits]
        exact = (a[take] @ b == dr[:, None, None] * np.eye(d)).all(axis=(1, 2))
        b, take, dr = b[exact], take[exact], dr[exact]
        xs = self.cols[sub[take]]  # xs[k, a, j] = M[j, S_a]
        forms = b @ xs
        forms *= xs
        forms = forms.sum(axis=1)
        hits = forms == dr[:, None] * np.diagonal(self.cols)
        for k, members in zip(take.tolist(), _nonzero_rows(hits)):
            got[k] = members
        open_[take] = False
        self._tiers[0] += len(take)
        return got, np.flatnonzero(open_)

    # -- tiers 3 and 4: multi-modular residues -----------------------------

    def _hadamard(self, sub: np.ndarray) -> list[int]:
        """Hadamard's bound prod_i ||a_i||^2 >= det(A)^2 on the Gram block
        A of each draw, as an exact integer."""
        if self.small and sub.shape[1] * self.max_m**2 <= _FLOAT_EXACT:
            a = self._blocks(sub)
            norm_sq = (a * a).sum(axis=2).astype(np.int64).tolist()
        else:
            norm_sq = [
                [sum(self.m_rows[i][j] ** 2 for j in s) for i in s]
                for s in sub.tolist()
            ]
        return [prod(row) for row in norm_sq]

    def _members_residue(
        self, sub: np.ndarray, left: np.ndarray, got: list[Optional[list[int]]]
    ) -> None:
        """Decide the draws sub[left] by tiers 3 to 5, into got.

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
        still wanted until it has them.  A draw the pool cannot cover,
        or with d > 1024, goes to `_members_exact`.
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
            # d <= 1024 keeps every float64 form of `_forms_mod` in 2^52
            if d <= 1024 and value_bits + 2 <= _PRIME_BITS:
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
                np.concatenate([
                    self._mod(p)[draws[r, :, None], draws[r, None, :]]
                    for p, r in rows
                ]),
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
        for k, members in zip(left[done].tolist(), _nonzero_rows(alive[done])):
            got[k] = members
        exact = ~(singular | done)
        for k in left[exact].tolist():
            got[k] = self._members_exact(sub[k].tolist())
        self._tiers[2] += int(singular.sum())
        self._tiers[3] += int(done.sum())
        self._tiers[4] += int(exact.sum())

    def _forms_mod(
        self, sub: np.ndarray, y: np.ndarray, unit: np.ndarray, p: int
    ) -> np.ndarray:
        """Mask of the rows j with m_j^T Y m_j == unit * M_jj (mod p), for
        each draw of sub with its Y and unit from `_inverse_mod`.

        |Y| < 2^25, so a product Y @ x, or a row sum of f * x with
        |f| < 2^25, stays within 2^52 when d * max|x| <= 2^27.  The
        columns M_:S are such an x when d * max_m <= 2^27; otherwise
        their centred residues (below 2^25) go in as two 13-bit digits,
        each such an x for d <= 1024.
        """
        p_inv = 1.0 / p
        if self.small and sub.shape[1] * self.max_m <= 1 << 27:
            src = self.cols
            digits = [src[sub]]
        else:
            src = _centre(self._mod(p).T, p, p_inv)
            xs = src[sub]
            high = np.rint(xs / _DIGIT)
            digits = [high, xs - _DIGIT * high]
        f = 0.0
        for x in digits:
            f = _centre(f * _DIGIT + y @ x, p, p_inv)
        forms = 0.0
        for x in digits:
            forms = _centre(forms * _DIGIT + (f * x).sum(axis=1), p, p_inv)
        target = _centre(unit[:, None] * np.diagonal(src), p, p_inv)
        return _centre(forms - target, p, p_inv) == 0

    # -- tier 5: exact fraction-free elimination ---------------------------

    def _members_exact(self, subset: list[int]) -> Optional[list[int]]:
        try:
            r, den = linalg.integer_inverse(
                [[self.m_rows[i][j] for j in subset] for i in subset]
            )
        except SingularMatrix:
            return None
        # with R = den * A^-1 the criterion m A^-1 m == diag reads
        # m R m == den * diag, in integers
        members = []
        for j in range(self.n):
            vec = [self.m_rows[j][k] for k in subset]
            value = sum(v * sum(x * y for x, y in zip(row, vec))
                        for v, row in zip(vec, r))
            if value == self.diag[j] * den:
                members.append(j)
        return members


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
    Raises RankDeficient when the subset's Gram block is singular.
    """
    idx = [int(i) for i in subset]
    if any(not 0 <= i < ls.n for i in idx):
        raise IndexError("line index out of range")
    m_rows, _ = linalg.integer_scaled(ls.gram)
    got = SpanEngine(m_rows).members(sorted(idx))
    if got is None:
        raise RankDeficient(
            f"Gram block on {len(idx)} lines is singular"
        )
    return got


def random_search(
    ls: LineSet,
    target_rank: int,
    runs: int,
    seed: int,
    progress: Optional[ProgressSink] = None,
) -> SearchSummary:
    """runs independent draws of target_rank lines; summary of closures.

    Deterministic in (ls, target_rank, runs, seed): each run's subset
    comes from its own derived seed, results merge in run order, and the
    best run is the smallest-index run of maximal closure size.  Draws
    with singular Gram blocks are recorded at histogram size 0.
    progress (if given) receives (done, runs) once for each block of
    draws, as each chunk of blocks is logged, ending at (runs, runs);
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
    log: list[SearchRun] = []
    for lo in range(0, runs, chunk):
        seeds, drawn = _draw_block(
            seed, lo, min(lo + chunk, runs), ls.n, target_rank
        )
        got = engine.members_many(drawn)
        for b in range(0, len(got), block):
            for s, subset, members in zip(
                seeds[b:b + block], drawn[b:b + block].tolist(), got[b:b + block]
            ):
                closure = () if members is None else tuple(members)
                log.append(SearchRun(
                    len(log), s, tuple(subset), closure, len(closure),
                    0 if members is None else target_rank,
                ))
            if progress is not None:
                progress(len(log), runs)

    histogram: dict[int, int] = {}
    best: Optional[SearchRun] = None
    for run in log:
        histogram[run.closure_size] = histogram.get(run.closure_size, 0) + 1
        if best is None or run.closure_size > best.closure_size:
            best = run
    return SearchSummary(
        runs=runs,
        target_rank=target_rank,
        master_seed=seed,
        best=best,
        histogram=histogram,
        run_log=tuple(log),
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
    """Primitive integer basis of the space orthogonal to the coordinate
    vectors of the indexed lines (the standard basis when there are
    none).  Requires a coordinate-carrying set whose coordinates match
    its Gram matrix (`lineset._coords_check`; ValueError naming the
    first failing pair otherwise), and raises IndexError for an index
    outside 0..n-1."""
    if ls.coords is None:
        raise ValueError("line set carries no coordinate vectors")
    idx = list(indices)
    if any(not 0 <= i < ls.n for i in idx):
        raise IndexError("line index out of range")
    check = _coords_check(ls)
    if not check.passed:
        raise ValueError(f"line set fails {check.name} ({check.detail})")
    dim = len(ls.coords[0]) if ls.coords else 0
    flat = [x for i in idx for x in ls.coords[i]]
    kernel = linalg.kernel(linalg.RatMatrix.from_integers(len(idx), dim, flat, 1))
    return [tuple(int(x) for x in vec) for vec in kernel]

