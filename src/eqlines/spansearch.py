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

Every span decision is exact.  Floating point only *proposes* an
integer adjugate, or an integer kernel vector of a singular block, that
is then verified exactly in float64 on integers of at most 2^53, where
any summation order is exact; the modular tier lifts kernel vectors mod
one prime and checks them in int64.  A failed verification falls
through, and no tolerance ever decides an answer.  One width rule keeps
every integer in range: a draw of d lines reaches numpy only when
d * max|M| <= 2^27, and any wider draw goes to exact integer
elimination.  A valid set has max|M| = q, the angle's denominator
(q <= 7 and d <= 43 on every shipped set).  This is the one module that
loads numpy.
"""

from __future__ import annotations

from functools import cached_property
from math import isqrt
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from ._record import Record
from .errors import NotPSD, OutOfRange, RankDeficient, SingularMatrix
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

# the one prime of the modular tier: residues lie below 2^31, so a
# product of two is below 2^62, exact in int64
_PRIME = 2147483647


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


def _rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, pivots, rank) of a (k, m, c) int64 stack and a prime p < 2^31:
    w[k] is the reduced row echelon form of a[k] mod p, entries in
    [0, p), rank[k] its rank mod p, and pivots[k, i] the pivot column of
    row i for i < rank[k] (c for the zero rows below them).

    Gauss-Jordan over the whole stack at once, a column at a time: the
    pivot is the first nonzero entry at or below row rank, swapped up to
    row rank, and every other row r becomes v*row_r - w_rc*row_rank, v
    the pivot.  Each pivot row is scaled to 1 at the end by one Fermat
    power v^(p-2) mod p.  Every entry lies in [0, p) before a product,
    so every product and difference is below 2^62, exact in int64.
    """
    w = a % p
    k, m, c = w.shape
    lanes, rows = np.arange(k), np.arange(m)
    rank = np.zeros(k, dtype=np.intp)
    pivots = np.full((k, m), c, dtype=np.intp)
    for col in range(c):
        cand = (w[:, :, col] != 0) & (rows >= rank[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        top = np.minimum(rank, m - 1)
        r = np.where(has, np.argmax(cand, axis=1), top)
        row = w[lanes, r]
        w[lanes, r] = w[lanes, top]
        # a lane with no pivot here takes v = 1 and eliminates nothing
        f = np.where(has[:, None], w[:, :, col], 0)
        f[lanes, top] = 0
        w *= np.where(has, row[:, col], 1)[:, None, None]
        w -= f[:, :, None] * row[:, None, :]
        w %= p
        w[lanes, top] = row
        pivots[lanes[has], top[has]] = col
        rank += has
    # v^(p-2) = v^-1 mod p for each pivot v; a zero row takes 1
    unit = np.take_along_axis(w, np.minimum(pivots, c - 1)[:, :, None], axis=2)[..., 0]
    base = np.where(pivots < c, unit, 1)
    inv, e = np.ones_like(base), p - 2
    while e:
        if e & 1:
            inv = inv * base % p
        base = base * base % p
        e >>= 1
    w *= inv[:, :, None]
    w %= p
    return w, pivots, rank


def _kernel_lift(
    w: np.ndarray, pivots: np.ndarray, count: int, p: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """(u, ok): u[k, i] is the primitive integer lift of the kernel
    vector mod p of the RREF w[k] (pivots from `_rref_mod`) at its i-th
    free column f_i, i < count: 1 at f_i, 0 at the other free columns,
    and -w[k, r, f_i] at the pivot column of each pivot row r.

    Each residue lifts by rational reconstruction (Wang 1981): the half
    extended Euclidean algorithm on (p, z) stops at the first remainder
    num <= sqrt(p/2), and then num/den == z (mod p) with den its
    cofactor.  ok[k] is False when a residue of draw k has
    den > sqrt(p/2), or a common denominator would let width * |u| reach
    2^63; where ok holds, a dot product of u with a row whose absolute
    values sum to at most width is exact in int64, each partial sum too.
    """
    k, m, c = w.shape
    is_pivot = np.zeros((k, c + 1), dtype=bool)
    np.put_along_axis(is_pivot, pivots, True, axis=1)
    # the stable sort puts each lane's free columns first, in order
    free = np.argsort(is_pivot[:, :c], axis=1, kind="stable")[:, :count]
    z = np.zeros((k, count, c + 1), dtype=np.int64)
    # zero rows write their zeros into the spare column c
    np.put_along_axis(
        z, np.broadcast_to(pivots[:, None, :], (k, count, m)),
        (p - np.take_along_axis(w, free[:, None, :], axis=2)).transpose(0, 2, 1) % p,
        axis=2,
    )
    np.put_along_axis(z, free[:, :, None], 1, axis=2)
    z = z[:, :, :c]
    bound = isqrt(p // 2)
    r0, r1 = np.full(z.size, p, dtype=np.int64), z.ravel()
    t0, t1 = np.zeros_like(r1), np.ones_like(r1)
    go = np.flatnonzero(r1 > bound)
    while len(go):
        q = r0[go] // r1[go]
        r0[go], r1[go] = r1[go], r0[go] - q * r1[go]
        t0[go], t1[go] = t1[go], t0[go] - q * t1[go]
        go = go[r1[go] > bound]
    num, den = (np.sign(t1) * r1).reshape(z.shape), np.abs(t1).reshape(z.shape)
    ok = (den <= bound).all(axis=(1, 2))
    cap = ((1 << 63) - 1) // (width * bound)
    lcm = np.ones((k, count), dtype=np.int64)
    for i in range(c):
        step = den[:, :, i] // np.gcd(lcm, den[:, :, i])
        fits = lcm <= cap // step
        ok &= fits.all(axis=1)
        lcm = np.where(fits, lcm * step, lcm)
    u = num * (lcm[:, :, None] // den)
    u //= np.maximum(np.gcd.reduce(u, axis=2), 1)[:, :, None]
    return u, ok


class SpanEngine:
    """Reusable exact span-membership tester over one integer Gram matrix.

    m_rows is a positive semidefinite integer Gram matrix M of rank R,
    and basis the indices of R lines whose Gram block is nonsingular
    (`LineSet.basis`).  Row j belongs to span(subset) iff
    M_jS (M_SS)^-1 M_Sj == M_jj.  Its one query, `member_masks`, decides
    subsets of one size into masks (`span_closure` reads one row of
    them).  Tiers 1 and 2 take stacked blocks of `block(d)` draws, sized
    so that the (draws, d, n) float64 gather of the columns M_:S holds
    about _DRAW_GATHER entries.  They fill arrays made once per d,
    `block(d)` draws deep (so an engine serves one thread at a time):
    the Gram blocks, their index and a gathered copy, the column gather
    and the forms.  No other stack of matrices is allocated but what
    det, inv and solve return and the A + eps*I of `_kernel_zero`.  The
    draws they leave open gather across blocks and go to tiers 3 and 4
    a whole block's worth at a time (and once more at the end), so
    every stack stays within one block.  Tiers 1 to 4 take a draw of d
    lines only when d * max_m <= 2^27 (the width rule).  Each draw is
    decided by exactly one of five tiers, counted in `tier_counts`:

    1. float: batched det and inverse of the float64 Gram blocks propose
       the adjugate B = det * A^-1.  It is accepted only when
       max|B| * (d * max_m)^2 <= 2^53 and max_m * |det| <= 2^53, so
       that every partial sum of A @ B and of the membership forms
       m_j^T B m_j is an integer of at most 2^53, exact in float64 in
       whatever order BLAS sums, and then only when A @ B == det * I;
    2. kernel: a draw whose float det rounds to 0 is certified singular
       by `_kernel_zero` when one batched float solve proposes an
       integer w != 0 with max|w| * max_m * d <= 2^53 and A @ w == 0;
    3. singular and 4. modular: `_members_mod` eliminates the Gram
       blocks A modulo one prime p < 2^31 in int64, then the load rows
       T = M[S, basis] of each draw of rank d mod p, and lifts their
       kernel vectors to integers that it checks exactly: a lifted
       z != 0 with A z == 0 certifies a singular draw (tier 3), and the
       lifted u with T u == 0 give the members, the j with
       u . M[basis, j] == 0 for every u (tier 4);
    5. exact: a lift or a check that fails, T of rank below d mod p, a
       product past its int64 budget, or any draw with d * max_m > 2^27,
       goes through fraction-free integer elimination (`_members_exact`,
       through `linalg.integer_inverse`).

    Every tier writes its answers straight into the rows of the two
    arrays `member_masks` returns; no list of members is built.
    """

    def __init__(self, m_rows: list[list[int]], basis: Sequence[int]):
        self.m_rows = m_rows
        self.basis = tuple(basis)
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
        whole block's worth has gathered; they then go to the modular
        tier together, and the rest once more at the end, so that no
        modular stack holds more than one block of draws.  An index
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
                self._members_mod(sub, left[:step], full, mask)
                left = left[step:]
        self._members_mod(sub, left, full, mask)
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

    # -- tiers 3 and 4: one prime, lifted and checked exactly -------------

    def _members_mod(
        self, sub: np.ndarray, left: np.ndarray, full: np.ndarray, mask: np.ndarray
    ) -> None:
        """Decide the draws sub[left] by tiers 3 to 5, into their rows of
        full and mask (left untouched when singular); the draws keep the
        width rule, d * max_m <= 2^27.

        A = M_SS is eliminated mod p = `_PRIME` first.  Below rank d mod
        p, the kernel vector at the first free column of its RREF lifts
        to an integer z != 0, and A z == 0, checked exactly, proves the
        draw singular.  At rank d mod p, det A != 0, and T = C_S^T, with
        C = M[basis, :], is eliminated next: rank_p(T) <= rank(T) <= d,
        so rank d mod p proves rank d.  Each of its R - d lifted kernel
        vectors u is 0 at the other free columns and not at its own, so
        once T u == 0 is checked exactly, they span ker T.  basis is a
        basis of the PSD M, so C maps the lines injectively and linearly,
        and j lies in span(S) iff u . C_j == 0 for every u (every j when
        d == R).  `_kernel_lift` keeps the checks and the u . C_j exact in
        int64.  Any other draw goes to `_members_exact`.
        """
        if not len(left):
            return
        draws = sub[left]
        count, d = draws.shape
        rank_b = len(self.basis)
        # the rows of A, T and C sum to at most width in absolute value
        width = max(d, rank_b, 1) * max(self.max_m, 1)
        a = self._blocks(draws).astype(np.int64)
        w, pivots, rank = _rref_mod(a, _PRIME)
        short = np.flatnonzero(rank < d)
        z, ok = _kernel_lift(w[short], pivots[short], 1, _PRIME, width)
        ok &= ~np.matmul(a[short], z.transpose(0, 2, 1)).any(axis=(1, 2))
        singular = short[ok]
        done = np.flatnonzero(rank == d)
        if len(done):
            # the load rows C = M[basis, :], exact under the width rule
            c = self.cols[list(self.basis)].astype(np.int64)
            t = c[:, draws[done]].transpose(1, 2, 0)
            w, pivots, rank = _rref_mod(t, _PRIME)
            keep = rank == d
            done, t = done[keep], t[keep]
            u, ok = _kernel_lift(w[keep], pivots[keep], rank_b - d, _PRIME, width)
            ok &= ~np.matmul(t, u.transpose(0, 2, 1)).any(axis=(1, 2))
            done = done[ok]
            hits = ~np.matmul(u[ok], c).any(axis=1)
            mask[left[done]], full[left[done]] = hits, True
        exact = np.ones(count, dtype=bool)
        exact[singular] = exact[done] = False
        for k in left[exact].tolist():
            full[k] = self._members_exact(sub[k].tolist(), mask[k])
        self._tiers[2] += len(singular)
        self._tiers[3] += len(done)
        self._tiers[4] += int(exact.sum())

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
    Raises NotPSD when the Gram matrix is not positive semidefinite (it
    has no `LineSet.basis`), RankDeficient when the subset's Gram block
    is singular, and IndexError (`member_masks`) for an index outside
    0..n-1.
    """
    idx = list(subset)
    if ls.basis is None:
        raise NotPSD("span closure requires a positive semidefinite Gram matrix")
    m_rows, _ = linalg.integer_scaled(ls.gram)
    full, mask = SpanEngine(m_rows, ls.basis).member_masks([idx])
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
    engine = SpanEngine(m_rows, ls.basis)
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
