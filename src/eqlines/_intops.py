"""Exact integer computation engines.

Everything here produces exact results; the fast paths use numpy int64
with explicit overflow budgets, and every shortcut is either certified
by an exact integer identity before use or replaced by a slower exact
fallback.  Floating point either *proposes* an integer adjugate that
is then verified exactly (a failed verification falls through), or
carries integers below 2^52, where float64 arithmetic is exact (the
residues of `_det_zero_mod`); no tolerance ever decides an answer.

Sign-pattern conventions (shared with the saturation module): pattern
index m in [0, 2^(d-1)) maps to epsilon with eps[0] = +1 and, for
position t >= 1, eps[t] = +1 when bit (d-1-t) of m is 0, else -1.
Ascending m is therefore lexicographic order with + before -.  One
serial engine, `enumerate_unit_patterns`, scans all patterns; the tests
keep a block scan and a direct Python-int scan as its oracles.

Wide integers are split into balanced base-2^40 limbs, a scheme known
only to this module: `_exact_equal` alone decides whether limb forms
equal a target, for the pattern scan and for `pairwise_hits` (the
compatibility graph) alike.

Every exact solve here (the candidate system of `scaled_candidate_matrix`
and the last span tier) goes through the fraction-free integer
elimination of `linalg.integer_inverse`; no `Fraction` is built per
matrix entry.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from .errors import SingularMatrix
from .linalg import RatMatrix

# limb base for exact multi-word int64 arithmetic on +-1 quadratic forms
_LIMB_BASE = 1 << 40
_LIMB_HALF = _LIMB_BASE >> 1

# patterns per block of the sign-pattern scan, and the progress interval
_SCAN_BLOCK = 1 << 14
_PROGRESS_STEP = 1 << 16

# int64 entries of the (draws, n, d) row gather that decides one stacked
# block of span-membership draws; this sizes the block
_DRAW_GATHER = 1 << 16

# 26-bit primes: residues stay below 2^26, so int64 dot products of
# length up to ~2^11 of 29-bit products cannot overflow
_PRIMES26 = (
    67108859, 67108837, 67108819, 67108777, 67108763, 67108757,
    67108753, 67108747, 67108739, 67108729, 67108721, 67108709,
    67108693, 67108669, 67108667, 67108661, 67108649, 67108633,
    67108597, 67108579, 67108529, 67108511, 67108507, 67108493,
)
_PRIME_BITS = sum(p.bit_length() - 1 for p in _PRIMES26)
# _PRIME_SQ[t] = (p_1 * ... * p_t)^2, the square of the first t primes' product
_PRIME_SQ = [prod(_PRIMES26[:t]) ** 2 for t in range(len(_PRIMES26) + 1)]


# --------------------------------------------------------------------------
# scaled candidate system


def scaled_candidate_matrix(
    gram: RatMatrix, basis: Sequence[int], alpha: Fraction
) -> tuple[list[list[int]], int, int]:
    """Integerize V = alpha * inverse(G_B).

    Returns (W, L, T) with W = L*V integral and T = L/alpha integral, so
    that a sign pattern eps has unit norm iff eps^T W eps == T, and two
    unit patterns meet at +-alpha iff eps_i^T W eps_j == +-L.  L is the
    lcm of V's reduced denominators and alpha's numerator.  With
    G_B = M/s, R = D * M^-1 and alpha = a/b, V = N/Q with N = a*s*R and
    Q = b*D, so that lcm is lcm(|Q|/gcd(Q, all N_ij), a).
    """
    m, s = linalg.integer_scaled(gram.submatrix(list(basis), list(basis)))
    r, det = linalg.integer_inverse(m)
    q = alpha.denominator * det
    nums = [[alpha.numerator * s * x for x in row] for row in r]
    scale = lcm(abs(q) // gcd(q, *(x for row in nums for x in row)), alpha.numerator)
    w = [[x * scale // q for x in row] for row in nums]
    t = scale * alpha.denominator // alpha.numerator
    return w, scale, t


# --------------------------------------------------------------------------
# sign-pattern enumeration


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


def _pattern_block(ms: np.ndarray, d: int) -> np.ndarray:
    """Sign-pattern rows (+-1 int64) for a vector of pattern indices."""
    e = np.ones((len(ms), d), dtype=np.int64)
    for t in range(1, d):
        e[:, t] = 1 - 2 * ((ms >> (d - 1 - t)) & 1)
    return e


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


def enumerate_unit_patterns(
    w: list[list[int]],
    t_target: int,
    progress: Optional[Callable[[int, int], None]] = None,
) -> list[int]:
    """Ascending pattern indices m in [0, 2^(d-1)) with eps^T W eps == t_target.

    Meet in the middle: with b = (d-1)//2 and a = d - b, write
    m = h*2^b + l, where h fixes the first a signs (the first is +1) and
    l the last b.  Then eps^T W eps = q_H[h] + q_L[l] + e_H[h]^T C e_L[l]
    with C = W_HL + W_LH^T, so a block of high halves costs one int64
    matmul per limb against P = C E_L^T, which is built once.  Row-major
    order of the (h, l) block is ascending m, so the result needs no sort.

    _exact_equal decides each block (|form| <= d^2 * 2^39 per limb).
    progress (if given) receives (done, total) about every 2^16 patterns
    and once at the end.
    """
    d = len(w)
    b = (d - 1) // 2
    a = d - b
    total = 1 << (d - 1)
    limbs = _balanced_limbs(w)
    e_l = _pattern_block(np.arange(1 << b, dtype=np.int64), b + 1)[:, 1:]
    halves = []
    for wk in limbs:
        q_l = ((e_l @ wk[a:, a:]) * e_l).sum(axis=1)
        p = (wk[:a, a:] + wk[a:, :a].T) @ e_l.T
        halves.append((wk[:a, :a], q_l, p))
    highs = total >> b
    rows = max(1, _SCAN_BLOCK >> b)
    kept: list[int] = []
    last = 0
    for h0 in range(0, highs, rows):
        hs = np.arange(h0, min(h0 + rows, highs), dtype=np.int64)
        e_h = _pattern_block(hs, a)
        forms = [
            (((e_h @ w_hh) * e_h).sum(axis=1)[:, None] + q_l + e_h @ p).ravel()
            for w_hh, q_l, p in halves
        ]
        base = h0 << b
        kept.extend((base + np.flatnonzero(_exact_equal(forms, t_target))).tolist())
        done = base + len(forms[0])
        if (progress is not None and done < total
                and done - last >= _PROGRESS_STEP):
            last = done
            progress(done, total)
    if progress is not None:
        progress(total, total)
    return kept


def pairwise_hits(
    e: np.ndarray, m: list[list[int]], targets: Sequence[int]
) -> list[np.ndarray]:
    """Exact masks |eps_i^T m_j| == t, one per target t, for +-1 rows e
    and integer rows m.

    The forms are computed in row blocks of about _SCAN_BLOCK entries,
    so apart from the boolean masks the memory is O(block) per limb.
    """
    limbs = _balanced_limbs(m)
    hits = [np.zeros((len(e), len(m)), dtype=bool) for _ in targets]
    rows = max(1, _SCAN_BLOCK // max(len(m), 1))
    for r0 in range(0, len(e), rows):
        forms = [e[r0:r0 + rows] @ mk.T for mk in limbs]
        for hit, t in zip(hits, targets):
            hit[r0:r0 + rows] = _exact_equal(forms, t) | _exact_equal(forms, -t)
    return hits


# --------------------------------------------------------------------------
# span membership (exact, three tiers)


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


def _det_zero_mod(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Mask of the matrices of a (k, d, d) float64 stack of integers
    (|entry| < 2^52) whose determinant is 0 modulo their own prime p[k]
    (one 26-bit prime per matrix).

    Fraction-free elimination over the whole stack at once: the pivot of
    a column is its first nonzero entry, swapped to the top, and each
    lower row r becomes pivot*row_r - a_r0*row_0, which scales the
    determinant by a power of the pivot, a unit mod p.  So det == 0 mod p
    iff some column has no nonzero pivot.  Every entry is kept centred,
    r = t - p*rint(t/p) with the quotient estimated through 1/p, so that
    |r| <= p/2 + 2: every product and difference is then an integer below
    2^52, exact in float64, and an entry is zero iff it is 0 mod p.
    """
    p = p.astype(np.float64)[:, None, None]
    p_inv = 1.0 / p
    a = a - p * np.rint(a * p_inv)
    zero = np.zeros(len(a), dtype=bool)
    for _ in range(a.shape[1]):
        piv = np.argmax(a[:, :, 0] != 0, axis=1)
        swap = np.flatnonzero(piv)
        if len(swap):
            a[swap, 0], a[swap, piv[swap]] = a[swap, piv[swap]], a[swap, 0]
        zero |= a[:, 0, 0] == 0
        t = a[:, :1, :1] * a[:, 1:, 1:]
        t -= a[:, 1:, :1] * a[:, :1, 1:]
        a = t - p * np.rint(t * p_inv)
    return zero


class SpanEngine:
    """Reusable exact span-membership tester over one integer Gram matrix.

    Row j belongs to span(subset) iff M_jS (M_SS)^-1 M_Sj == M_jj.
    `members_many` decides a list of subsets of one size in stacked
    blocks of `block(d)` draws, sized so that the (draws, n, d) row
    gather holds about _DRAW_GATHER int64 entries:

    1. float proposal: batched det and inverse of the Gram blocks
       propose the adjugate B = det * A^-1, accepted only when
       A @ B == det * I holds exactly in int64 within per-draw overflow
       budgets; the membership forms are then exact;
    2. modular singularity: for the draws left open, one stacked
       float64 elimination (`_det_zero_mod`) over every (draw, prime)
       pair certifies a draw singular when det == 0 modulo each of the
       fewest 26-bit primes whose squared product exceeds its exact
       Hadamard product (2 primes for asche72 at rank 18);
    3. any other draw goes on its own through residues modulo enough
       primes to cover the value bounds (`_members_modular`), and from
       there to exact fraction-free integer elimination
       (`_members_exact`, through `linalg.integer_inverse`).

    `members(subset)` is `members_many([subset])[0]`.
    """

    def __init__(self, m_rows: list[list[int]]):
        self.m_rows = m_rows
        self.n = len(m_rows)
        self.diag = [m_rows[i][i] for i in range(self.n)]
        self.max_m = max((abs(x) for row in m_rows for x in row), default=0)
        self.small = self.max_m < 2**31
        if self.small:
            self.m_np = np.array(m_rows, dtype=np.int64)
            self.diag_np = np.array(self.diag, dtype=np.int64)
        self._mod_cache: dict[int, np.ndarray] = {}

    def _mod(self, p: int) -> np.ndarray:
        got = self._mod_cache.get(p)
        if got is None:
            if self.small:
                got = self.m_np % p
            else:
                got = np.array(
                    [[x % p for x in row] for row in self.m_rows], dtype=np.int64
                )
            self._mod_cache[p] = got
        return got

    def block(self, d: int) -> int:
        """Draws of d lines that one stacked block decides."""
        return max(1, _DRAW_GATHER // max(self.n * d, 1))

    def members(self, subset: Sequence[int]) -> Optional[list[int]]:
        """Sorted member indices, or None when the subset block is singular."""
        return self.members_many([subset])[0]

    def members_many(
        self, subsets: Sequence[Sequence[int]]
    ) -> list[Optional[list[int]]]:
        """`members` of each subset, in order; the subsets share one size."""
        subs = [sorted(s) for s in subsets]
        if not subs:
            return []
        d = len(subs[0])
        step = self.block(d)
        got: list[Optional[list[int]]] = []
        for k in range(0, len(subs), step):
            got.extend(self._members_block(subs[k:k + step], d))
        return got

    def _members_block(
        self, subs: list[list[int]], d: int
    ) -> list[Optional[list[int]]]:
        sub = np.array(subs, dtype=np.intp).reshape(len(subs), d)
        got = self._members_float(sub) if self.small else [None] * len(subs)
        open_ = [k for k, g in enumerate(got) if g is None]
        if open_:
            singular = self._singular_mod(sub[open_])
            for k, certified in zip(open_, singular.tolist()):
                if not certified:
                    got[k] = self._members_modular(subs[k])
        return got

    # -- tier 1: float proposal, exact integer verification ---------------

    def _members_float(self, sub: np.ndarray) -> list[Optional[list[int]]]:
        """Members of each draw whose float-proposed adjugate verifies
        exactly; None for every other draw."""
        count, d = sub.shape
        got: list[Optional[list[int]]] = [None] * count
        a = self.m_np[sub[:, :, None], sub[:, None, :]]
        detf = np.linalg.det(a.astype(np.float64))
        size = np.abs(detf)
        take = np.flatnonzero(np.isfinite(detf) & (size >= 0.5) & (size < 2.0**62))
        try:
            inv = np.linalg.inv(a[take].astype(np.float64))
        except np.linalg.LinAlgError:
            return got
        dr = np.round(detf[take])
        bf = np.round(inv * dr[:, None, None])
        bf[~np.isfinite(bf)] = 2.0**62
        # budgets: entries of A@B and M_S@B are sums of d terms of
        # max_m*max_b; the quadratic form adds another factor d*max_m;
        # the comparison target is max_m*|det|
        max_b = np.minimum(
            np.abs(bf).max(axis=(1, 2), initial=1.0), 2.0**62
        ).astype(np.int64)
        dr = dr.astype(np.int64)
        fits = (max_b <= (2**62 - 1) // max((d * self.max_m) ** 2, 1)) & (
            np.abs(dr) <= (2**62 - 1) // max(self.max_m, 1)
        )
        b = bf[fits].astype(np.int64)
        take, dr = take[fits], dr[fits]
        exact = (a[take] @ b == dr[:, None, None] * np.eye(d, dtype=np.int64)).all(
            axis=(1, 2)
        )
        b, take, dr = b[exact], take[exact], dr[exact]
        ms = np.moveaxis(self.m_np[:, sub[take]], 1, 0)
        forms = ((ms @ b) * ms).sum(axis=2)
        hits = forms == self.diag_np * dr[:, None]
        for k, hit in zip(take.tolist(), hits):
            got[k] = np.flatnonzero(hit).tolist()
        return got

    # -- tier 2: multi-modular residues ------------------------------------

    def _hadamard(self, sub: np.ndarray) -> list[int]:
        """Hadamard's bound prod_i ||a_i||^2 >= det(A)^2 on the Gram block
        A of each draw, as an exact integer."""
        if self.small and sub.shape[1] * self.max_m**2 < 2**63:
            a = self.m_np[sub[:, :, None], sub[:, None, :]]
            norm_sq = (a * a).sum(axis=2).tolist()
        else:
            norm_sq = [
                [sum(self.m_rows[i][j] ** 2 for j in s) for i in s]
                for s in sub.tolist()
            ]
        return [prod(row) for row in norm_sq]

    def _singular_mod(self, sub: np.ndarray) -> np.ndarray:
        """Mask of the draws certified singular by residues.

        A draw with Hadamard bound H needs the first t primes, t the least
        count with (p_1...p_t)^2 > H: a nonzero det divisible by each of
        them would have det^2 >= (p_1...p_t)^2 > H.  Every (draw, prime)
        pair goes into one stacked `_det_zero_mod`, and a draw is certified
        when det == 0 modulo all of its primes.  Every other draw, and any
        draw whose bound outruns the prime pool, is left False.
        """
        need = np.array(
            [bisect_right(_PRIME_SQ, h) for h in self._hadamard(sub)], dtype=np.intp
        )
        live = need < len(_PRIME_SQ)
        # rows[t]: the live draws that need prime t
        rows = [
            np.flatnonzero(live & (need > t))
            for t in range(max(need[live].tolist(), default=0))
        ]
        if not rows:
            return live & (need == 0)  # a zero row: det == 0 outright
        pairs = np.concatenate(rows)
        primes = np.repeat(_PRIMES26[:len(rows)], [len(r) for r in rows])
        stack = np.concatenate([
            self._mod(p)[sub[r, :, None], sub[r, None, :]]
            for p, r in zip(_PRIMES26, rows)
        ])
        zero = _det_zero_mod(stack.astype(np.float64), primes)
        return live & (np.bincount(pairs[zero], minlength=len(sub)) == need)

    def _members_modular(self, subset: list[int]) -> Optional[list[int]]:
        d = len(subset)
        if d > 1024:
            # int64 dot-product budget of the residue engine
            return self._members_exact(subset)
        det_bits = (self._hadamard(np.array([subset], dtype=np.intp))[0]
                    .bit_length() + 1) // 2
        value_bits = (
            det_bits + 2 * max(self.max_m.bit_length(), 1)
            + 2 * max(d, 1).bit_length() + 4
        )
        need_val = value_bits + 2
        if need_val > _PRIME_BITS:
            return self._members_exact(subset)

        sub = np.array(subset, dtype=np.intp)
        used_bits = 0
        alive: Optional[np.ndarray] = None
        for p in _PRIMES26:
            mp = self._mod(p)
            det_p, inv_p = _det_inverse_mod(mp[np.ix_(sub, sub)], p)
            if inv_p is None:
                continue  # p divides det
            b_p = inv_p * det_p % p
            msp = mp[:, sub]
            forms = ((msp @ b_p % p) * msp).sum(axis=1) % p
            target = mp[np.arange(self.n), np.arange(self.n)] * det_p % p
            ok = forms == target
            alive = ok if alive is None else (alive & ok)
            used_bits += p.bit_length() - 1
            if used_bits >= need_val:
                return np.nonzero(alive)[0].tolist()
        # prime pool exhausted: det is zero, or too few primes kept it
        # nonzero to cover the value bounds
        return self._members_exact(subset)

    # -- tier 3: exact fraction-free elimination ---------------------------

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
