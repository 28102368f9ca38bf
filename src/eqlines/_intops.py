"""Exact integer computation engines.

Everything here produces exact results; the fast paths use numpy int64
with explicit overflow budgets, and every shortcut is either certified
by an exact integer identity before use or replaced by a slower exact
fallback.  Floating point appears only to *propose* an integer adjugate
that is then verified exactly; a failed verification falls through, so
no tolerance ever decides an answer.

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
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import lcm
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

# 26-bit primes: residues stay below 2^26, so int64 dot products of
# length up to ~2^11 of 29-bit products cannot overflow
_PRIMES26 = (
    67108859, 67108837, 67108819, 67108777, 67108763, 67108757,
    67108753, 67108747, 67108739, 67108729, 67108721, 67108709,
    67108693, 67108669, 67108667, 67108661, 67108649, 67108633,
    67108597, 67108579, 67108529, 67108511, 67108507, 67108493,
)


# --------------------------------------------------------------------------
# worker processes


def worker_count(threads: int, jobs: int) -> int:
    """Worker processes for `jobs` independent jobs under a cap of
    `threads`: never more than the CPUs this process may run on or than
    the jobs, and at least 1, so no input can start an unbounded pool."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(threads, cpus, jobs))


# --------------------------------------------------------------------------
# scaled candidate system


def scaled_candidate_matrix(
    gram: RatMatrix, basis: Sequence[int], alpha: Fraction
) -> tuple[list[list[int]], int, int]:
    """Integerize V = alpha * inverse(G_B).

    Returns (W, L, T) with W = L*V integral and T = L/alpha integral, so
    that a sign pattern eps has unit norm iff eps^T W eps == T, and two
    unit patterns meet at +-alpha iff eps_i^T W eps_j == +-L.
    """
    gb = gram.submatrix(list(basis), list(basis))
    inv = linalg.inverse(gb)
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


def integer_gram(gram: RatMatrix) -> tuple[list[list[int]], int]:
    """Scale a rational matrix to integers: returns (M, scale), M = scale*G."""
    scale = 1
    for x in gram.entries:
        scale = lcm(scale, x.denominator)
    rows = [[int(x * scale) for x in gram.row(i)] for i in range(gram.rows)]
    return rows, scale


def _hadamard_bits(a: list[list[int]]) -> int:
    """Upper bound on bits of |det| via the Hadamard row-norm product."""
    total = 0
    for row in a:
        norm_sq = sum(x * x for x in row)
        if norm_sq == 0:
            return 0
        total += (norm_sq.bit_length() + 1) // 2 + 1
    return total


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


class SpanEngine:
    """Reusable exact span-membership tester over one integer Gram matrix.

    Row j belongs to span(subset) iff M_jS (M_SS)^-1 M_Sj == M_jj; the
    engine decides this exactly via, in order of preference: a float-
    proposed, integer-verified adjugate; residues modulo enough 26-bit
    primes to cover the value bounds; exact rational elimination.
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
            return self._members_exact(subset)
        a_rows = [[self.m_rows[i][j] for j in subset] for i in subset]
        det_bits = _hadamard_bits(a_rows)
        value_bits = (
            det_bits + 2 * max(self.max_m.bit_length(), 1)
            + 2 * max(d, 1).bit_length() + 4
        )
        need_det = det_bits + 2
        need_val = value_bits + 2
        if need_val > sum(p.bit_length() - 1 for p in _PRIMES26):
            return self._members_exact(subset)

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
        return self._members_exact(subset)

    # -- tier 3: exact rational elimination --------------------------------

    def _members_exact(self, subset: list[int]) -> Optional[list[int]]:
        a = RatMatrix.from_rows(
            [[Fraction(self.m_rows[i][j]) for j in subset] for i in subset]
        )
        try:
            inv = linalg.inverse(a)
        except SingularMatrix:
            return None
        members = []
        for j in range(self.n):
            vec = [Fraction(self.m_rows[j][k]) for k in subset]
            inner = inv.matvec(vec)
            value = sum(v * x for v, x in zip(vec, inner))
            if value == self.diag[j]:
                members.append(j)
        return members

