"""Exact integer kernels of the saturation pipeline, on Python ints.

Sign-pattern conventions (shared with the saturation module): pattern
index m in [0, 2^(d-1)) maps to epsilon with eps[0] = +1 and, for
position t >= 1, eps[t] = +1 when bit (d-1-t) of m is 0, else -1.
Ascending m is therefore lexicographic order with + before -.  One
serial engine, `enumerate_unit_patterns`, scans all patterns; the tests
keep a block scan and a direct Python-int scan as its oracles.

The pattern scan and `pairwise_rows` (the bilinear forms eps_i^T W eps_j
of the compatibility graph) compute their +-1 forms on packed lanes:
one Python int holds a form per lane, `width` bits apart (`_lanes`),
and each big-int addition adds every lane at once (broadword
arithmetic, Knuth, TAOCP 4A, 7.1.3).  B = d^2 * max|W| bounds every
form, and every lane of a value that is read holds a form plus B, in
[0, 2B] < 2^(width-1), so no lane carries into the next and the lanes
are exact at any width.  A lane equal to a target is found by XOR with
the target in every lane and a zero test on the lanes' top (guard)
bits, read out through `to_bytes`.

Every exact solve here (the candidate system of `scaled_candidate_matrix`)
goes through the fraction-free integer elimination of
`linalg.integer_inverse`; no `Fraction` is built per matrix entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional, Sequence

from . import linalg
from .linalg import RatMatrix

# patterns between two progress reports of the scan
_PROGRESS_STEP = 1 << 16
# a lane's top byte, guard bit set or clear, as a binary digit
_GUARD_DIGIT = bytes.maketrans(b"\x00\x80", b"01")
# binary digits as 0/1 bytes
_DIGIT_BIT = bytes.maketrans(b"01", b"\x00\x01")


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
# packed lanes


def _lanes(w: list[list[int]]) -> tuple[int, int]:
    """(B, width): B = d^2 * max|W| bounds every +-1 form of W, and a
    lane of width bits (those of 2B and a guard bit, in whole bytes)
    holds a form plus B with its guard bit clear."""
    bound = len(w) ** 2 * max((abs(x) for row in w for x in row), default=0)
    return bound, ((2 * bound).bit_length() + 8) // 8 * 8


def _ones(count: int, width: int) -> int:
    """count lanes of width bits that hold 1 each."""
    return ((1 << width * count) - 1) // ((1 << width) - 1)


def _bit_planes(bits: int, width: int) -> list[int]:
    """Lanes l in [0, 2^bits): plane s holds bit (bits-1-s) of l, that
    is 1 where the sign at position s of the patterns l is -1."""
    planes = []
    for s in range(bits):
        run = 1 << (bits - 1 - s)
        planes.append(
            (_ones(run, width) << width * run) * _ones(1 << s, 2 * width * run)
        )
    return planes


def _quadratic(w: list[list[int]], planes: list[int], ones: int) -> int:
    """Lanes of eps^T W eps, where eps_s = 1 - 2 * planes[s] in each
    lane: eps_s eps_t = 1 - 2 (planes[s] ^ planes[t]) lane by lane."""
    total = sum(map(sum, w)) * ones
    for s, p in enumerate(planes):
        for t in range(s + 1, len(planes)):
            total -= 2 * (w[s][t] + w[t][s]) * (p ^ planes[t])
    return total


def enumerate_unit_patterns(
    w: list[list[int]],
    t_target: int,
    progress: Optional[Callable[[int, int], None]] = None,
) -> list[int]:
    """Ascending pattern indices m in [0, 2^(d-1)) with eps^T W eps == t_target.

    Meet in the middle: with b = (d-1)//2 and a = d - b, write
    m = h*2^b + l, where h fixes the first a signs (the first is +1) and
    l the last b.  Then eps^T W eps = q_H[h] + q_L[l] + e_H[h]^T C e_L[l]
    with C = W_HL + W_LH^T.  One int packs the 2^b low halves as lanes,
    and holds B + q_L[l] + sum_i e_H[h]_i R_i[l] with R_i = (C e_L)_i, so
    the high halves, walked in Gray order, cost one addition of +-2 R_i
    each; the lanes equal to B + t_target - q_H[h] are kept, and sorted
    at the end.  progress (if given) receives (done, total) about every
    2^16 patterns and once at the end.
    """
    d = len(w)
    b = (d - 1) // 2
    a = d - b
    total = 1 << (d - 1)
    highs = total >> b
    bound, width = _lanes(w)
    ones, step = _ones(1 << b, width), width // 8
    low_planes = _bit_planes(b, width)
    twice = []
    value = bound * ones + _quadratic([r[a:] for r in w[a:]], low_planes, ones)
    for i in range(a):
        c = [w[i][a + s] + w[a + s][i] for s in range(b)]
        r = sum(c) * ones - 2 * sum(x * p for x, p in zip(c, low_planes))
        value += r
        twice.append(2 * r)
    high_ones = _ones(highs, width)
    q_high = _quadratic([r[:a] for r in w[:a]], [0] + _bit_planes(a - 1, width),
                        high_ones) + bound * high_ones
    # lane h of q_high holds q_H[h] + B, and the lanes of h are matched
    # against B + t_target - q_H[h]
    raw = q_high.to_bytes(highs * step, "little")
    targets = [2 * bound + t_target - int.from_bytes(raw[k:k + step], "little")
               for k in range(0, len(raw), step)]
    guard = ones << (width - 1)
    low = guard - ones
    plus = [True] * a
    kept: list[int] = []
    last = 0
    for g in range(highs):
        if g:
            i = a - (g & -g).bit_length()
            value = value - twice[i] if plus[i] else value + twice[i]
            plus[i] = not plus[i]
        h = g ^ (g >> 1)
        t = targets[h]
        if 0 <= t <= 2 * bound:
            hit = guard ^ (((value ^ t * ones) + low) & guard)
            if hit:
                tops = hit.to_bytes((1 << b) * step, "little")[step - 1::step]
                lane = tops.find(0x80)
                while lane >= 0:
                    kept.append(h << b | lane)
                    lane = tops.find(0x80, lane + 1)
        done = (g + 1) << b
        if (progress is not None and done < total
                and done - last >= _PROGRESS_STEP):
            last = done
            progress(done, total)
    if progress is not None:
        progress(total, total)
    kept.sort()
    return kept


def pairwise_rows(ms: Sequence[int], w: list[list[int]], target: int) -> list[int]:
    """Bitset rows of the exact mask |eps_i^T W eps_j| == target over the
    patterns ms of an integer d x d matrix W: bit j of row i is entry
    [i, j].

    One int packs the K patterns as lanes.  Sign planes E_t (lane j:
    eps_jt) give P_k = sum_t W_kt E_t, and row i holds
    B + sum_k eps_ik P_k, updated from row i-1 by +-2 P_k at each sign
    that differs between the two patterns.  A lane is an edge when it
    equals B + target or B - target.
    """
    d, k = len(w), len(ms)
    bound, width = _lanes(w)
    if not 0 <= target <= bound:
        return [0] * k
    ones, step = _ones(k, width), width // 8
    spec = f"0{d}b"
    digits = "".join([format(m, spec) for m in ms]).encode().translate(_DIGIT_BIT)
    lane = bytearray(k * step)
    signs = []
    for t in range(d):
        lane[::step] = digits[t::d]
        signs.append(ones - 2 * int.from_bytes(lane, "little"))
    forms = [sum(x * e for x, e in zip(row, signs)) for row in w]
    # by_bit[d - t]: 2 P_t, the change of a row when the sign at t flips
    by_bit = [0] + [2 * p for p in reversed(forms)]
    row = bound * ones + sum(forms)
    hi, lo = (bound + target) * ones, (bound - target) * ones
    guard = ones << (width - 1)
    low = guard - ones
    rows = []
    prev = 0
    for m in ms:
        flip = m ^ prev
        while flip:
            bit = flip & -flip
            flip ^= bit
            change = by_bit[bit.bit_length()]
            row = row + change if prev & bit else row - change
        prev = m
        hit = guard ^ (((row ^ hi) + low) & ((row ^ lo) + low) & guard)
        tops = hit.to_bytes(k * step, "big")[::step]
        rows.append(int(tops.translate(_GUARD_DIGIT), 2))
    return rows
