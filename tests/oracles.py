"""Reference implementations the tests compare the library against.

They are deliberately plain: the exact rational determinant and solver
(fraction-free and Gauss-Jordan), dense rational products, and the
vectorized block scan over sign patterns that the meet-in-the-middle
engine replaced.  None of them is used by the library.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

import numpy as np

from eqlines._intops import _LIMB_BASE, _balanced_limbs, _pattern_block
from eqlines.linalg import RatMatrix, _gauss_jordan


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
    cand = np.nonzero((forms[0] - target) % _LIMB_BASE == 0)[0]
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
