"""Exact rational linear algebra.

All arithmetic uses arbitrary-precision rationals (`fractions.Fraction`);
no operation in this module ever touches floating point.  Rank and the
positive-semidefiniteness test run fraction-free (Bareiss-style) on
integer-scaled copies to keep intermediate values as single big integers
instead of fraction pairs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import NotSymmetric, SingularMatrix

Rational = Fraction


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational; no other forms."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational 'p/q' or 'p': {text!r}")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class RatMatrix:
    """Immutable dense matrix of rationals, stored row-major."""

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
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "RatMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for row in rows:
            if len(row) != nc:
                raise ValueError("ragged rows")
            flat.extend(Fraction(x) for x in row)
        return cls(nr, nc, flat)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        ents = [self[i, j] for i in row_idx for j in col_idx]
        return RatMatrix(len(row_idx), len(col_idx), ents)

    def matvec(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(
            sum(a * b for a, b in zip(self.row(i), vec)) for i in range(self.rows)
        )

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
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


def _integer_rows(m: RatMatrix) -> list[list[int]]:
    # scale each row by the lcm of its denominators; preserves rank
    out = []
    for i in range(m.rows):
        row = m.row(i)
        den = 1
        for x in row:
            den = lcm(den, x.denominator)
        out.append([int(x * den) for x in row])
    return out


def rank(m: RatMatrix) -> int:
    """Exact rank over the rationals (fraction-free elimination)."""
    a = _integer_rows(m)
    nr, nc = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pivot = a[r][c]
        # every row below must be updated, even with a zero multiplier:
        # exact divisibility of later steps needs the pivot/prev scaling
        for i in range(r + 1, nr):
            fac = a[i][c]
            arow, rrow = a[i], a[r]
            for j in range(c + 1, nc):
                arow[j] = (arow[j] * pivot - fac * rrow[j]) // prev
            arow[c] = 0
        prev = pivot
        r += 1
        if r == nr:
            break
    return r


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


def inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse of a nonsingular square matrix."""
    if a.rows != a.cols:
        raise ValueError("inverse requires a square matrix")
    n = a.rows
    aug = [
        list(a.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)
    ]
    _gauss_jordan(aug, n)
    return RatMatrix(n, n, [x for row in aug for x in row[n:]])


def is_psd(m: RatMatrix) -> bool:
    """Exact positive-semidefiniteness test.

    Symmetric fraction-free elimination with diagonal pivoting: any
    negative diagonal entry in a remaining block certifies "not PSD";
    if the remaining diagonal is all zero the block itself must be zero.
    """
    if m.rows != m.cols or not m.is_symmetric():
        raise NotSymmetric("PSD test requires a symmetric matrix")
    n = m.rows
    den = 1
    for x in m.entries:
        den = lcm(den, x.denominator)
    a = [[int(x * den) for x in m.row(i)] for i in range(n)]
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


def kernel(m: RatMatrix) -> list[tuple[Fraction, ...]]:
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
