"""Exact rational linear algebra.

A matrix holds integer numerators over one common denominator, and
hands out `fractions.Fraction` entries on demand; no operation here
touches floating point.  Every elimination runs fraction-free on the
numerators (`integer_scaled`): one Gauss-Jordan routine
gives `rank`, `integer_inverse` and `kernel`, and `psd_basis`
keeps its own symmetric elimination, as the PSD test needs diagonal
pivots; on PSD input its pivot rows are also the rank and the greedy
leftmost basis, so a Gram matrix pays for one pass, not three.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from numbers import Integral
from typing import Iterable, Optional, Sequence

from .errors import NotSymmetric, SingularMatrix

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational; no other forms, and
    no zero denominator."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational 'p/q' or 'p': {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class RatMatrix:
    """Immutable dense matrix of rationals: integer numerators ``nums``
    (row-major) over one positive denominator ``den``.

    The form is canonical: ``den`` is the least common denominator of
    the entries, so ``gcd(den, *nums) == 1``, and ``==`` and ``hash``
    compare values whatever route built the matrix.
    """

    __slots__ = ("rows", "cols", "nums", "den")

    def __init__(self, rows: int, cols: int, entries: Iterable[Fraction | int]):
        pairs = []
        for k, x in enumerate(entries):
            if isinstance(x, Fraction):
                pairs.append((x.numerator, x.denominator))
            elif isinstance(x, Integral) and not isinstance(x, bool):
                pairs.append((int(x), 1))
            else:
                raise ValueError(
                    f"entry {k} must be a Fraction or an integer, got {x!r}"
                )
        if len(pairs) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(pairs)}")
        den = lcm(*(d for _, d in pairs))
        self._set(rows, cols, tuple(x * (den // d) for x, d in pairs), den)

    def _set(self, rows: int, cols: int, nums: tuple[int, ...], den: int) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def from_integers(
        cls, rows: int, cols: int, nums: Iterable[int], den: int
    ) -> "RatMatrix":
        """The matrix with entries nums[k] / den (row-major), brought to
        canonical form; den is any nonzero integer."""
        nums = tuple(nums)
        if len(nums) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(nums)}")
        if den == 0:
            raise ValueError("zero denominator")
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = tuple(x // g for x in nums)
        m = object.__new__(cls)
        m._set(rows, cols, nums, den // g)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "RatMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for row in rows:
            if len(row) != nc:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(nr, nc, flat)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return Fraction(self.nums[i * self.cols + j], self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        c = self.cols
        return tuple(Fraction(x, self.den) for x in self.nums[i * c : (i + 1) * c])

    def numerator_of(self, value: Fraction) -> Optional[int]:
        """The integer x with value == x / den, or None when there is none
        (so no entry equals value)."""
        scaled = value * self.den
        return scaled.numerator if scaled.denominator == 1 else None

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        if not all(0 <= i < self.rows for i in row_idx) or not all(
            0 <= j < self.cols for j in col_idx
        ):
            raise IndexError("submatrix index out of range")
        nums, c = self.nums, self.cols
        ents = [nums[i * c + j] for i in row_idx for j in col_idx]
        return RatMatrix.from_integers(len(row_idx), len(col_idx), ents, self.den)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        nums, n = self.nums, self.cols
        return all(
            nums[i * n + j] == nums[j * n + i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, self.nums))

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


def integer_scaled(m: RatMatrix) -> tuple[list[list[int]], int]:
    """Scale a rational matrix to integers: (rows, s) with rows = s*m and
    s the lcm of every entry's denominator.  The rows are fresh lists."""
    c = m.cols
    return [list(m.nums[i * c : (i + 1) * c]) for i in range(m.rows)], m.den


def _fraction_free_rref(a: list[list[int]]) -> tuple[list[int], int]:
    """Reduce integer rows in place to D times their reduced row echelon
    form; returns the pivot columns and D.

    Fraction-free Gauss-Jordan (Nakos, Turner & Williams, SIGSAM Bull.
    1997): with p the new pivot and q the previous one, every other row,
    above the pivot too, becomes (p*row - row[c]*pivot_row) / q.  Each
    division is exact: every entry is then a minor of the pivot rows and
    columns.  At the end every pivot entry equals the last pivot D, +-det
    of the pivot minor (1 when there is no pivot).
    """
    pivots: list[int] = []
    prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        pivots.append(c)
        prev = p
    return pivots, prev


def rank(m: RatMatrix) -> int:
    """Exact rank over the rationals (fraction-free elimination)."""
    return len(_fraction_free_rref(integer_scaled(m)[0])[0])


def integer_inverse(m: list[list[int]]) -> tuple[list[list[int]], int]:
    """(R, D) with D != 0 and R = D * m^-1 for a nonsingular square
    integer matrix m; D is +-det(m), so R is +-adj(m).  Raises
    SingularMatrix otherwise."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    pivots, d = _fraction_free_rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return [row[n:] for row in aug], d


def psd_basis(m: RatMatrix) -> Optional[tuple[int, ...]]:
    """The pivot rows of a symmetric matrix, as row indices in the order
    taken, when it is positive semidefinite; None when it is not;
    NotSymmetric for any other matrix.  Their number is the rank.

    Symmetric fraction-free elimination with diagonal pivots, on the
    upper triangle only: the pivot is the first positive diagonal entry
    of the remaining block, and every other entry becomes
    (p*a_ij - a_ik*a_kj) / q, q the previous pivot, an exact division.
    A negative diagonal entry certifies "not PSD".  Once no positive
    diagonal entry is left, the matrix is PSD exactly when the remaining
    block is zero.  So on PSD input this one pass gives both answers,
    and it stops after rank pivots.

    On a Gram matrix the pivots are the greedy leftmost basis, in order:
    after pivots B the remaining diagonal entry of row i is det(G_BB)
    times G_ii - G_iB G_BB^-1 G_Bi, the squared distance of vector i to
    the span of B, so the first positive one is the first row outside it.
    """
    if m.rows != m.cols or not m.is_symmetric():
        raise NotSymmetric("PSD test requires a symmetric matrix")
    a, _ = integer_scaled(m)
    # u[i] holds row rows[i] of the remaining block from its diagonal on
    u = [row[i:] for i, row in enumerate(a)]
    rows = list(range(m.rows))
    prev = 1
    pivots = []
    while u:
        if any(row[0] < 0 for row in u):
            return None
        k = next((i for i, row in enumerate(u) if row[0] > 0), None)
        if k is None:
            break
        # column k of the block: a_ik = u[i][k - i] above the pivot row,
        # the pivot row itself below it
        col = [u[i].pop(k - i) for i in range(k)]
        prow = u.pop(k)
        p = prow[0]
        col.extend(prow[1:])
        u = [
            [(p * x - f * y) // prev for x, y in zip(row, col[i:])]
            for i, (row, f) in enumerate(zip(u, col))
        ]
        prev = p
        pivots.append(rows.pop(k))
    return None if any(any(row) for row in u) else tuple(pivots)


def kernel(m: RatMatrix) -> list[tuple[int, ...]]:
    """Basis of the right null space, one vector per free column, each
    in primitive integer form: integer entries with gcd 1, positive on
    its free column.  The RREF of the row space fixes it, so matrices
    with one row space have one kernel basis."""
    a, _ = integer_scaled(m)
    pivots, d = _fraction_free_rref(a)
    basis = []
    for fc in [c for c in range(m.cols) if c not in pivots]:
        # a = D * RREF: D times e_fc minus column fc of the RREF
        vec = [0] * m.cols
        vec[fc] = d
        for row, pc in zip(a, pivots):
            vec[pc] = -row[fc]
        g = gcd(*vec) if d > 0 else -gcd(*vec)
        basis.append(tuple(x // g for x in vec))
    return basis
