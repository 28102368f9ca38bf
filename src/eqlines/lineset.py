"""Equiangular line sets as exact rational Gram matrices.

A LineSet is the package's central value: n lines with common angle
arccos(alpha), stored as the n x n Gram matrix of unit representatives.
Optionally a LineSet carries the integer coordinate vectors it was built
from (all with one shared squared norm); searches use those to report
orthogonal complements.

Indexing: the library API is 0-based throughout.  The CLI and the JSON
files it reads and writes use 1-based indices for human readability.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from . import linalg
from ._record import Record
from .errors import HypothesisViolated, InvalidLineSet, NotSymmetric, OutOfRange
from .linalg import RatMatrix, format_rational, parse_rational


class SignMatrix(Record):
    """Symmetric n x n sign pattern: 0 on the diagonal, +-1 elsewhere."""

    __slots__ = _fields = ("n", "signs")

    def __init__(self, n: int, signs: tuple[tuple[int, ...], ...]):
        if len(signs) != n or any(len(r) != n for r in signs):
            raise ValueError("sign matrix has wrong shape")
        for i in range(n):
            if signs[i][i] != 0:
                raise ValueError(f"diagonal entry ({i},{i}) must be 0")
            for j in range(i + 1, n):
                if signs[i][j] not in (-1, 1):
                    raise ValueError(f"off-diagonal entry ({i},{j}) must be +-1")
                if signs[i][j] != signs[j][i]:
                    raise ValueError(f"sign matrix not symmetric at ({i},{j})")
        super().__init__(n, signs)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "SignMatrix":
        """Sign matrix from integer rows; other entry types (float,
        string, bool) are rejected, never converted."""
        for row in rows:
            for x in row:
                if type(x) is not int:
                    raise ValueError(f"sign entries must be integers, got {x!r}")
        return cls(len(rows), tuple(tuple(r) for r in rows))


def _rank_and_basis(gram: RatMatrix) -> tuple[int, Optional[tuple[int, ...]], bool]:
    """(rank, basis, symmetric) of a square matrix, basis from
    `linalg.psd_basis` (None when it is not PSD or not symmetric).

    One symmetric elimination gives the rank and the basis of a PSD
    matrix, the case of every valid line set; only a matrix it rejects
    pays for the Gauss-Jordan `linalg.rank` as well.
    """
    try:
        basis = linalg.psd_basis(gram)
    except NotSymmetric:
        return linalg.rank(gram), None, False
    if basis is None:
        return linalg.rank(gram), None, True
    return len(basis), basis, True


class LineSet(Record):
    """n equiangular lines with angle alpha, as an exact Gram matrix."""

    _fields = ("n", "angle", "gram", "rank", "coords", "coords_norm_sq")
    _defaults = (None, None)
    # _basis caches `basis` and _coords_ok a passing `_coords_check`,
    # each unset until it is known; they take no part in ==, hash or repr
    __slots__ = _fields + ("_basis", "_coords_ok")

    @classmethod
    def from_gram(
        cls,
        gram: RatMatrix,
        angle: Fraction,
        coords: Optional[Sequence[Sequence[int]]] = None,
        coords_norm_sq: Optional[int] = None,
    ) -> "LineSet":
        if gram.rows != gram.cols:
            raise ValueError("Gram matrix must be square")
        if not 0 < angle < 1:
            raise ValueError(f"angle must lie in (0, 1), got {angle}")
        fixed = None
        if coords is not None:
            fixed = tuple(tuple(row) for row in coords)
            if len(fixed) != gram.rows:
                raise ValueError("one coordinate row per line required")
            for row in fixed:
                if len(row) != len(fixed[0]):
                    raise ValueError('"coords": rows differ in length')
                for x in row:
                    if type(x) is not int:
                        raise ValueError(
                            f'"coords": entries must be integers, got {x!r}'
                        )
        if coords_norm_sq is not None and type(coords_norm_sq) is not int:
            raise ValueError(
                f'"coords_norm_sq" must be an integer, got {coords_norm_sq!r}'
            )
        rank, basis, symmetric = _rank_and_basis(gram)
        ls = cls(
            n=gram.rows,
            angle=Fraction(angle),
            gram=gram,
            rank=rank,
            coords=fixed,
            coords_norm_sq=coords_norm_sq,
        )
        if symmetric:
            # the elimination that gave the rank found the basis: cache it
            object.__setattr__(ls, "_basis", basis)
        return ls

    @property
    def basis(self) -> Optional[tuple[int, ...]]:
        """Each line, in order, outside the span of the lines kept before
        it (`linalg.psd_basis`); None when the Gram matrix is not PSD.
        Computed once."""
        try:
            return self._basis
        except AttributeError:
            basis = linalg.psd_basis(self.gram)
            object.__setattr__(self, "_basis", basis)
            return basis

    @property
    def is_psd(self) -> bool:
        return self.basis is not None

    def sign_matrix(self) -> SignMatrix:
        """Sign pattern of the off-diagonal entries (gram = I + alpha*S)."""
        n, signs = self.n, _alpha_signs(self)
        if None in signs:
            i, j = divmod(signs.index(None), n)
            raise ValueError(
                f"entry ({i},{j}) = {self.gram[i, j]} is not +-{self.angle}"
            )
        return SignMatrix(n, tuple(tuple(signs[i:i + n]) for i in range(0, n * n, n)))

    def restrict(self, indices: Sequence[int]) -> "LineSet":
        """Principal submatrix on the given line indices, rank recomputed."""
        idx = list(indices)
        if any(not 0 <= i < self.n for i in idx):
            raise IndexError("line index out of range")
        sub = self.gram.submatrix(idx, idx)
        coords = None
        if self.coords is not None:
            coords = [self.coords[i] for i in idx]
        ls = LineSet.from_gram(sub, self.angle, coords, self.coords_norm_sq)
        # a subset whose first diagonal entry is 1 keeps the norm, and the pass
        if hasattr(self, "_coords_ok") and sub.nums[:1] == (sub.den,):
            object.__setattr__(ls, "_coords_ok", self._coords_ok)
        return ls


def _alpha_signs(ls: LineSet) -> list[Optional[int]]:
    """The Gram matrix read as +-alpha, row-major: 0 on the diagonal,
    +1 or -1 where an off-diagonal entry is +alpha or -alpha, and None
    where it is neither."""
    n, g = ls.n, ls.gram
    a = g.numerator_of(ls.angle)
    sign = {} if a is None else {-a: -1, a: 1}
    signs = [sign.get(x) for x in g.nums]
    signs[::n + 1] = [0] * n
    return signs


def _sign_gram(s: SignMatrix, angle: Fraction) -> RatMatrix:
    """The Gram matrix I + angle*S."""
    a, b = angle.numerator, angle.denominator
    nums = [b if i == j else a * x for i, row in enumerate(s.signs)
            for j, x in enumerate(row)]
    return RatMatrix.from_integers(s.n, s.n, nums, b)


def from_sign_matrix(s: SignMatrix, angle: Fraction) -> LineSet:
    """LineSet with gram = I + angle*S; rank computed, not yet validated."""
    angle = Fraction(angle)
    return LineSet.from_gram(_sign_gram(s, angle), angle)


class CheckResult(Record):
    __slots__ = _fields = ("name", "passed", "detail")
    _defaults = ("",)


class ValidationReport(Record):
    __slots__ = _fields = ("n", "angle", "rank", "checks")
    _defaults = ((),)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "angle": format_rational(self.angle),
            "rank": self.rank,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _invariant_checks(ls: LineSet) -> list[CheckResult]:
    """The checks of `validate` that take the cached rank on trust:
    symmetric, unit_diagonal, off_diagonal_pm_alpha and
    positive_semidefinite."""
    checks = []
    g = ls.gram
    n, nums = ls.n, g.nums

    sym_ok, sym_detail = True, ""
    for i in range(n):
        for j in range(i + 1, n):
            if nums[i * n + j] != nums[j * n + i]:
                sym_ok, sym_detail = False, f"first asymmetry at ({i},{j})"
                break
        if not sym_ok:
            break
    checks.append(CheckResult("symmetric", sym_ok, sym_detail))

    diag_ok, diag_detail = True, ""
    for i in range(n):
        if nums[i * n + i] != g.den:
            diag_ok, diag_detail = False, f"diagonal ({i},{i}) = {g[i, i]}"
            break
    checks.append(CheckResult("unit_diagonal", diag_ok, diag_detail))

    signs = _alpha_signs(ls)
    off_ok, off_detail = True, ""
    for i in range(n):
        row = signs[i * n + i + 1:(i + 1) * n]
        if None in row:
            j = i + 1 + row.index(None)
            off_ok = False
            off_detail = f"entry ({i},{j}) = {g[i, j]}, expected +-{ls.angle}"
            break
    checks.append(CheckResult("off_diagonal_pm_alpha", off_ok, off_detail))

    if sym_ok:
        psd_ok = ls.is_psd
        checks.append(
            CheckResult("positive_semidefinite", psd_ok, "" if psd_ok else
                        "Gram matrix is not PSD")
        )
    else:
        checks.append(CheckResult("positive_semidefinite", False,
                                  "skipped: matrix not symmetric"))
    return checks


def _coords_check(ls: LineSet) -> CheckResult:
    """coords_match_gram: x_i . x_j * den == N * nums[i*n + j] for every
    i <= j, where the Gram matrix is nums / den and N, which must be
    positive, is `coords_norm_sq`, or x_0 . x_0 when that is missing."""
    xs, n, g = ls.coords, ls.n, ls.gram
    norm = ls.coords_norm_sq
    if norm is None and n:
        norm = sum(map(mul, xs[0], xs[0]))
    if n and norm <= 0:
        return CheckResult("coords_match_gram", False,
                           f"coordinate norm {norm} is not positive")
    for i, u in enumerate(xs):
        row = g.nums[i * n:(i + 1) * n]
        for j in range(i, n):
            dot = sum(map(mul, u, xs[j]))
            if dot * g.den != norm * row[j]:
                return CheckResult(
                    "coords_match_gram", False,
                    f"pair ({i},{j}): dot product {dot}, expected {norm * g[i, j]}",
                )
    return CheckResult("coords_match_gram", True)


def _coords_check_once(ls: LineSet) -> CheckResult:
    """`_coords_check`, kept on the set once it passes."""
    check = getattr(ls, "_coords_ok", None) or _coords_check(ls)
    if check.passed:
        object.__setattr__(ls, "_coords_ok", check)
    return check


def validate(ls: LineSet) -> ValidationReport:
    """Check every defining invariant; failures are reported, not raised.

    The PSD check reads `is_psd`, and a symmetric PSD set's rank is the
    count of pivot rows in `basis`, both from the elimination `from_gram`
    cached (a set built without it is eliminated once); any other set's
    rank is recomputed by `linalg.rank`.  A set that carries coordinate
    vectors also gets `coords_match_gram`: their dot products over the
    shared squared norm must be the Gram matrix (checked until it passes).
    """
    checks = _invariant_checks(ls)
    # the last invariant check is positive_semidefinite
    rank_now = len(ls.basis) if checks[-1].passed else linalg.rank(ls.gram)
    rank_ok = rank_now == ls.rank
    checks.append(
        CheckResult("rank", rank_ok,
                    "" if rank_ok else f"cached {ls.rank}, recomputed {rank_now}")
    )
    if ls.coords is not None:
        checks.append(_coords_check_once(ls))
    return ValidationReport(ls.n, ls.angle, ls.rank, tuple(checks))


def require_valid(ls: LineSet) -> None:
    """Raise InvalidLineSet naming every failed check of `validate` but
    the rank (computed on load) and `coords_match_gram` (`require_coords`)."""
    failed = [c for c in _invariant_checks(ls) if not c.passed]
    if failed:
        raise InvalidLineSet("line set fails " + "; ".join(
            f"{c.name} ({c.detail})" for c in failed
        ))


def require_coords(ls: LineSet) -> None:
    """Raise ValueError when the set carries no coordinate vectors, or
    when they fail `coords_match_gram`; a pass is kept on the set."""
    if ls.coords is None:
        raise ValueError("line set carries no coordinate vectors")
    check = _coords_check_once(ls)
    if not check.passed:
        raise ValueError(f"line set fails {check.name} ({check.detail})")


def relative_bound(r: int, angle: Fraction) -> Fraction:
    """Exact bound r(1 - a^2)/(1 - r a^2) on line counts at rank r, for
    an angle a in (0, 1), the range `LineSet.from_gram` accepts."""
    angle = Fraction(angle)
    if r < 1:
        raise HypothesisViolated("rank must be at least 1")
    if not 0 < angle < 1:
        raise HypothesisViolated(
            f"alpha must lie in (0, 1), got {format_rational(angle)}"
        )
    a2 = angle * angle
    if Fraction(r) >= 1 / a2:
        raise HypothesisViolated(
            f"bound requires r < 1/alpha^2 = {format_rational(1 / a2)}, got r = {r}"
        )
    return r * (1 - a2) / (1 - r * a2)


def relative_bound_floor(r: int, angle: Fraction) -> int:
    """Integer form of the bound (floor of the exact rational)."""
    value = relative_bound(r, angle)
    return value.numerator // value.denominator


class BoundsEntry(Record):
    __slots__ = _fields = ("d", "lower", "upper")


def known_bounds(d: int) -> BoundsEntry:
    """Best known range for the maximum line count in dimension d."""
    from ._tables import BOUNDS_TABLE

    if d not in BOUNDS_TABLE:
        raise OutOfRange(f"bounds registry covers dimensions 2..43, got {d}")
    lo, hi = BOUNDS_TABLE[d]
    return BoundsEntry(d, lo, hi)


def to_json_dict(ls: LineSet) -> dict:
    """Canonical JSON form: sign pattern + angle (1-based-friendly, compact)."""
    out = {
        "n": ls.n,
        "angle": format_rational(ls.angle),
        "signs": [list(row) for row in ls.sign_matrix().signs],
    }
    if ls.coords is not None:
        out["coords"] = [list(row) for row in ls.coords]
        out["coords_norm_sq"] = ls.coords_norm_sq
    return out


def from_json_dict(data: dict) -> LineSet:
    """Parse the canonical form; a "gram" field of "p/q" strings is also
    accepted (debugging aid for matrices that are not sign-constrained).
    Malformed input raises ValueError naming the offending field."""
    if not isinstance(data, dict):
        raise ValueError("a line-set file must hold a JSON object")
    if not isinstance(data.get("angle"), str):
        raise ValueError('"angle" must be a rational string "p/q"')
    key = "signs" if "signs" in data else "gram"
    if key not in data:
        raise ValueError('expected a "signs" or "gram" field')
    for name in (key, "coords"):
        rows = data.get(name, [])
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError(f'"{name}" must be a list of rows')
    try:
        angle = parse_rational(data["angle"])
    except ValueError as exc:
        raise ValueError(f'"angle": {exc}') from None
    try:
        if key == "signs":
            gram = _sign_gram(SignMatrix.from_rows(data[key]), angle)
        else:
            rows = [[parse_rational(str(x)) for x in row] for row in data[key]]
            gram = RatMatrix.from_rows(rows)
    except ValueError as exc:
        raise ValueError(f'"{key}": {exc}') from None
    n = data.get("n", gram.rows)
    if type(n) is not int or n != gram.rows:
        raise ValueError(f'"n" is {n!r} but the matrix has {gram.rows} rows')
    coords, norm_sq = data.get("coords"), data.get("coords_norm_sq")
    return LineSet.from_gram(gram, angle, coords, norm_sq)


def dumps(ls: LineSet) -> str:
    return json.dumps(to_json_dict(ls), sort_keys=True)


def loads(text: str) -> LineSet:
    return from_json_dict(json.loads(text))


def save(ls: LineSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(ls))
        f.write("\n")


def load(path: str) -> LineSet:
    with open(path, "r", encoding="utf-8") as f:
        return loads(f.read())
