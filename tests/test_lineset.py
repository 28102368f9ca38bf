"""LineSet invariants, validation, serialization, and bounds."""

import json
from fractions import Fraction

import pytest

from eqlines import linalg, lineset
from eqlines.errors import HypothesisViolated, OutOfRange
from eqlines.lineset import (
    LineSet,
    SignMatrix,
    from_sign_matrix,
    known_bounds,
    relative_bound,
    relative_bound_floor,
    validate,
)
from eqlines.linalg import RatMatrix

F = Fraction
HALF = F(1, 2)


def hexagon() -> LineSet:
    g = RatMatrix.from_rows([[1, HALF, -HALF], [HALF, 1, HALF], [-HALF, HALF, 1]])
    return LineSet.from_gram(g, HALF)


class TestSignMatrix:
    def test_valid(self):
        s = SignMatrix.from_rows([[0, 1, -1], [1, 0, 1], [-1, 1, 0]])
        assert s.n == 3

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1], [1, 0]],  # nonzero diagonal
            [[0, 1], [-1, 0]],  # asymmetric
            [[0, 2], [2, 0]],  # entry not +-1
            [[0, 1, -1], [1, 0, 1]],  # not square
            [[0, 1.5], [1.5, 0]],  # float, not silently truncated
            [[0, "1"], ["1", 0]],  # string
            [[0, True], [True, 0]],  # bool
        ],
    )
    def test_invalid(self, rows):
        with pytest.raises(ValueError):
            SignMatrix.from_rows(rows)


class TestLineSet:
    def test_from_sign_matrix(self):
        s = SignMatrix.from_rows([[0, 1], [1, 0]])
        ls = from_sign_matrix(s, F(1, 3))
        assert ls.n == 2
        assert ls.gram[0, 1] == F(1, 3)
        assert ls.gram[0, 0] == 1
        assert ls.sign_matrix() == s

    def test_rank_computed(self):
        assert hexagon().rank == 2

    def test_restrict(self):
        hx = hexagon()
        sub = hx.restrict([0, 2])
        assert sub.n == 2
        assert sub.gram[0, 1] == -HALF

    def test_restrict_bad_index(self):
        with pytest.raises(IndexError):
            hexagon().restrict([0, 5])

    @pytest.mark.parametrize("angle", [F(0), F(-1, 3), F(1)])
    def test_angle_outside_unit_interval_rejected(self, angle):
        g = RatMatrix.from_rows([[1, angle], [angle, 1]])
        with pytest.raises(ValueError, match="angle"):
            LineSet.from_gram(g, angle)

    def test_sign_matrix_rejects_foreign_entries(self):
        # 1/3 is no multiple of 1/5 over the Gram's denominator 3; 1/10
        # is, but not +-1/5
        for x in (F(1, 3), F(1, 10), F(-1, 10)):
            g = RatMatrix.from_rows([[1, F(1, 5), x], [F(1, 5), 1, x], [x, x, 1]])
            ls = LineSet.from_gram(g, F(1, 5))
            with pytest.raises(ValueError) as err:
                ls.sign_matrix()
            assert str(err.value) == f"entry (0,2) = {x} is not +-1/5"


class TestValidate:
    def test_hexagon_passes(self):
        report = validate(hexagon())
        assert report.passed
        assert {c.name for c in report.checks} == {
            "symmetric",
            "unit_diagonal",
            "off_diagonal_pm_alpha",
            "positive_semidefinite",
            "rank",
        }

    def test_detects_bad_diagonal(self):
        g = RatMatrix.from_rows([[2, HALF], [HALF, 1]])
        ls = LineSet(2, HALF, g, 2)
        report = validate(ls)
        assert not report.passed
        assert any(
            c.name == "unit_diagonal" and c.detail == "diagonal (0,0) = 2"
            for c in report.checks
        )

    def test_detects_asymmetry(self):
        g = RatMatrix.from_rows([[1, HALF], [-HALF, 1]])
        report = validate(LineSet(2, HALF, g, 2))
        failed = {c.name for c in report.checks if not c.passed}
        assert "symmetric" in failed
        assert report.checks[0].detail == "first asymmetry at (0,1)"
        assert "positive_semidefinite" in failed  # skipped counts as failed

    def test_detects_wrong_angle(self):
        for x in (F(1, 3), F(1, 4), F(-1, 6)):
            g = RatMatrix.from_rows([[1, HALF, HALF], [HALF, 1, x], [HALF, x, 1]])
            report = validate(LineSet(3, HALF, g, 3))
            assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
                ("off_diagonal_pm_alpha", f"entry (1,2) = {x}, expected +-1/2")
            ]

    def test_detects_not_psd(self):
        third = F(2, 3)
        g = RatMatrix.from_rows(
            [[1, -third, -third], [-third, 1, -third], [-third, -third, 1]]
        )
        report = validate(LineSet.from_gram(g, third))
        assert any(
            c.name == "positive_semidefinite" and not c.passed
            for c in report.checks
        )

    def test_detects_wrong_cached_rank(self):
        g = RatMatrix.from_rows([[1, HALF], [HALF, 1]])
        report = validate(LineSet(2, HALF, g, 1))
        assert any(c.name == "rank" and not c.passed for c in report.checks)

    def test_loaded_set_not_eliminated_again(self, monkeypatch, asche,
                                             best56):
        """validate takes a loaded PSD set's rank from the pivot rows
        that loading cached: no psd_basis or Gauss-Jordan rank runs."""
        loaded = [lineset.loads(lineset.dumps(ls)) for ls in (asche, best56)]

        def refuse(*args):
            raise AssertionError("a second elimination ran")

        monkeypatch.setattr(linalg, "psd_basis", refuse)
        monkeypatch.setattr(linalg, "rank", refuse)
        for ls, rank in zip(loaded, (19, 18)):
            report = validate(ls)
            assert report.passed and report.rank == rank

    @staticmethod
    def half_negated(ls: LineSet) -> dict:
        """The JSON form of ls with the first half of row 0 of its
        coordinates negated: its signs and Gram matrix are unchanged."""
        doc = json.loads(lineset.dumps(ls))
        row = doc["coords"][0]
        half = len(row) // 2
        doc["coords"][0] = [-x for x in row[:half]] + row[half:]
        return doc

    def test_coords_match_gram(self, asche):
        report = validate(asche)
        assert report.passed
        assert [c.name for c in report.checks][-1] == "coords_match_gram"
        bad = lineset.from_json_dict(self.half_negated(asche))
        assert bad.gram == asche.gram
        report = validate(bad)
        assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
            ("coords_match_gram", "pair (0,1): dot product -40, expected 16")
        ]

    def test_coords_norm_defaults_to_first_row(self, asche):
        # without coords_norm_sq, N is x_0 . x_0 = 80
        ls = LineSet.from_gram(asche.gram, asche.angle, asche.coords)
        assert ls.coords_norm_sq is None and validate(ls).passed
        doubled = [tuple(2 * x for x in v) for v in asche.coords]
        assert validate(LineSet.from_gram(asche.gram, asche.angle, doubled)).passed
        # a wrong declared norm, one doubled row, and all-zero coordinates
        cases = [
            (asche.coords, 81, "pair (0,0): dot product 80, expected 81"),
            (doubled[:1] + list(asche.coords[1:]), None,
             "pair (0,1): dot product 32, expected 64"),
            ([(0,) * 24] * asche.n, None, "coordinate norm 0 is not positive"),
        ]
        for coords, norm, detail in cases:
            ls = LineSet.from_gram(asche.gram, asche.angle, coords, norm)
            assert [(c.name, c.detail) for c in validate(ls).checks
                    if not c.passed] == [("coords_match_gram", detail)]

    def test_restrict_hands_on_a_coords_pass_at_the_same_norm(self):
        # no norm given, so N = x_0 . x_0 = 1; line 1 has Gram diagonal 2,
        # so a subset that starts at line 1 has N = 2 and fails the check
        gram, coords = RatMatrix.from_rows([[1, 1], [1, 2]]), [(1, 0), (1, 1)]
        checked = LineSet.from_gram(gram, HALF, coords)
        # the set fails unit_diagonal, but its coordinates match
        assert validate(checked).checks[-1] == lineset.CheckResult(
            "coords_match_gram", True
        )
        for idx in ([], [0], [1], [0, 1], [1, 0]):
            fresh = LineSet.from_gram(gram, HALF, coords)
            want = validate(fresh.restrict(idx)).checks
            assert validate(checked.restrict(idx)).checks == want
            assert want[-1].passed == (idx[:1] != [1])

    def test_failed_coords_check_is_not_kept(self, asche, monkeypatch):
        calls = []
        real = lineset._coords_check
        monkeypatch.setattr(
            lineset, "_coords_check", lambda ls: calls.append(ls.n) or real(ls)
        )
        bad = [tuple(-x for x in asche.coords[0]), *asche.coords[1:]]
        ls = LineSet.from_gram(asche.gram, asche.angle, bad, 80)
        assert not validate(ls).passed and not validate(ls).passed
        assert not validate(ls.restrict(range(5))).passed
        assert calls == [72, 72, 5]

    def test_report_dict(self):
        d = validate(hexagon()).to_dict()
        assert d["passed"] is True
        assert d["angle"] == "1/2"
        assert len(d["checks"]) == 5


class TestBounds:
    def test_relative_bound_values(self):
        assert relative_bound(42, F(1, 7)) == 288
        assert relative_bound(41, F(1, 7)) == 246
        assert relative_bound(40, F(1, 7)) == F(640, 3)
        assert relative_bound_floor(40, F(1, 7)) == 213
        assert relative_bound_floor(39, F(1, 7)) == 187
        assert relative_bound(20, F(1, 5)) == 96
        assert relative_bound(19, F(1, 5)) == 76
        assert relative_bound(18, F(1, 5)) == F(432, 7)

    def test_hypothesis_violations(self):
        with pytest.raises(HypothesisViolated):
            relative_bound(25, F(1, 5))  # r >= 1/alpha^2
        with pytest.raises(HypothesisViolated):
            relative_bound(49, F(1, 7))
        with pytest.raises(HypothesisViolated):
            relative_bound(0, F(1, 5))
        # alpha outside (0, 1): 0 divided by alpha^2, and -1/5 gave 36/11
        with pytest.raises(HypothesisViolated, match=r"\(0, 1\), got 0"):
            relative_bound(3, F(0))
        with pytest.raises(HypothesisViolated, match=r"got -1/5"):
            relative_bound(3, F(-1, 5))

    def test_known_bounds(self):
        assert known_bounds(18).lower == 56
        assert known_bounds(18).upper == 60
        assert known_bounds(7).lower == known_bounds(7).upper == 28
        e23, e41 = known_bounds(23), known_bounds(41)
        assert (e23.lower, e23.upper) == (e41.lower, e41.upper) == (276, 276)
        assert known_bounds(43).lower == 344

    def test_known_bounds_range(self):
        for d in (1, 0, 44, -3):
            with pytest.raises(OutOfRange):
                known_bounds(d)


class TestJson:
    def test_round_trip_signs(self):
        hx = hexagon()
        text = lineset.dumps(hx)
        back = lineset.loads(text)
        assert back.gram == hx.gram
        assert back.angle == hx.angle
        assert back.rank == hx.rank

    def test_round_trip_with_coords(self):
        g = RatMatrix.from_rows([[1, F(1, 5)], [F(1, 5), 1]])
        ls = LineSet.from_gram(g, F(1, 5), coords=[(2, 1), (1, 2)], coords_norm_sq=5)
        back = lineset.loads(lineset.dumps(ls))
        assert back.coords == ((2, 1), (1, 2))
        assert back.coords_norm_sq == 5

    def test_load_with_coords_computes_rank_once(self, monkeypatch):
        """One elimination gives the rank and settles the basis and PSD
        on load."""
        calls = []
        for name in ("rank", "psd_basis"):

            def counting(m, name=name, inner=getattr(linalg, name)):
                calls.append((name, m.rows))
                return inner(m)

            monkeypatch.setattr(linalg, name, counting)
        g = RatMatrix.from_rows([[1, F(1, 5)], [F(1, 5), 1]])
        ls = LineSet.from_gram(g, F(1, 5), coords=[(2, 1), (1, 2)], coords_norm_sq=5)
        calls.clear()
        back = lineset.loads(lineset.dumps(ls))
        assert calls == [("psd_basis", 2)]
        assert back.rank == 2 and back.coords == ((2, 1), (1, 2))
        assert back.basis == (0, 1) and back.is_psd
        assert calls == [("psd_basis", 2)]

    @pytest.mark.parametrize(
        "coords,norm_sq,field",
        [
            ([[1.5, 2], [2, 1]], 5, '"coords"'),
            ([[1, "2"], [2, 1]], 5, '"coords"'),
            ([[1, 2], [True, 1]], 5, '"coords"'),
            ([[1, 2], [2]], 5, '"coords"'),
            ([[1, 2], [2, 1]], "x", '"coords_norm_sq"'),
            ([[1, 2], [2, 1]], 5.0, '"coords_norm_sq"'),
        ],
        ids=["float", "string", "bool", "ragged", "norm-string", "norm-float"],
    )
    def test_coords_are_integers_never_converted(self, coords, norm_sq, field):
        g = RatMatrix.from_rows([[1, F(1, 5)], [F(1, 5), 1]])
        with pytest.raises(ValueError, match=field):
            LineSet.from_gram(g, F(1, 5), coords=coords, coords_norm_sq=norm_sq)
        doc = {"angle": "1/5", "signs": [[0, 1], [1, 0]], "coords": coords,
               "coords_norm_sq": norm_sq}
        with pytest.raises(ValueError, match=field):
            lineset.from_json_dict(doc)

    def test_sorted_keys_deterministic(self):
        a = lineset.dumps(hexagon())
        b = lineset.dumps(hexagon())
        assert a == b
        keys = list(json.loads(a))
        assert keys == sorted(keys)

    def test_gram_form_accepted(self):
        doc = {
            "n": 2,
            "angle": "1/3",
            "gram": [["1", "1/3"], ["1/3", "1"]],
        }
        ls = lineset.from_json_dict(doc)
        assert ls.gram[0, 1] == F(1, 3)

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "hex.json")
        lineset.save(hexagon(), path)
        assert lineset.load(path).gram == hexagon().gram
