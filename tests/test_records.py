"""The package's thirteen immutable records: construction, immutability,
equality and the checks their constructors make."""

import importlib
import pkgutil
import re
from fractions import Fraction as F

import pytest

import eqlines
from eqlines._record import Record
from eqlines.constructions import OctadDesign, TremainColumn
from eqlines.linalg import RatMatrix
from eqlines.lineset import (
    BoundsEntry,
    CheckResult,
    LineSet,
    SignMatrix,
    ValidationReport,
)
from eqlines.maxclique import CliqueResult, SimpleGraph
from eqlines.saturation import CandidateSet, SaturationReport
from eqlines.spansearch import SearchRun, SearchSummary

HALF = F(1, 2)
GRAM = RatMatrix.from_rows([[1, HALF], [HALF, 1]])

# (class, required fields in signature order, defaulted fields with
# their defaults, whether the record is hashable, one field changed)
RECORDS = [
    (SignMatrix, {"n": 2, "signs": ((0, 1), (1, 0))}, {}, True,
     {"signs": ((0, -1), (-1, 0))}),
    (LineSet, {"n": 2, "angle": HALF, "gram": GRAM, "rank": 2},
     {"coords": None, "coords_norm_sq": None}, True, {"coords_norm_sq": 3}),
    (CheckResult, {"name": "rank", "passed": True}, {"detail": ""}, True,
     {"detail": "cached 1"}),
    (ValidationReport, {"n": 2, "angle": HALF, "rank": 2}, {"checks": ()},
     True, {"checks": (CheckResult("rank", True),)}),
    (BoundsEntry, {"d": 18, "lower": 56, "upper": 60}, {}, True,
     {"upper": 61}),
    (SimpleGraph, {"n": 2, "adj": (2, 1)}, {}, True, {"adj": (0, 0)}),
    (CliqueResult, {"size": 2, "witness": (0, 1), "optimal": True},
     {"nodes": 0}, True, {"nodes": 3}),
    (CandidateSet, {"patterns": (0, 2), "w": [[2]], "scale": 1, "target": 2},
     {}, True, {}),
    (SaturationReport,
     {"basis_indices": (0,), "candidate_count": 1, "clique_number": 1,
      "n_bound": 2, "saturated": True, "clique_witness": (0,),
      "clique_optimal": True, "total_patterns": 1}, {}, True,
     {"total_patterns": 2}),
    (SearchRun, {"index": 0, "seed": 5, "subset": (0, 1), "closure": (0, 1),
                 "closure_size": 2, "rank": 2}, {}, True, {"seed": 6}),
    # the histogram is a dict, so hashing a summary raises TypeError
    (SearchSummary, {"runs": 1, "target_rank": 2, "master_seed": 0,
                     "best": None, "histogram": {2: 1}, "run_log": ()}, {},
     False, {"histogram": {2: 2}}),
    (OctadDesign, {"masks": (255,)}, {}, True, {"masks": (511,)}),
    (TremainColumn, {"circle": (1, 1, 1, 0, 0, 0, 0), "star_row": 1}, {},
     True, {"star_row": 2}),
]

params = pytest.mark.parametrize(
    "cls,required,defaults,hashable,changed", RECORDS,
    ids=[r[0].__name__ for r in RECORDS],
)


def fields_of(obj, names):
    return {name: getattr(obj, name) for name in names}


@params
def test_construction_with_defaults(cls, required, defaults, hashable, changed):
    want = {**required, **defaults}
    positional = cls(*required.values())
    keyword = cls(**required)
    full = cls(*want.values())
    for obj in (positional, keyword, full):
        assert fields_of(obj, want) == want
        assert not hasattr(obj, "__dict__")
    assert repr(positional).startswith(f"{cls.__name__}(")


@params
def test_argument_binding_errors(cls, required, defaults, hashable, changed):
    # the cases Python's own argument binding rejects, each naming the
    # offending argument where it has one
    want = {**required, **defaults}
    first, last = list(required)[0], list(required)[-1]
    with pytest.raises(TypeError):
        cls(*want.values(), 0)
    with pytest.raises(TypeError, match="'bogus'"):
        cls(**required, bogus=1)
    with pytest.raises(TypeError, match=re.escape(repr(first))):
        cls(required[first], **required)
    with pytest.raises(TypeError, match=re.escape(repr(last))):
        cls(*list(required.values())[:-1])
    with pytest.raises(TypeError, match=re.escape(repr(first))):
        cls(**{k: v for k, v in want.items() if k != first})


def test_keyword_default_after_positional_fields():
    check = CheckResult("x", True, detail="d")
    assert (check.name, check.passed, check.detail) == ("x", True, "d")
    # a later default given by keyword leaves the earlier one at its default
    ls = LineSet(2, HALF, GRAM, 2, coords_norm_sq=3)
    assert ls.coords is None and ls.coords_norm_sq == 3
    assert CliqueResult(2, (0, 1), True, nodes=4).nodes == 4


def test_every_record_is_in_the_table():
    for info in pkgutil.iter_modules(eqlines.__path__):
        importlib.import_module(f"eqlines.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    package = {c for c in found if c.__module__.startswith("eqlines.")}
    assert package == {r[0] for r in RECORDS}


@params
def test_fields_cannot_be_assigned(cls, required, defaults, hashable, changed):
    obj = cls(**required)
    for name in {**required, **defaults}:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


@params
def test_equality_and_hash(cls, required, defaults, hashable, changed):
    a, b = cls(**required), cls(*required.values())
    assert a == a
    assert a != object()
    if cls is CandidateSet:
        # compared by identity, and hashed by it
        assert a != b
        assert hash(a) == object.__hash__(a)
        return
    assert a == b
    assert cls(**{**required, **changed}) != a
    # a record never equals a tuple of its fields
    assert a.__eq__(tuple(required.values())) is NotImplemented
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_lineset_basis_cache_takes_no_part_in_equality():
    loaded = LineSet.from_gram(GRAM, HALF)
    direct = LineSet(2, HALF, GRAM, 2)
    assert loaded == direct and hash(loaded) == hash(direct)
    assert direct.basis == loaded.basis == (0, 1)
    assert "_basis" not in repr(direct)


@pytest.mark.parametrize(
    "build,match",
    [
        (lambda: SignMatrix(3, ((0, 1), (1, 0))), "wrong shape"),
        (lambda: SignMatrix(2, ((0, 1), (1,))), "wrong shape"),
        (lambda: SignMatrix(2, ((1, 1), (1, 0))), r"diagonal entry \(0,0\)"),
        (lambda: SignMatrix(2, ((0, 2), (2, 0))), r"off-diagonal entry \(0,1\)"),
        (lambda: SignMatrix(2, ((0, 1), (-1, 0))), r"not symmetric at \(0,1\)"),
        (lambda: SimpleGraph(2, (2, 0)), r"not symmetric at \(0,1\)"),
        (lambda: SimpleGraph(2, (1, 0)), "self-loop at vertex 0"),
        (lambda: SimpleGraph(2, (4, 0)), "beyond vertex 1"),
        (lambda: SimpleGraph(3, (0, 0)), "one row per vertex"),
        (lambda: CandidateSet((2, 0), [[2]], 1, 2), "strictly ascending"),
        (lambda: CandidateSet((1, 1), [[2]], 1, 2), "strictly ascending"),
        (lambda: TremainColumn((1, 1, 1, 0, 0, 0), 1), "7 entries"),
        (lambda: TremainColumn((1, 1, 2, 0, 0, 0, 0), 1), "-1, 0, or \\+1"),
        (lambda: TremainColumn((1, 1, 0, 0, 0, 0, 0), 1), "exactly 3"),
        (lambda: TremainColumn((1, 1, 1, 0, 0, 0, 0), 8), "star row"),
    ],
)
def test_constructor_checks(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_candidate_patterns_become_a_tuple_of_ints():
    cands = CandidateSet([0, 2, 5], [[2]], 1, 2)
    assert cands.patterns == (0, 2, 5) and len(cands) == 3
