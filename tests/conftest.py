import pytest

from eqlines import constructions
from eqlines.spansearch import extract_sublineset, random_search


@pytest.fixture(scope="session")
def octads():
    return constructions.generate_octads()


@pytest.fixture(scope="session")
def tremain():
    return constructions.tremain_28()


@pytest.fixture(scope="session")
def taylor():
    return constructions.taylor_90()


@pytest.fixture(scope="session")
def asche():
    return constructions.asche_72()


@pytest.fixture(scope="session")
def best56(asche):
    """56 lines at rank 18: the best closure of a 12-run rank-18 search
    in asche72 with seed 0."""
    return extract_sublineset(asche, random_search(asche, 18, 12, 0).best.closure)
