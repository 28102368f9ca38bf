import pytest

from eqlines import constructions


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
