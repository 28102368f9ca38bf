import pytest

from eqlines import constructions, spansearch


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


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swaps the process pool of search for an in-process stand-in; the
    list records each pool's max_workers."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(spansearch, "ProcessPoolExecutor", InProcessPool)
    return sizes
