import pytest

from hopgeo import sweep


@pytest.fixture
def pool_sizes(monkeypatch):
    """Runs sweep.pool_map's pools in this process; lists the worker count each one asked for."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
    return made
