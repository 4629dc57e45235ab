import os

# One BLAS thread in this process, as hopgeo's import sets it, but before any test module
# imports numpy, which reads the count once: the 2-worker acceptance fixture then runs
# 2 BLAS threads in all, not 2 per worker.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import concurrent.futures  # noqa: E402

import pytest  # noqa: E402


@pytest.fixture
def pool_sizes(monkeypatch):
    """Runs sweep.pool_map's pools in this process on a machine of 8 CPUs; lists the worker
    count each one asked for."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers, **options):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            future = concurrent.futures.Future()
            future.set_result(fn(task))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    return made
