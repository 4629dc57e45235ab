"""The benchmark's pinned bytes in Tier-1: the `pipeline` and `phase-descent`
workloads' CLI invocations, taken from perfbench/run.py and run in this process,
write the spectrum.csv, recall.csv and grid.csv pinned under perfbench/reference/
(perfbench/ is only read). The bits depend on the BLAS kernel, so a mismatch names
cli.numerics()."""

import importlib
from pathlib import Path

import pytest

from hopgeo.cli import main, numerics

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_workload(workload, out, workers, monkeypatch):
    """Run `workload`'s invocations at the default seed into `out`; returns run.py's
    `check` module."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, check = (importlib.import_module(name) for name in ("run", "check"))
    for args, _ in run.invocations(workload, out, 0, workers):
        assert main(args) == 0, args
    return check


def assert_pinned(check, workload, out, name):
    want = check.reference_digest(workload, name)
    assert check.sha256(out / name) == want, (
        check.mismatch(workload, name, out / name, want) + "; "
        + ", ".join(f"{key} {value}" for key, value in numerics().items()))


def test_the_pipeline_workload_writes_its_pinned_bytes(tmp_path, monkeypatch):
    check = run_workload("pipeline", tmp_path, 1, monkeypatch)
    for name in ("spectrum.csv", "recall.csv"):
        assert_pinned(check, "pipeline", tmp_path, name)


@pytest.mark.parametrize("workers", [1, 2])
def test_the_phase_descent_workload_writes_its_pinned_bytes(tmp_path, monkeypatch, workers):
    # One worker stacks the three cells' fits (P = 32, 16, 8) into one descent; two
    # workers run {32} and {16, 8}.
    check = run_workload("phase-descent", tmp_path, workers, monkeypatch)
    assert_pinned(check, "phase-descent", tmp_path, "grid.csv")
