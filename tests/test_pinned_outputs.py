"""The benchmark's pinned bytes in Tier-1: the `pipeline` workload's CLI invocations,
taken from perfbench/run.py and run in this process, write the spectrum.csv and
recall.csv pinned under perfbench/reference/ (perfbench/ is only read). The bits
depend on the BLAS kernel, so a mismatch names cli.numerics()."""

import importlib
from pathlib import Path

from hopgeo.cli import main, numerics

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_pipeline_workload_writes_its_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run, check = (importlib.import_module(name) for name in ("run", "check"))
    for args, _ in run.invocations("pipeline", tmp_path, 0, 1):
        assert main(args) == 0, args
    for name in ("spectrum.csv", "recall.csv"):
        want = check.reference_digest("pipeline", name)
        assert check.sha256(tmp_path / name) == want, (
            check.mismatch("pipeline", name, tmp_path / name, want) + "; "
            + ", ".join(f"{key} {value}" for key, value in numerics().items()))
