"""Every name a module of the package or of the tests imports is used in it, every
function the benchmark's tracer wraps exists and its runs work on this source, only
kernel_core formats artifact values, the modules that define table artifacts write no
file themselves, and a process that forks no pool never loads the pool machinery."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "hopgeo").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list:
    """The names that `source` imports (outside __future__) and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.e(d)\n"
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def value_formats(source: str) -> list:
    """The lines of `source` that hold a `.17g` format spec or call csv.writer."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        spec = isinstance(node, ast.Constant) and ".17g" in str(node.value)
        writer = (isinstance(node, ast.Attribute) and node.attr == "writer"
                  and getattr(node.value, "id", None) == "csv")
        if spec or writer:
            found.add(node.lineno)
    return sorted(found)


def test_the_scan_finds_a_value_format():
    source = ('import csv\nw = csv.writer(f)\ns = f"{v:.17g}"\n'
              't = format(v, ".17g")\nu = "{:.4g}"\n')
    assert value_formats(source) == [2, 3, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.parent.name == "hopgeo"
                                  and p.name != "kernel_core.py"], ids=lambda p: p.name)
def test_only_kernel_core_formats_artifact_values(path):
    assert value_formats(path.read_text()) == []


def file_writes(source: str) -> list:
    """The lines of `source` that call write_text or write_bytes, or open a file to write."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", getattr(func, "id", None))
        if name in ("write_text", "write_bytes"):
            found.add(node.lineno)
        elif name == "open":  # open(path, mode) or path.open(mode)
            modes = node.args[1 if isinstance(func, ast.Name) else 0:][:1]
            modes += [k.value for k in node.keywords if k.arg == "mode"]
            if any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+")
                   for m in modes):
                found.add(node.lineno)
    return sorted(found)


def test_the_scan_finds_a_file_write():
    source = ('open(p, "w")\nopen(p)\np.write_text(s)\np.open(mode="a")\n'
              'p.read_text()\nwith open(p, "rb") as f: pass\nPath(p).open("w")\n')
    assert file_writes(source) == [1, 3, 4, 7]


@pytest.mark.parametrize("name", ["infogeo.py", "klr.py", "sweep.py"])
def test_table_artifacts_are_written_only_through_write_rows(name):
    # kernel_core.write_rows writes patterns.txt, weights.txt, spectrum.csv and grid.csv
    assert file_writes((ROOT / "src" / "hopgeo" / name).read_text()) == []


def traced_functions() -> list:
    """The (module, function) pairs of TRACED in perfbench/tracer.py, read without running it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    return [(ast.literal_eval(row.elts[0]), ast.literal_eval(row.elts[1])) for row in table.elts]


TRACED = traced_functions()


def test_the_tracer_wraps_functions_of_every_layer():
    assert {module for module, _ in TRACED} >= {
        "kernel_core", "klr", "infogeo", "dynamics", "sweep", "svgplot", "cli"
    }


@pytest.mark.parametrize("module, name", TRACED, ids=lambda v: v)
def test_every_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"hopgeo.{module}"), name, None))


def source_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports hopgeo from this checkout's src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def run_tracer(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), *map(str, args)],
        env=source_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=300,
    )


def test_the_benchmark_tracer_runs_on_this_source(tmp_path):
    # Both tracer modes call hopgeo as the benchmark does: `micro` calls gram, KernelConfig
    # and fit_dual_weights itself, `spans` wraps functions by name around a CLI run.
    micro = tmp_path / "micro.json"
    run = run_tracer("micro", micro, 0)
    assert run.returncode == 0, run.stderr
    per_p = json.loads(micro.read_text())
    assert all(per_p[f"P{P}"]["us_per_epoch"] > 0 for P in (8, 16, 32))
    cfg = tmp_path / "train.cfg"
    cfg.write_text("num_patterns = 3\nnum_neurons = 8\ngamma = 0.1\nmax_epochs = 50\n")
    spans = tmp_path / "spans.json"
    run = run_tracer("spans", spans, "--", "train", "--config", cfg, "--out", tmp_path / "net")
    assert run.returncode == 0, run.stderr
    assert {name for name, *_ in json.loads(spans.read_text())} >= {
        "gram", "fit_dual_weights", "train"
    }


def test_the_benchmark_tracer_runs_pooled_commands(tmp_path):
    # The benchmark traces pooled runs too. A pool pickles its task function by name, which
    # must still work where the tracer has replaced run_cell and others with closures.
    grid = tmp_path / "grid.cfg"
    grid.write_text("gamma_values = 0.02 0.2\nload_values = 0.25\nnum_neurons = 8\n"
                    "max_epochs = 50\n")
    spans = tmp_path / "phase.json"
    run = run_tracer("spans", spans, "--", "phase", "--config", grid, "--out", tmp_path / "grid",
                     "--workers", 2)
    assert run.returncode == 0, run.stderr
    assert "run_grid" in {name for name, *_ in json.loads(spans.read_text())}
    cfg = tmp_path / "train.cfg"
    cfg.write_text("num_patterns = 3\nnum_neurons = 8\ngamma = 0.1\nmax_epochs = 50\n")
    run = run_tracer("spans", tmp_path / "train.json", "--", "train", "--config", cfg,
                     "--out", tmp_path / "net")
    assert run.returncode == 0, run.stderr
    run = run_tracer("spans", tmp_path / "recall.json", "--", "recall", "--weights",
                     tmp_path / "net", "--flip-fractions", "0.1", "--trials", 2,
                     "--workers", 2, "--out", tmp_path / "recall.csv")
    assert run.returncode == 0, run.stderr


POOL_MODULES = ("concurrent.futures", "multiprocessing")

POOL_PROBE = """
import json, sys
import hopgeo.cli
loaded = {"import": [m for m in sys.argv[3:] if m in sys.modules]}
code = hopgeo.cli.main(["phase", "--config", sys.argv[1], "--out", sys.argv[2], "--workers", "1"])
loaded["phase"] = [m for m in sys.argv[3:] if m in sys.modules]
print(json.dumps([code, loaded]))
"""


def test_a_serial_run_never_loads_the_pool_machinery(tmp_path):
    # a fresh interpreter, since the tests themselves load both modules
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("gamma_values = 0.02 0.2\nload_values = 0.25\nnum_neurons = 8\n"
                   "max_epochs = 50\n")
    run = subprocess.run(
        [sys.executable, "-c", POOL_PROBE, str(cfg), str(tmp_path / "out"), *POOL_MODULES],
        env=source_env(), capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [0, {"import": [], "phase": []}]
