import csv
import ctypes
import io
import json
import math
import multiprocessing
import os
import platform
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stderr
from dataclasses import astuple, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopgeo import cli, sweep
from hopgeo.cli import TrainRun, main
from hopgeo.config import read_config
from hopgeo.dynamics import RecallConfig
from hopgeo.errors import ConfigError, FieldError, NumericError, TrainingDivergenceError
from hopgeo.infogeo import fisher_matrix, spectrum, write_spectrum_csv
from hopgeo.kernel_core import KernelConfig, gram, load_patterns
from hopgeo.klr import load_weights
from hopgeo.svgplot import render_spectrum_lines
from hopgeo.sweep import CSV_COLUMNS, GridConfig, SweepCell, grid_config_from_file, write_grid_csv


def train_cfg_text(**overrides):
    values = dict(
        num_patterns=3,
        num_neurons=16,
        gamma=0.05,
        seed=11,
        learning_rate=0.02,
        max_epochs=4000,
        grad_tol=1e-6,
    )
    values["lambda"] = 1e-5
    values.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def grid_cfg_text():
    return (
        "gamma_values = 0.02 0.2\n"
        "load_values = 0.25\n"
        "num_neurons = 8\n"
        "trials_per_cell = 2\n"
        "base_seed = 3\n"
        "learning_rate = 0.02\n"
        "lambda = 1e-5\n"
        "max_epochs = 500\n"
        "metrics = lambda_max d_eff rank1_residual\n"
    )


def run_train(tmp_path, sub="run", **overrides):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(train_cfg_text(**overrides))
    out = tmp_path / sub
    code = main(["train", "--config", str(cfg), "--out", str(out)])
    return code, out


def source_env() -> dict:
    """The environment of a fresh interpreter that imports hopgeo from this checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def digests(manifest_path):
    return json.loads(manifest_path.read_text())["outputs"]


def test_train_produces_artifacts_and_manifest(tmp_path):
    code, out = run_train(tmp_path)
    assert code == 0
    assert (out / "patterns.txt").exists()
    assert (out / "weights.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["gamma"] == 0.05
    assert manifest["resolved_config"]["seed"] == 11
    assert "seeds" not in manifest
    assert set(manifest["outputs"]) == {"patterns.txt", "weights.txt"}
    # trained artifacts are loadable and mutually consistent
    ps = load_patterns(out / "patterns.txt")
    w = load_weights(out / "weights.txt")
    assert ps.num_patterns == 3
    assert w.alpha.shape == (3, 16)
    assert w.gamma == 0.05


def test_manifest_names_the_numerics_it_ran_on(tmp_path):
    _, train_out = run_train(tmp_path)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())
    phase_out = tmp_path / "phase"
    assert main(["phase", "--config", str(cfg), "--out", str(phase_out), "--workers", "1"]) == 0
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    running = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
               "python": platform.python_version(), "blas_core": cli.numerics()["blas_core"],
               "source_sha256": cli.numerics()["source_sha256"]}
    for out in (train_out, phase_out):
        manifest = json.loads((out / "manifest.json").read_text())
        assert {key: manifest[key] for key in running} == running


@pytest.mark.parametrize("threads", [None, "3"])
def test_numerics_names_the_blas_thread_count(monkeypatch, threads):
    if threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    assert cli.numerics()["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")


def test_numerics_names_the_blas_kernel_that_runs():
    # OPENBLAS_CORETYPE forces the kernel of a DYNAMIC_ARCH OpenBLAS; Nehalem runs on any
    # x86-64 CPU this century. A BLAS that names no kernel reads None.
    if cli.numerics()["blas_core"] is None or platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("the BLAS numpy loaded names no kernel, or not an x86-64 CPU")
    run = subprocess.run(
        [sys.executable, "-c", "from hopgeo.cli import numerics; print(numerics()['blas_core'])"],
        env={**source_env(), "OPENBLAS_CORETYPE": "Nehalem"}, capture_output=True, text=True,
        check=True)
    assert run.stdout == "Nehalem\n"


def test_the_tests_run_one_blas_thread():
    # conftest.py sets the count before numpy loads; read it from the library that
    # numerics() asks for its kernel, under either name the library gives it
    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
    get = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
    if get is None:
        pytest.skip("the BLAS numpy loaded names no thread count")
    get.argtypes, get.restype = [], ctypes.c_int
    assert get() == 1


def test_the_source_digest_reads_every_byte_of_the_package(tmp_path, monkeypatch):
    # the digest covers the *.py files beside cli.py: a copy of them gives the same
    # digest, and one changed byte another
    copy = tmp_path / "hopgeo"
    shutil.copytree(Path(cli.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
    want = cli.numerics()["source_sha256"]
    monkeypatch.setattr(cli, "__file__", str(copy / "cli.py"))
    assert cli.numerics()["source_sha256"] == want
    source = copy / "errors.py"
    text = source.read_bytes()
    source.write_bytes(text[:-1] + b" ")  # its closing newline
    assert cli.numerics()["source_sha256"] != want


def _no_library(path):
    raise OSError(f"{path}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [lambda path: object(), _no_library],
                         ids=["no_symbol", "no_library"])
def test_numerics_reads_no_blas_kernel_where_the_library_names_none(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli.numerics()["blas_core"] is None


def read_train_run(path):
    return read_config(path, TrainRun)


# every file under configs/ and perfbench/configs/: the reader of its command, and for
# a grid under configs/ the gammas its comment says its gamma_values line writes out
REPO_CONFIGS = {
    "configs": {
        "acceptance.cfg": (sweep.grid_config_from_file, np.logspace(-3, 1, 12)),
        "example_grid.cfg": (sweep.grid_config_from_file, np.logspace(-3, 0, 6)),
        "example_train.cfg": (read_train_run, None),
    },
    "perfbench/configs": {  # a config the benchmark cannot load fails its run
        "phase-descent.cfg": (sweep.grid_config_from_file, None),
        "phase-geometry.cfg": (sweep.grid_config_from_file, None),
        "pipeline-train.cfg": (read_train_run, None),
    },
}


def test_every_repo_config_loads_with_its_reader():
    root = Path(__file__).resolve().parent.parent
    for directory, readers in REPO_CONFIGS.items():
        assert sorted(p.name for p in (root / directory).iterdir()) == sorted(readers)
        for name, (read, gammas) in readers.items():
            cfg = read(root / directory / name)
            if gammas is not None:
                assert cfg.gamma_values == list(gammas)  # bit for bit


def test_train_rerun_is_byte_identical_except_manifest(tmp_path):
    _, a = run_train(tmp_path, "a")
    _, b = run_train(tmp_path, "b")
    for name in ("patterns.txt", "weights.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert digests(a / "manifest.json") == digests(b / "manifest.json")


def test_train_seed_flag_overrides_config(tmp_path):
    _, a = run_train(tmp_path, "a")
    cfg = tmp_path / "train.cfg"
    out = tmp_path / "c"
    code = main(["train", "--config", str(cfg), "--out", str(out), "--seed", "99"])
    assert code == 0
    assert (a / "patterns.txt").read_bytes() != (out / "patterns.txt").read_bytes()
    assert load_patterns(out / "patterns.txt").seed == 99


def test_train_bad_gamma_exits_2_and_names_field(tmp_path, capsys):
    code, _ = run_train(tmp_path, gamma=-1)
    assert code == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_train_nonfinite_gamma_exits_2_at_its_line_and_writes_nothing(tmp_path, capsys, gamma):
    code, out = run_train(tmp_path, gamma=gamma)
    assert code == 2
    assert_one_line_error(capsys, f"{tmp_path / 'train.cfg'}:3: field 'gamma': ")
    assert not out.exists()


def test_train_negative_seed_exits_2_at_its_line_and_writes_nothing(tmp_path, capsys):
    code, out = run_train(tmp_path, seed=-1)
    assert code == 2
    assert_one_line_error(capsys, f"{tmp_path / 'train.cfg'}:4: field 'seed': ")
    assert not out.exists()


def small_run_argv(tmp_path, command):
    """The arguments of a small valid run of `command`, all but --out."""
    _, net = run_train(tmp_path)
    grid_cfg = tmp_path / "grid.cfg"
    grid_cfg.write_text(grid_cfg_text())
    return {
        "train": ["train", "--config", str(tmp_path / "train.cfg")],
        "phase": ["phase", "--config", str(grid_cfg)],
        "recall": ["recall", "--weights", str(net), "--flip-fractions", "0.1", "--trials", "1"],
    }[command]


@pytest.mark.parametrize("command", ["train", "phase", "recall"])
def test_negative_seed_flag_exits_2_naming_it_and_writes_nothing(tmp_path, capsys, command):
    argv = small_run_argv(tmp_path, command)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv + ["--out", str(out), "--seed", "-1"]) == 2
    assert_one_line_error(capsys, "--seed")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "phase"])
def test_a_problem_too_large_for_memory_exits_2_with_one_line(tmp_path, capsys, command):
    # 10^8 x 10^8 patterns take 71 PiB, beyond the address space: the allocator refuses
    # at once. A size the machine could grant must not be used here; its pages get touched.
    text = {
        "train": train_cfg_text(num_patterns=10**8, num_neurons=10**8),
        "phase": grid_cfg_text().replace("num_neurons = 8", f"num_neurons = {10**8}")
                                .replace("load_values = 0.25", "load_values = 1"),
    }[command]
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text)
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--workers", "1"]) == 2
    assert_one_line_error(capsys, "too large for memory", "71.1 PiB")
    assert not (tmp_path / "out").exists()


def test_train_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(train_cfg_text() + "typo_key = 1\n")
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "typo_key" in capsys.readouterr().err


def test_train_missing_config_exits_2(tmp_path):
    code = main(["train", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_train_divergence_exits_3_and_removes_partials(tmp_path, capsys):
    code, out = run_train(
        tmp_path, gamma=1e-4, num_patterns=8, num_neurons=8,
        learning_rate=5.0, max_epochs=200,
    )
    assert code == 3
    assert not (out / "patterns.txt").exists()
    assert not (out / "weights.txt").exists()
    assert not out.exists()
    assert "numeric failure" in capsys.readouterr().err


def test_diverging_descent_prints_no_numpy_warning(tmp_path):
    # The monitor reports the divergence; numpy's RuntimeWarnings, printed with their
    # source lines, would only bury it. A subprocess shows stderr as a user sees it.
    diverging = "num_neurons = 8\nlearning_rate = 1e300\nlambda = 0\nmax_epochs = 200\n"
    configs = {
        "train": "num_patterns = 8\ngamma = 1e-4\nseed = 11\n",
        "phase": "gamma_values = 1e-4\nload_values = 1.0\n",
    }
    stderr = {}
    for command, text in configs.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text + diverging)
        run = subprocess.run(
            [sys.executable, "-m", "hopgeo.cli", command, "--config", str(cfg),
             "--out", str(tmp_path / command)],
            env=source_env(), capture_output=True, text=True, timeout=300,
        )
        stderr[command] = (run.returncode, run.stderr.splitlines())
    assert stderr == {
        "train": (3, ["numeric failure: training diverged at neuron 0, epoch 1"]),
        "phase": (0, ["flags: 0 degenerate neuron-trials, 8 divergent neuron-trials"]),
    }


def test_usage_error_exit_code():
    assert main(["train"]) == 2
    assert main(["frobnicate"]) == 2


# case: (the arguments, OUT standing for an output path in tmp_path; the error's text)
USAGE_ERRORS = {
    "no_command": ([], "error: hopgeo: the following arguments are required: command"),
    "unknown_command": (["frobnicate"], "error: hopgeo: argument command: invalid choice: "
                                        "'frobnicate'"),
    "missing_flag": (["train", "--out", "OUT"],
                     "error: hopgeo train: the following arguments are required: --config"),
    "ill_typed_value": (["recall", "--weights", "w", "--flip-fractions", "0.1",
                         "--trials", "abc", "--out", "OUT"],
                        "error: hopgeo recall: argument --trials: invalid int value: 'abc'"),
    "ill_typed_workers": (["phase", "--config", "c.cfg", "--out", "OUT", "--workers", "two"],
                          "error: hopgeo phase: argument --workers: invalid int value: 'two'"),
    "unknown_flag": (["train", "--config", "c.cfg", "--out", "OUT", "--bogus"],
                     "error: hopgeo train: unrecognized arguments: --bogus"),
    # a prefix of --config is not --config
    "abbreviated_flag": (["train", "--con", "c.cfg", "--out", "OUT"],
                         "error: hopgeo train: the following arguments are required: --config"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_a_usage_error_is_one_line(tmp_path, capsys, case):
    args, message = USAGE_ERRORS[case]
    assert main([str(tmp_path / "out") if a == "OUT" else a for a in args]) == 2
    assert_one_line_error(capsys, message)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, usage", [(["--help"], "usage: hopgeo "),
                                         (["train", "--help"], "usage: hopgeo train ")])
def test_help_prints_usage_and_exits_0(capsys, args, usage):
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out.startswith(usage)
    assert err == ""


def test_spectrum_command_matches_in_process_oracle(tmp_path):
    _, out = run_train(tmp_path)
    csv_path = tmp_path / "spectrum.csv"
    svg_path = tmp_path / "spectrum.svg"
    code = main(["spectrum", "--weights", str(out),
                 "--out", str(csv_path), "--svg", str(svg_path)])
    assert code == 0
    assert svg_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "neuron,k,lambda_k,lambda_k_over_lambda_1"
    assert len(lines) == 1 + 16 * 3  # N neurons x P modes
    # check one neuron against an in-process recomputation
    ps = load_patterns(out / "patterns.txt")
    w = load_weights(out / "weights.txt")
    K = gram(ps, KernelConfig(gamma=w.gamma)).values
    spec = spectrum(fisher_matrix(w.alpha[:, 0], K))
    row0 = lines[1].split(",")
    assert int(row0[0]) == 0 and int(row0[1]) == 1
    assert float(row0[2]) == pytest.approx(spec.lambda_max, rel=1e-12)
    assert float(row0[3]) == 1.0


def test_spectrum_with_duplicate_columns_matches_per_neuron_spectra(tmp_path):
    # P = 3, N = 40: target columns repeat, and so do the trained alpha columns
    _, out = run_train(tmp_path, num_neurons=40)
    w = load_weights(out / "weights.txt")
    columns = [w.alpha[:, i].tobytes() for i in range(40)]
    assert len(set(columns)) < 40
    K = gram(load_patterns(out / "patterns.txt"), KernelConfig(gamma=w.gamma)).values
    specs = [spectrum(fisher_matrix(w.alpha[:, i], K)) for i in range(40)]
    write_spectrum_csv(specs, tmp_path / "want.csv")
    (tmp_path / "want.svg").write_text(render_spectrum_lines(specs))
    assert main(["spectrum", "--weights", str(out), "--out", str(tmp_path / "got.csv"),
                 "--svg", str(tmp_path / "got.svg")]) == 0
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "got.svg").read_bytes() == (tmp_path / "want.svg").read_bytes()


def test_spectrum_of_a_saturated_network_exits_0(tmp_path):
    # P = N = 1, field -400: lambda_1 = p(1-p) is about 1.9e-174, and its square underflows
    (tmp_path / "patterns.txt").write_text("1 1 0\n1\n")
    (tmp_path / "weights.txt").write_text("1 1 0.5 0 10\n-400\n")
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--weights", str(tmp_path), "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert 0.0 < float(row[2]) < 1e-170
    assert row[3] == "1"


def test_spectrum_with_an_unwritable_svg_exits_2_and_writes_nothing(tmp_path, capsys):
    _, out = run_train(tmp_path)
    csv_path, svg_path = tmp_path / "s.csv", tmp_path / "missing" / "s.svg"
    capsys.readouterr()
    assert main(["spectrum", "--weights", str(out), "--out", str(csv_path),
                 "--svg", str(svg_path)]) == 2
    assert_one_line_error(capsys, str(svg_path))
    assert not csv_path.exists()


def test_spectrum_svg_naming_the_out_file_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                    monkeypatch):
    _, out = run_train(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["spectrum", "--weights", str(out), "--out", "s.csv", "--svg", "./s.csv"]) == 2
    assert_one_line_error(capsys, "--svg ./s.csv")
    assert not (tmp_path / "s.csv").exists()


def run_on_artifacts(command, weights_dir, tmp_path):
    if command == "spectrum":
        return main(["spectrum", "--weights", str(weights_dir), "--out", str(tmp_path / "s.csv")])
    return main(["recall", "--weights", str(weights_dir), "--flip-fractions", "0.1",
                 "--trials", "1", "--out", str(tmp_path / "r.csv")])


def assert_one_line_error(capsys, *names):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    for name in names:
        assert name in err


@pytest.mark.parametrize("command", ["spectrum", "recall"])
@pytest.mark.parametrize("missing", ["patterns.txt", "weights.txt"])
def test_missing_artifact_exits_2_naming_the_file(tmp_path, capsys, command, missing):
    _, weights_dir = run_train(tmp_path)
    (weights_dir / missing).unlink()
    capsys.readouterr()
    assert run_on_artifacts(command, weights_dir, tmp_path) == 2
    assert_one_line_error(capsys, str(weights_dir / missing))


DAMAGE = {
    "empty": lambda text: "",
    "truncated": lambda text: text[: len(text) // 2],
    "garbled": lambda text: text.replace("\n", "\nx", 1),
    "zero_rows": lambda text: "0" + text[text.index(" "):],  # header P = 0
    "ragged": lambda text: text.rstrip("\n").rsplit(" ", 1)[0] + "\n",  # last row one short
}


@pytest.mark.parametrize("command", ["spectrum", "recall"])
@pytest.mark.parametrize("artifact", ["weights.txt", "patterns.txt"])
@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_artifact_exits_2_with_one_line(tmp_path, capsys, command, artifact, damage):
    _, out = run_train(tmp_path)
    path = out / artifact
    path.write_text(DAMAGE[damage](path.read_text()))
    capsys.readouterr()
    assert run_on_artifacts(command, out, tmp_path) == 2
    assert_one_line_error(capsys, artifact)


@pytest.mark.parametrize("command", ["spectrum", "recall"])
@pytest.mark.parametrize("entry", ["0", "2"])
def test_non_bipolar_patterns_exit_2_naming_the_file(tmp_path, capsys, command, entry):
    _, out = run_train(tmp_path)
    path = out / "patterns.txt"
    header, first, rest = path.read_text().split("\n", 2)
    path.write_text("\n".join([header, entry + first[first.index(" "):], rest]))
    capsys.readouterr()
    assert run_on_artifacts(command, out, tmp_path) == 2
    assert_one_line_error(capsys, f"{path}: pattern entries must be exactly -1 or +1")


@pytest.mark.parametrize("command", ["spectrum", "recall"])
def test_mismatched_artifacts_exit_2_with_one_line(tmp_path, capsys, command):
    _, out = run_train(tmp_path)
    _, other = run_train(tmp_path, sub="other", num_patterns=4)
    (out / "weights.txt").write_bytes((other / "weights.txt").read_bytes())
    capsys.readouterr()
    assert run_on_artifacts(command, out, tmp_path) == 2
    assert_one_line_error(capsys, "weights.txt", "patterns.txt")


# (artifact, header field, its position, a value out of its range); a bad gamma's id is the value
BAD_HEADER_FIELDS = [
    pytest.param("weights.txt", "gamma", 2, value, id=value) for value in ("0", "-1", "nan", "inf")
] + [
    pytest.param(artifact, field, i, value, id=f"{field}={value}")
    for artifact, field, i, value in [
        ("weights.txt", "lambda", 3, "nan"),
        ("weights.txt", "lambda", 3, "-5"),
        ("weights.txt", "epochs", 4, "-7"),
        ("patterns.txt", "seed", 2, "-1"),
    ]
]


@pytest.mark.parametrize("command", ["spectrum", "recall"])
@pytest.mark.parametrize("artifact, field, index, value", BAD_HEADER_FIELDS)
def test_weights_with_bad_gamma_exit_2_naming_the_file(tmp_path, capsys, command, artifact,
                                                       field, index, value):
    # every header field that is not P or N is range-checked on load, not only gamma
    _, out = run_train(tmp_path)
    path = out / artifact
    header, body = path.read_text().split("\n", 1)
    fields = header.split()
    fields[index] = value
    path.write_text(" ".join(fields) + "\n" + body)
    capsys.readouterr()
    assert run_on_artifacts(command, out, tmp_path) == 2
    assert_one_line_error(capsys, f"{path}: {field} must ")


@pytest.mark.parametrize("command", ["train", "spectrum", "phase", "recall"])
def test_output_path_under_a_file_exits_2_with_one_line(tmp_path, capsys, command):
    _, net = run_train(tmp_path)
    bad = net / "weights.txt" / "x"
    grid_cfg = tmp_path / "grid.cfg"
    grid_cfg.write_text(grid_cfg_text())
    argv = {
        "train": ["train", "--config", str(tmp_path / "train.cfg")],
        "spectrum": ["spectrum", "--weights", str(net)],
        "phase": ["phase", "--config", str(grid_cfg)],
        "recall": ["recall", "--weights", str(net), "--flip-fractions", "0.1", "--trials", "1"],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--out", str(bad)]) == 2
    assert_one_line_error(capsys, str(bad))


def test_phase_writes_grid_and_svgs(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())
    out = tmp_path / "phase"
    code = main(["phase", "--config", str(cfg), "--out", str(out), "--workers", "1"])
    assert code == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert len(lines) == 1 + 2  # header + one row per cell
    for metric in ("lambda_max", "d_eff", "rank1_residual"):
        assert (out / f"{metric}.svg").exists()
    assert (out / "manifest.json").exists()


def test_phase_writes_no_svg_when_a_heatmap_fails(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())
    out = tmp_path / "phase"
    render = cli.render_heatmap
    drawn = []

    def fail_on_the_second(cells, metric):
        drawn.append(metric)
        if len(drawn) == 2:
            raise NumericError(f"cannot draw {metric}")
        return render(cells, metric)

    monkeypatch.setattr(cli, "render_heatmap", fail_on_the_second)
    capsys.readouterr()
    assert main(["phase", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 3
    err = capsys.readouterr().err
    assert err == f"numeric failure: {out / 'grid.csv'}: cannot draw d_eff\n"
    assert not list(out.glob("*.svg"))


def test_a_failing_phase_removes_only_the_directories_it_made(tmp_path, monkeypatch):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())

    def fail(cells, metric):
        raise NumericError(f"cannot draw {metric}")

    monkeypatch.setattr(cli, "render_heatmap", fail)
    nested = tmp_path / "new" / "phase"
    assert main(["phase", "--config", str(cfg), "--out", str(nested), "--workers", "1"]) == 3
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("mine\n")
    assert main(["phase", "--config", str(cfg), "--out", str(kept), "--workers", "1"]) == 3
    assert (kept / "notes.txt").read_text() == "mine\n"


def test_a_failing_train_removes_the_files_it_wrote_and_no_others(tmp_path, capsys):
    out = tmp_path / "run"
    (out / "weights.txt").mkdir(parents=True)  # save_weights cannot write it
    (out / "notes.txt").write_text("mine\n")
    code, _ = run_train(tmp_path)
    assert code == 2
    assert_one_line_error(capsys, str(out / "weights.txt"))
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "weights.txt"]
    assert (out / "weights.txt").is_dir()  # patterns.txt, which this run wrote, is gone
    assert (out / "notes.txt").read_text() == "mine\n"


def test_a_failing_phase_removes_the_files_it_wrote_and_no_others(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())
    out = tmp_path / "phase"
    (out / "manifest.json").mkdir(parents=True)  # the manifest cannot be written
    (out / "notes.txt").write_text("mine\n")
    assert main(["phase", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 2
    assert_one_line_error(capsys, str(out / "manifest.json"))
    # grid.csv and the SVGs, which this run wrote, are gone
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "notes.txt"]
    assert (out / "notes.txt").read_text() == "mine\n"


def test_a_failing_render_removes_the_svgs_it_wrote_and_no_others(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())
    grid = tmp_path / "phase" / "grid.csv"
    assert main(["phase", "--config", str(cfg), "--out", str(grid.parent), "--workers", "1"]) == 0
    out = tmp_path / "svgs"
    (out / "d_eff.svg").mkdir(parents=True)  # written after lambda_max.svg
    assert main(["render", "--grid", str(grid), "--metrics", "lambda_max d_eff",
                 "--out", str(out)]) == 2
    assert_one_line_error(capsys, str(out / "d_eff.svg"))
    assert [p.name for p in out.iterdir()] == ["d_eff.svg"]


def test_manifest_lists_only_the_files_this_run_wrote(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())
    out = tmp_path / "out"
    assert main(["phase", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    assert set(digests(out / "manifest.json")) == {
        "grid.csv", "lambda_max.svg", "d_eff.svg", "rank1_residual.svg"}
    cfg.write_text(grid_cfg_text().replace("lambda_max d_eff rank1_residual", "lambda_max"))
    assert main(["phase", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    assert set(digests(out / "manifest.json")) == {"grid.csv", "lambda_max.svg"}
    (tmp_path / "train.cfg").write_text(train_cfg_text())
    assert main(["train", "--config", str(tmp_path / "train.cfg"), "--out", str(out)]) == 0
    assert set(digests(out / "manifest.json")) == {"patterns.txt", "weights.txt"}


def test_phase_worker_count_invariance(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())
    a = tmp_path / "w1"
    b = tmp_path / "w2"
    assert main(["phase", "--config", str(cfg), "--out", str(a), "--workers", "1"]) == 0
    assert main(["phase", "--config", str(cfg), "--out", str(b), "--workers", "2"]) == 0
    assert digests(a / "manifest.json") == digests(b / "manifest.json")


RERUN = {  # command: (its config, the outputs a rerun must reproduce)
    "phase": (
        grid_cfg_text().replace("metrics = lambda_max d_eff rank1_residual",
                                "metrics = d_eff recall_rate")
        + "recall_flip_fraction = 0.25\nsuccess_threshold = 0.8\nrecall_max_steps = 1\n",
        ["grid.csv"],
    ),
    "train": (train_cfg_text(), ["patterns.txt", "weights.txt"]),
}


@pytest.mark.parametrize("command", sorted(RERUN))
def test_reruns_from_its_manifest(tmp_path, command):
    config_text, outputs = RERUN[command]
    cfg = tmp_path / "first.cfg"
    cfg.write_text(config_text)
    first = tmp_path / "first"
    assert main([command, "--config", str(cfg), "--out", str(first),
                 "--workers", "1", "--seed", "9"]) == 0
    resolved = json.loads((first / "manifest.json").read_text())["resolved_config"]
    rerun_cfg = tmp_path / "rerun.cfg"
    rerun_cfg.write_text("".join(
        f"{key} = {' '.join(map(str, value)) if isinstance(value, list) else value}\n"
        for key, value in resolved.items()
    ))
    again = tmp_path / "again"
    assert main([command, "--config", str(rerun_cfg), "--out", str(again), "--workers", "1"]) == 0
    for name in outputs:
        assert (again / name).read_bytes() == (first / name).read_bytes()
    source = [json.loads((out / "manifest.json").read_text())["source_sha256"]
              for out in (first, again)]
    assert source[0] == source[1]


def edit_config(text, key, new):
    """`text` with the line of `key` replaced by the lines `new` (dropped if None).

    Also returns the number of the last line put in, 0 if none.
    """
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.split(" = ")[0] == key)
    new_lines = [] if new is None else new.split("\n")
    lines[i:i + 1] = new_lines
    return "\n".join(lines) + "\n", i + len(new_lines) if new_lines else 0


# case: (the key whose line is replaced, the lines put there, the message after `path:line: `)
CONFIG_MESSAGES = {
    "not_a_number": ("lambda", "lambda = x", "field 'lambda': not a number: 'x'"),
    "not_an_integer": ("max_epochs", "max_epochs = 1e3",
                       "field 'max_epochs': not an integer: '1e3'"),
    "not_a_list_of_numbers": ("load_values", "load_values = 0.25 x",
                              "field 'load_values': not a list of numbers: '0.25 x'"),
    "empty_list": ("load_values", "load_values =", "field 'load_values': empty list"),
    "empty_metrics": ("metrics", "metrics =", "field 'metrics': empty list"),
    "missing_required_field": ("num_neurons", None, "missing required field 'num_neurons'"),
    # the log-spaced gamma_min/gamma_max/gamma_count shorthand is not a grid key
    "gamma_shorthand": ("gamma_values", "gamma_min = 1e-3\ngamma_max = 1\ngamma_count = 3",
                        "missing required field 'gamma_values'"),
    "unknown_field": ("num_neurons", "num_neurons = 8\ntypo = 3", "unknown field 'typo'"),
    "duplicate_key": ("num_neurons", "num_neurons = 8\nnum_neurons = 8",
                      "duplicate key 'num_neurons'"),
    "no_equals_sign": ("num_neurons", "num_neurons 8",
                       "expected 'key = value', got 'num_neurons 8'"),
}
CONFIG_TEXT = {"train": train_cfg_text(), "phase": grid_cfg_text()}


def config_error(tmp_path, capsys, command, text):
    """The stderr of `command` on a config holding `text`, which must exit 2 and write nothing."""
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err.replace(str(cfg), "CFG")


@pytest.mark.parametrize("command, case", [
    (command, case)
    for command in CONFIG_TEXT
    for case in sorted(CONFIG_MESSAGES)
    if f"{CONFIG_MESSAGES[case][0]} = " in CONFIG_TEXT[command]  # train has no list key
])
def test_config_error_message(tmp_path, capsys, command, case):
    key, new, message = CONFIG_MESSAGES[case]
    text, line = edit_config(CONFIG_TEXT[command], key, new)
    where = "CFG:" if message.startswith("missing required field") else f"CFG:{line}:"
    assert config_error(tmp_path, capsys, command, text) == f"error: {where} {message}\n"


# a value that does not parse or a missing required key, then an unknown key, then a
# range error; case: (the key whose line is replaced, the lines put there, the line the
# error names or None for the file alone, the message)
CONFIG_ERROR_ORDER = {
    "unknown_key_before_range_error": ("lambda", "lambda = -1\ntypo = 3", "typo = 3",
                                       "unknown field 'typo'"),
    "parse_error_before_unknown_key": ("lambda", "lambda = x\ntypo = 3", "lambda = x",
                                       "field 'lambda': not a number: 'x'"),
    "missing_key_before_unknown_key": ("num_neurons", "typo = 3", None,
                                       "missing required field 'num_neurons'"),
}


@pytest.mark.parametrize("command", sorted(CONFIG_TEXT))
@pytest.mark.parametrize("case", sorted(CONFIG_ERROR_ORDER))
def test_config_errors_are_reported_in_order(tmp_path, capsys, command, case):
    key, new, at, message = CONFIG_ERROR_ORDER[case]
    text, _ = edit_config(CONFIG_TEXT[command], key, new)
    where = "CFG:" if at is None else f"CFG:{text.splitlines().index(at) + 1}:"
    assert config_error(tmp_path, capsys, command, text) == f"error: {where} {message}\n"


@pytest.mark.parametrize("command", sorted(CONFIG_TEXT))
def test_non_utf8_config_exits_2_naming_the_file(tmp_path, capsys, command):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_bytes(CONFIG_TEXT[command].encode() + b"\xff\xfe = 3\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert_one_line_error(capsys, f"{cfg}: not a text file")
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(CONFIG_TEXT))
def test_a_utf8_config_is_read_in_any_locale(tmp_path, command):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_bytes("# café\n".encode() + CONFIG_TEXT[command].encode())
    env = {**source_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    run = subprocess.run(
        [sys.executable, "-m", "hopgeo.cli", command, "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--workers", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("command", sorted(CONFIG_TEXT))
def test_a_config_with_a_byte_order_mark_reads_as_without(tmp_path, command):
    outputs = {}
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(bom + CONFIG_TEXT[command].encode())
        out = tmp_path / name
        assert main([command, "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in out.iterdir()
                         if p.name != "manifest.json"}
    assert outputs["bom"] == outputs["plain"]


def test_blas_runs_one_thread_unless_the_caller_sets_a_count(tmp_path):
    # At P = N = 256 a second OpenBLAS thread changes the bits of eigh, so an
    # unset thread count must give the bytes of one thread on any machine.
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("gamma_values = 0.001\nload_values = 1.0\nnum_neurons = 256\n"
                   "max_epochs = 40\nlearning_rate = 0.1\nlambda = 1e-6\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    grids, recorded = {}, {}
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads}"
        run = subprocess.run(
            [sys.executable, "-m", "hopgeo.cli", "phase", "--config", str(cfg), "--out", str(out),
             "--workers", "1"], env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        grids[threads] = (out / "grid.csv").read_bytes()
        recorded[threads] = json.loads((out / "manifest.json").read_text())["openblas_num_threads"]
    assert grids[None] == grids["1"]
    assert recorded == {None: "1", "1": "1", "2": "2"}


def test_phase_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("gamma_values = 0.1\nload_values = 0.5\n")  # missing num_neurons
    code = main(["phase", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "num_neurons" in capsys.readouterr().err


def test_recall_zero_corruption_is_perfect(tmp_path):
    _, out = run_train(tmp_path)
    rc_path = tmp_path / "recall.csv"
    code = main(["recall", "--weights", str(out), "--flip-fractions", "0",
                 "--trials", "2", "--out", str(rc_path)])
    assert code == 0
    lines = rc_path.read_text().splitlines()
    assert lines[0] == "trial,target,flip_fraction,steps,converged,overlap,success"
    rows = [l for l in lines if l and not l.startswith("#")][1:]
    assert len(rows) == 2 * 3  # trials x patterns
    assert all(r.endswith(",true") for r in rows)
    summaries = [l for l in lines if l.startswith("# success_rate")]
    assert len(summaries) == 1
    assert "rate=1" in summaries[0]


def test_recall_multiple_fractions_and_determinism(tmp_path):
    _, out = run_train(tmp_path)
    p1 = tmp_path / "r1.csv"
    p2 = tmp_path / "r2.csv"
    args = ["recall", "--weights", str(out), "--flip-fractions", "0 0.1",
            "--trials", "3", "--seed", "5"]
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    summaries = [l for l in p1.read_text().splitlines() if l.startswith("#")]
    assert len(summaries) == 2


def recall_rows(text):
    return [line.split(",") for line in text.splitlines()[1:] if not line.startswith("#")]


def test_recall_writes_one_summary_line_per_given_fraction(tmp_path):
    _, net = run_train(tmp_path)
    fractions = ["0.3", "0", "0.3"]
    out = tmp_path / "r.csv"
    assert main(["recall", "--weights", str(net), "--flip-fractions", " ".join(fractions),
                 "--trials", "2", "--seed", "1", "--workers", "2", "--out", str(out)]) == 0
    text = out.read_text()
    rows = recall_rows(text)
    summaries = [line for line in text.splitlines() if line.startswith("#")]
    per_fraction = 2 * 3  # trials x patterns; the fractions' rows come in the given order
    assert len(rows) == len(fractions) * per_fraction
    assert len(summaries) == len(fractions)
    for fi, (frac, line) in enumerate(zip(fractions, summaries)):
        block = rows[fi * per_fraction:(fi + 1) * per_fraction]
        assert all(float(row[2]) == float(frac) for row in block)
        rate = sum(row[6] == "true" for row in block) / per_fraction
        assert line == f"# success_rate flip_fraction={float(frac):.17g} rate={rate:.17g}"


def test_recall_csv_bytes_do_not_depend_on_worker_count(tmp_path):
    _, net = run_train(tmp_path)
    args = ["recall", "--weights", str(net), "--flip-fractions", "0 0.25 0.5",
            "--trials", "3", "--max-steps", "1", "--seed", "4"]
    outputs = []
    for workers in ("1", "2", "5000"):
        out = tmp_path / f"recall-{workers}.csv"
        assert main(args + ["--workers", workers, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    rows = recall_rows(outputs[0].decode())
    assert len(rows) == 3 * 3 * 3  # fractions x trials x patterns
    assert [r[0] for r in rows[:9]] == ["0"] * 3 + ["1"] * 3 + ["2"] * 3  # trial order kept
    assert {tuple(r[3:5]) for r in rows} == {("1", "true"), ("1", "false")}  # some hit --max-steps
    assert multiprocessing.active_children() == []  # no pool worker outlives the command


def test_recall_pool_has_at_most_one_worker_per_task(tmp_path, pool_sizes):
    _, net = run_train(tmp_path)
    out = tmp_path / "r.csv"

    def recall(fractions, trials, workers):
        return main(["recall", "--weights", str(net), "--flip-fractions", fractions,
                     "--trials", trials, "--workers", workers, "--out", str(out)])

    assert recall("0 0.1", "3", "5000") == 0  # a task per (fraction, trial)
    assert recall("0 0.1", "3", "2") == 0  # a task per (fraction, half of its trials)
    assert recall("0.1", "1", "5000") == 0  # one task: no pool
    assert pool_sizes == [6, 2]


def test_recall_splits_trials_only_for_processes_the_pool_can_start(tmp_path, monkeypatch):
    _, net = run_train(tmp_path)
    args = ["recall", "--weights", str(net), "--flip-fractions", "0 0.1", "--trials", "4",
            "--max-steps", "1"]
    assert main(args + ["--workers", "1", "--out", str(tmp_path / "serial.csv")]) == 0
    handed = []

    def recording(fn, tasks, workers):
        handed.append([fi for fi, _, _ in tasks])
        return [fn(task) for task in tasks]

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "pool_map", recording)
    assert main(args + ["--workers", "50", "--out", str(tmp_path / "r.csv")]) == 0
    assert handed == [[0, 0, 1, 1]]  # two tasks per fraction on a machine of 2 CPUs
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


@pytest.mark.parametrize("command, error, code", [
    ("recall", NumericError("non-finite field"), 3),
    ("recall", FieldError("max_steps", "must be >= 1, got 0"), 2),
    ("phase", NumericError("non-finite field"), 3),
    ("phase", FieldError("gamma", "must be > 0, got 0"), 2),
    ("phase", TrainingDivergenceError(3, 7), 3),
])
def test_error_inside_a_pool_task_exits_with_one_line(tmp_path, capsys, monkeypatch,
                                                      command, error, code):
    _, net = run_train(tmp_path)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())

    def fail(*args, **kwargs):
        raise error

    # the pool forks after the patch, so its workers raise too
    monkeypatch.setattr(*{"recall": (cli, "recall_trial"), "phase": (sweep, "run_cell")}[command],
                        fail)
    argv = {
        "recall": ["recall", "--weights", str(net), "--flip-fractions", "0 0.1", "--trials", "2"],
        "phase": ["phase", "--config", str(cfg)],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--workers", "2", "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(error) in err
    assert multiprocessing.active_children() == []


def test_a_pool_worker_that_dies_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())

    def die(*args):
        os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer would

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool of 2, forked after the patch
    monkeypatch.setattr(sweep, "run_cell", die)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["phase", "--config", str(cfg), "--workers", "2", "--out", str(out)]) == 2
    assert_one_line_error(capsys, "a worker process died")
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_an_interrupted_serial_run_exits_130_with_one_line(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(sweep, "run_cell", interrupt)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["phase", "--config", str(cfg), "--workers", "1", "--out", str(out)]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert not out.exists()


INTERRUPTED_PHASE = """
import os, signal, sys, time
from hopgeo import cli, sweep

def run_cell(*args):  # records its worker, then outlasts the test
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60)

signal.signal(signal.SIGINT, signal.default_int_handler)  # a background job ignores SIGINT
sweep.run_cell = run_cell
sys.exit(cli.main(sys.argv[2:]))
"""


@contextmanager
def pool_of_two_running(tmp_path):
    """Yields (process, pids, out) once the INTERRUPTED_PHASE process runs a cell in each of
    its two workers, whose PIDs name the files in `pids`; after the block none of them runs."""
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())  # two cells, so two workers
    pids, out = tmp_path / "pids", tmp_path / "out"
    pids.mkdir()
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_PHASE, str(pids),
         "phase", "--config", str(cfg), "--workers", "2", "--out", str(out)],
        env=source_env(), stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while len(list(pids.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(list(pids.iterdir())) == 2, "the pool did not start both cells"
        yield proc, pids, out
    finally:  # a failing run leaves no process behind
        proc.kill()
        for pid in filter(alive, worker_pids(pids)):
            os.kill(pid, signal.SIGKILL)
        proc.communicate()  # reads stderr to its end, so after every worker that holds it


def assert_workers_exit_within(seconds, pids):
    deadline = time.monotonic() + seconds
    while any(map(alive, worker_pids(pids))) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(alive, worker_pids(pids)))


def test_an_interrupted_pool_exits_130_with_one_line_and_stops_its_workers(tmp_path):
    with pool_of_two_running(tmp_path) as (proc, pids, out):
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=5)  # the running cells are not waited for
        assert (proc.returncode, err) == (130, "interrupted\n")
        assert not out.exists()
        assert_workers_exit_within(1, pids)


def test_the_workers_of_a_killed_pool_exit(tmp_path):
    with pool_of_two_running(tmp_path) as (proc, pids, _):
        proc.kill()  # SIGKILL: the parent runs no handler and its workers are orphaned
        proc.wait()
        assert_workers_exit_within(2, pids)


def worker_pids(pids) -> list:
    return [int(p.name) for p in pids.iterdir()]


def alive(pid) -> bool:
    """Whether `pid` runs. On Linux a zombie, which its adopter has not reaped yet, does not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:  # gone since, or a system without /proc
        return sys.platform != "linux"


@pytest.mark.parametrize("command", ["train", "phase", "recall"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exits_2_naming_it_and_writes_nothing(tmp_path, capsys, command,
                                                               workers):
    argv = small_run_argv(tmp_path, command)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv + ["--out", str(out), "--workers", workers]) == 2
    assert_one_line_error(capsys, f"error: --workers must be >= 1, got {workers}")
    assert not out.exists()


def test_recall_bad_fraction_exits_2(tmp_path):
    _, out = run_train(tmp_path)
    assert main(["recall", "--weights", str(out), "--flip-fractions", "1.5",
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert main(["recall", "--weights", str(out), "--flip-fractions", "0.1",
                 "--trials", "0", "--out", str(tmp_path / "r.csv")]) == 2


def test_render_from_existing_grid(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())
    out = tmp_path / "phase"
    assert main(["phase", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    rout = tmp_path / "rendered"
    code = main(["render", "--grid", str(out / "grid.csv"),
                 "--metrics", "lambda_max d_eff", "--out", str(rout)])
    assert code == 0
    assert (rout / "lambda_max.svg").read_bytes() == (out / "lambda_max.svg").read_bytes()
    assert (rout / "d_eff.svg").read_bytes() == (out / "d_eff.svg").read_bytes()


def default_phase(tmp_path):
    """grid.csv of a one-cell `phase` run with the default metrics, so recall_rate is nan."""
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("gamma_values = 0.1\nload_values = 0.25\nnum_neurons = 16\nmax_epochs = 50\n")
    out = tmp_path / "phase"
    assert main(["phase", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    return out


def test_render_by_default_draws_what_the_grid_holds(tmp_path):
    out = default_phase(tmp_path)
    rout = tmp_path / "rendered"
    assert main(["render", "--grid", str(out / "grid.csv"), "--out", str(rout)]) == 0
    names = sorted(p.name for p in rout.iterdir())
    assert names == sorted(f"{m}.svg" for m in GridConfig.metrics)
    assert len(names) == 5
    for name in names:
        assert (rout / name).read_bytes() == (out / name).read_bytes()


def test_render_reads_a_grid_with_a_byte_order_mark_as_without(tmp_path):
    out = default_phase(tmp_path)
    bom_grid = tmp_path / "bom.csv"
    bom_grid.write_bytes(b"\xef\xbb\xbf" + (out / "grid.csv").read_bytes())
    rendered = {}
    for name, grid in (("plain", out / "grid.csv"), ("bom", bom_grid)):
        assert main(["render", "--grid", str(grid), "--out", str(tmp_path / name)]) == 0
        rendered[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert rendered["bom"] == rendered["plain"]
    assert len(rendered["plain"]) == 5


@pytest.mark.parametrize("metrics", ["recall_rate", "d_eff recall_rate"])
def test_render_of_an_unmeasured_metric_names_the_grid_and_writes_no_svg(tmp_path, capsys,
                                                                          metrics):
    grid = default_phase(tmp_path) / "grid.csv"
    capsys.readouterr()
    rout = tmp_path / "rendered"
    assert main(["render", "--grid", str(grid), "--metrics", metrics, "--out", str(rout)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric failure: {grid}: ") and err.count("\n") == 1, err
    assert "recall_rate" in err
    assert not rout.exists()


def test_render_header_only_grid_exits_2_and_writes_no_svg(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text(",".join(CSV_COLUMNS) + "\n")
    assert main(["render", "--grid", str(grid), "--out", str(tmp_path / "svg")]) == 2
    assert_one_line_error(capsys, str(grid))
    assert not list(tmp_path.rglob("*.svg"))


def grid_text(*cells) -> str:
    return "".join(f"{','.join(map(str, row))}\n" for row in [CSV_COLUMNS, *map(astuple, cells)])


NO_FINITE_METRIC = ": no metric column holds a finite value"
# a one-cell grid that renders its d_eff heatmap
DRAWABLE_GRID = grid_text(SweepCell(gamma=0.1, load=0.25, P=2, N=8, seed=0, trials=1,
                                    d_eff_mean=1.5))
OVERSIZED = "1" * (csv.field_size_limit() + 1)  # one character over csv's field size limit
# case: (the grid.csv text, the error after its path)
GRID_ROWS = {
    "missing_columns": ("gamma,load\n0.1,0.5\n", ": missing columns: P, N, seed, trials,"),
    "short_row": (",".join(CSV_COLUMNS) + "\n0.1,0.5,4\n", ":2: malformed row"),
    "long_row": (DRAWABLE_GRID.rstrip("\n") + ",999\n", ":2: malformed row"),
    # a field over the limit on line 3, after a good row, then one on the header line
    "oversized_field": (DRAWABLE_GRID + OVERSIZED + "\n", ":3: malformed row"),
    "oversized_header": (OVERSIZED + "," + DRAWABLE_GRID, ":1: malformed row"),
    "non_numeric": (",".join(CSV_COLUMNS) + "\n" + ",".join(["x"] * len(CSV_COLUMNS)) + "\n",
                    ":2: malformed row"),
    # every metric nan: without --metrics there is nothing to draw
    "no_finite_metric": (grid_text(*(SweepCell(gamma=gamma, load=0.25, P=2, N=8, seed=0,
                                               trials=1) for gamma in (0.01, 0.1))),
                         NO_FINITE_METRIC),
    # the cell is refused as it is read, before render looks for a metric
    "no_finite_metric_in_a_cell_out_of_range": (
        grid_text(SweepCell(gamma=math.nan, load=5, P=2, N=8, seed=0, trials=-1)),
        ":2: gamma must be finite and > 0, got nan"),
}


@pytest.mark.parametrize("case", sorted(GRID_ROWS))
def test_render_malformed_grid_exits_2_with_one_line(tmp_path, capsys, case):
    grid = tmp_path / "grid.csv"
    text, message = GRID_ROWS[case]
    grid.write_text(text)
    assert main(["render", "--grid", str(grid), "--out", str(tmp_path / "svg")]) == 2
    assert_one_line_error(capsys, f"{grid}{message}")
    assert not (tmp_path / "svg").exists()


# the changes to the two cells (lines 2 and 3) of a gamma 0.01 / 0.1, load 0.25 grid.csv,
# each a cell no phase run writes, and the error after the grid's path
OUT_OF_RANGE_CELLS = {
    "nan_gamma": ({"gamma": math.nan}, {"gamma": math.nan},
                  ":2: gamma must be finite and > 0, got nan"),
    "negative_gamma": ({"gamma": -0.1}, {}, ":2: gamma must be > 0, got -0.1"),
    "load_above_one": ({"load": 1.5}, {"load": 1.5}, ":2: load must lie in (0, 1], got 1.5"),
    "zero_trials": ({"trials": 0}, {}, ":2: trials must be >= 1, got 0"),
    "zero_neurons": ({}, {"N": 0}, ":3: N must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_CELLS))
def test_render_refuses_a_cell_out_of_range_and_writes_no_svg(tmp_path, capsys, case):
    grid = tmp_path / "grid.csv"
    *changes, message = OUT_OF_RANGE_CELLS[case]
    write_grid_csv([
        replace(SweepCell(gamma=gamma, load=0.25, P=2, N=8, seed=0, trials=1,
                          lambda_max_mean=1.0), **change)
        for gamma, change in zip((0.01, 0.1), changes, strict=True)
    ], grid)
    assert main(["render", "--grid", str(grid), "--out", str(tmp_path / "svg")]) == 2
    assert_one_line_error(capsys, f"{grid}{message}")
    assert not list(tmp_path.rglob("*.svg"))


# grid_cfg_text() line to replace, its replacement, the field the error names
GRID_RANGE_ERRORS = {
    "descending_loads": ("load_values = 0.25", "load_values = 0.5 0.25", "load_values"),
    "descending_gammas": ("gamma_values = 0.02 0.2", "gamma_values = 0.2 0.02", "gamma_values"),
    "repeated_gamma": ("gamma_values = 0.02 0.2", "gamma_values = 0.2 0.2", "gamma_values"),
    "repeated_load": ("load_values = 0.25", "load_values = 0.25 0.25", "load_values"),
    "nonpositive_gamma": ("gamma_values = 0.02 0.2", "gamma_values = 0 0.2", "gamma_values"),
    "zero_trials": ("trials_per_cell = 2", "trials_per_cell = 0", "trials_per_cell"),
    "negative_base_seed": ("base_seed = 3", "base_seed = -1", "base_seed"),
    "negative_lambda": ("lambda = 1e-5", "lambda = -1", "lambda"),
    # recall keys: the bad key takes the replaced line, which then follows it
    "negative_flip_fraction": ("num_neurons = 8", "recall_flip_fraction = -0.1\nnum_neurons = 8",
                               "recall_flip_fraction"),
    "flip_fraction_above_1": ("num_neurons = 8", "recall_flip_fraction = 1.5\nnum_neurons = 8",
                              "recall_flip_fraction"),
    "zero_success_threshold": ("num_neurons = 8", "success_threshold = 0\nnum_neurons = 8",
                               "success_threshold"),
    "success_threshold_above_1": ("num_neurons = 8", "success_threshold = 1.01\nnum_neurons = 8",
                                  "success_threshold"),
    "zero_recall_max_steps": ("num_neurons = 8", "recall_max_steps = 0\nnum_neurons = 8",
                              "recall_max_steps"),
    "zero_rel_cutoff": ("num_neurons = 8", "rel_cutoff = 0\nnum_neurons = 8", "rel_cutoff"),
    "unit_rel_cutoff": ("num_neurons = 8", "rel_cutoff = 1\nnum_neurons = 8", "rel_cutoff"),
    "rel_cutoff_above_1": ("num_neurons = 8", "rel_cutoff = 2\nnum_neurons = 8", "rel_cutoff"),
    "nan_rel_cutoff": ("num_neurons = 8", "rel_cutoff = nan\nnum_neurons = 8", "rel_cutoff"),
    # 2.5e10 patterns of 1e11 neurons: more bytes than the largest array holds
    "patterns_beyond_the_largest_array": ("num_neurons = 8", "num_neurons = 100000000000",
                                          "num_neurons"),
    "nan_gamma": ("gamma_values = 0.02 0.2", "gamma_values = nan", "gamma_values"),
    "inf_gamma": ("gamma_values = 0.02 0.2", "gamma_values = 0.02 inf", "gamma_values"),
    "zero_num_neurons": ("num_neurons = 8", "num_neurons = 0", "num_neurons"),
    # num_neurons * load would overflow a float
    "huge_num_neurons": ("num_neurons = 8", "num_neurons = 1" + "0" * 400, "num_neurons"),
    "nan_lambda": ("lambda = 1e-5", "lambda = nan", "lambda"),
    "inf_learning_rate": ("learning_rate = 0.02", "learning_rate = inf", "learning_rate"),
    "nan_grad_tol": ("num_neurons = 8", "grad_tol = nan\nnum_neurons = 8", "grad_tol"),
}


@pytest.mark.parametrize("case", sorted(GRID_RANGE_ERRORS))
def test_phase_range_error_names_file_line_and_field(tmp_path, capsys, case):
    old, new, field = GRID_RANGE_ERRORS[case]
    text = grid_cfg_text()
    line = text.splitlines().index(old) + 1
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(text.replace(old, new))
    assert main(["phase", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert_one_line_error(capsys, f"{cfg}:{line}: field '{field}': ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("num_neurons", 0), ("lambda", "nan"), ("learning_rate", "inf"), ("grad_tol", "nan"),
    pytest.param("num_patterns", "1" + "0" * 400, id="num_patterns-401_digits"),
    pytest.param("num_neurons", "1" + "0" * 400, id="num_neurons-401_digits"),
    # 3 patterns of 1e18 neurons: more bytes than the largest array holds
    pytest.param("num_neurons", "1" + "0" * 18, id="num_neurons-beyond_the_largest_array"),
])
def test_train_range_error_names_file_line_and_field(tmp_path, capsys, key, value):
    code, out = run_train(tmp_path, **{key: value})
    assert code == 2
    line = [k.split(" = ")[0] for k in train_cfg_text().splitlines()].index(key) + 1
    assert_one_line_error(capsys, f"{tmp_path / 'train.cfg'}:{line}: field '{key}': ")
    assert not out.exists()


def float_keys(cls):
    """The keys of a config dataclass whose fields hold floats, nested dataclasses included."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from float_keys(hints[f.name])
        elif hints[f.name] in (float, list[float]):
            yield f.metadata.get("key", f.name)


@pytest.mark.parametrize("command, key, value", [
    (command, key, value)
    for command, cls in (("train", TrainRun), ("phase", GridConfig))
    for key in float_keys(cls)
    for value in ("nan", "inf", "-inf")
])
def test_every_float_key_rejects_nonfinite_values(tmp_path, capsys, command, key, value):
    text = CONFIG_TEXT[command]
    if f"\n{key} = " in "\n" + text:
        text, line = edit_config(text, key, f"{key} = {value}")
    else:
        text, line = text + f"{key} = {value}\n", len(text.splitlines()) + 1
    err = config_error(tmp_path, capsys, command, text)
    assert err.startswith(f"error: CFG:{line}: field '{key}': must be finite")
    assert err.count("\n") == 1


RECALL_FLAGS = {"--flip-fractions": "0.1", "--trials": "1", "--max-steps": "100",
                "--success-threshold": "0.95"}


@pytest.mark.parametrize("flag, value", [
    ("--flip-fractions", "abc"), ("--flip-fractions", ""), ("--flip-fractions", "0.1 1.5"),
    ("--flip-fractions", "nan"), ("--flip-fractions", "-0.1"), ("--trials", "0"),
    ("--max-steps", "0"), ("--max-steps", "-1"), ("--success-threshold", "0"),
    ("--success-threshold", "1.01"), ("--success-threshold", "inf"),
])
def test_recall_flag_error_names_the_flag_before_reading_artifacts(tmp_path, capsys, flag, value):
    argv = ["recall", "--weights", str(tmp_path / "missing"), "--out", str(tmp_path / "r.csv")]
    for name, default in RECALL_FLAGS.items():
        argv += [name, value if name == flag else default]
    assert main(argv) == 2
    assert_one_line_error(capsys, f"error: {flag} must ")
    assert not (tmp_path / "r.csv").exists()


# each RecallConfig field: its grid key, its `recall` flag, and the values drawn for it
RECALL_SETTINGS = {
    "flip_fraction": ("recall_flip_fraction", "--flip-fractions",
                      st.floats(-0.5, 1.5) | st.floats()),
    "success_threshold": ("success_threshold", "--success-threshold",
                          st.floats(-0.5, 1.5) | st.floats()),
    "max_steps": ("recall_max_steps", "--max-steps", st.integers(-2, 200) | st.integers()),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_recall_setting_is_accepted_or_refused_alike_by_config_file_and_flag(data):
    # RecallConfig, the grid keys and the `recall` flags take the same values, and refuse
    # the same first one with the same message, named by the key, file:line and key, or flag
    values = {name: data.draw(drawn, label=name)
              for name, (_, _, drawn) in RECALL_SETTINGS.items()}
    try:
        want, refused = RecallConfig(**values), None
    except FieldError as e:
        want, refused = None, e
    keys = [key for key, _, _ in RECALL_SETTINGS.values()]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "grid.cfg"
        cfg.write_text("gamma_values = 0.1\nload_values = 0.25\nnum_neurons = 8\n" + "".join(
            f"{key} = {values[name]!r}\n" for name, (key, _, _) in RECALL_SETTINGS.items()))
        argv = ["recall", "--weights", tmp, "--out", str(Path(tmp) / "r.csv")]
        argv += [f"{flag}={values[name]!r}" for name, (_, flag, _) in RECALL_SETTINGS.items()]
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(argv) == 2
        if refused is None:  # the flags pass, and the missing artifacts are read
            assert grid_config_from_file(cfg).recall == want
            assert err.getvalue().endswith(f"{Path(tmp) / 'patterns.txt'}'\n")
            return
        assert refused.field in keys
        with pytest.raises(ConfigError) as e:
            grid_config_from_file(cfg)
        line = 4 + keys.index(refused.field)
        assert str(e.value) == f"{cfg}:{line}: field '{refused.field}': {refused.message}"
        flag = next(flag for key, flag, _ in RECALL_SETTINGS.values() if key == refused.field)
        assert err.getvalue() == f"error: {flag} {refused.message}\n"


def test_render_unknown_metric_exits_2(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(grid_cfg_text())
    out = tmp_path / "phase"
    assert main(["phase", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    for metrics, message in [("bogus", "unknown metric 'bogus'"),
                             ("", "--metrics must be nonempty"),
                             (" ", "--metrics must be nonempty")]:
        capsys.readouterr()
        assert main(["render", "--grid", str(out / "grid.csv"),
                     "--metrics", metrics, "--out", str(tmp_path / "x")]) == 2
        assert_one_line_error(capsys, f"error: {message}")
        assert not (tmp_path / "x").exists()


def readme_cli_examples() -> list:
    """The argument lists of the `hopgeo ...` lines in README's CLI block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hopgeo ")]


README_EXAMPLES = readme_cli_examples()


def test_readme_shows_every_command():
    assert sorted(args[0] for args in README_EXAMPLES) == sorted(
        ["train", "spectrum", "recall", "phase", "render"])


@pytest.mark.parametrize("args", README_EXAMPLES, ids=lambda args: args[0])
def test_readme_cli_example_parses(args):
    assert cli.build_parser().parse_args(args).command == args[0]


def test_version_flag_exits_zero():
    assert main(["--version"]) == 0
