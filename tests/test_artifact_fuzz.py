"""Damaged artifacts and configs end in exit 2 or 3 with one stderr line naming the file.

Hypothesis truncates, garbles and reorders patterns.txt and weights.txt (read
by `spectrum` and `recall`) and grid.csv (read by `render`). Every damage
leaves a file that no valid artifact equals, so the command must refuse it:
  * truncate keeps a prefix that ends before the last line starts, and every
    line of these files is needed (P rows; grid.csv of a one-cell sweep);
  * garble replaces a span, or inserts, bytes that belong to no number,
    separator or line break, so the token they land in cannot parse;
  * reorder moves the header line off the top.

It also breaks the config of `train` (the fields of TrainRun) and of `phase`
(those of GridConfig), at the line of one field: it drops a required line,
duplicates a line, garbles bytes in or at the end of the line (bytes that
belong to no key, number, separator, comment or line break) or writes a value
that does not parse as the field's type. No output directory may be made.
"""

import contextlib
import io
import shutil
import tempfile
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopgeo.cli import TrainRun, main
from hopgeo.sweep import GridConfig

JUNK = [b"x", b"#", b"@", b"!", b"?", b";", b'"', b"\x00", b"\x7f", b"\x80", b"\xff"]
FUZZ = settings(max_examples=60, deadline=None, database=None, derandomize=True)


@st.composite
def damaged(draw, text: bytes):
    how = draw(st.sampled_from(["truncate", "garble", "reorder"]))
    if how == "truncate":
        last_line = text.rstrip(b"\n").rfind(b"\n") + 1
        return text[:draw(st.integers(0, last_line - 1))]
    if how == "garble":
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(start + 4, len(text))))
        junk = b"".join(draw(st.lists(st.sampled_from(JUNK), min_size=1, max_size=4)))
        return text[:start] + junk + text[end:]
    lines = text.splitlines()
    order = draw(st.permutations(range(len(lines))).filter(lambda order: order[0] != 0))
    return b"\n".join(lines[i] for i in order) + b"\n"


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A trained network (P = 3, N = 16) and a one-cell grid.csv."""
    root = tmp_path_factory.mktemp("runs")
    (root / "train.cfg").write_text(
        "num_patterns = 3\nnum_neurons = 16\ngamma = 0.05\nseed = 11\n"
        "learning_rate = 0.02\nlambda = 1e-5\nmax_epochs = 500\n"
    )
    (root / "grid.cfg").write_text(
        "gamma_values = 0.1\nload_values = 0.25\nnum_neurons = 8\nmax_epochs = 50\n"
    )
    assert main(["train", "--config", str(root / "train.cfg"), "--out", str(root / "net")]) == 0
    assert main(["phase", "--config", str(root / "grid.cfg"), "--out", str(root / "phase"),
                 "--workers", "1"]) == 0
    return root


def command(name, work: Path):
    if name == "spectrum":
        return ["spectrum", "--weights", str(work), "--out", str(work / "s.csv")]
    if name == "recall":
        return ["recall", "--weights", str(work), "--flip-fractions", "0.1", "--trials", "1",
                "--out", str(work / "r.csv")]
    return ["render", "--grid", str(work / "grid.csv"), "--metrics", "lambda_max d_eff",
            "--out", str(work / "svg")]


def check_refused(runs, artifact, name, data):
    source = runs / ("phase" if artifact == "grid.csv" else "net")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for f in ("patterns.txt", "weights.txt", "grid.csv"):
            if (source / f).exists():
                shutil.copy(source / f, work / f)
        path = work / artifact
        path.write_bytes(data.draw(damaged(path.read_bytes()), label=artifact))
        assert_refused(command(name, work), path)


def assert_refused(argv, path):
    """`main(argv)` exits 2 or 3 with one stderr line, no traceback, naming `path`."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (2, 3), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
    assert str(path) in err, err


@pytest.mark.parametrize("artifact", ["patterns.txt", "weights.txt"])
@pytest.mark.parametrize("name", ["spectrum", "recall"])
@FUZZ
@given(data=st.data())
def test_damaged_network_artifact_is_refused(runs, artifact, name, data):
    check_refused(runs, artifact, name, data)


@FUZZ
@given(data=st.data())
def test_damaged_grid_csv_is_refused(runs, data):
    check_refused(runs, "grid.csv", "render", data)


CONFIG_JUNK = [b"@", b"!", b"?", b";", b'"', b"\x00", b"\x7f", b"\x80", b"\xff"]
# values that no parser of the type hint accepts
WRONG_TYPED = {
    int: ["1.5", "1e3", "0x10", "ten", "1 2", ""],
    float: ["abc", "1,5", "0x1p3", "1..5", "true", "1 2", ""],
    list[float]: ["a b", "0.1,0.2", "0.1 x", ""],
    tuple[str, ...]: ["1 2", "lambda_max 3", "True", ""],
}
CONFIGS = {  # command: (its config dataclass, a valid value for every key)
    "train": (TrainRun, {
        "num_patterns": "3", "num_neurons": "16", "gamma": "0.05", "seed": "11",
        "lambda": "1e-5", "learning_rate": "0.02", "max_epochs": "500", "grad_tol": "1e-6",
    }),
    "phase": (GridConfig, {
        "gamma_values": "0.1", "load_values": "0.25", "num_neurons": "8", "trials_per_cell": "1",
        "base_seed": "0", "lambda": "1e-5", "learning_rate": "0.02", "max_epochs": "50",
        "grad_tol": "1e-6", "rel_cutoff": "1e-10", "metrics": "lambda_max d_eff",
        "recall_flip_fraction": "0.1", "success_threshold": "0.95", "recall_max_steps": "100",
    }),
}


def config_fields(cls):
    """(key, type hint, required) of each field of a config dataclass, nested ones included."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from config_fields(hints[f.name])
        else:
            required = f.default is MISSING and f.default_factory is MISSING
            yield f.metadata.get("key", f.name), hints[f.name], required


def config_lines(command):
    cls, valid = CONFIGS[command]
    keys = list(config_fields(cls))
    assert [key for key, _, _ in keys] == list(valid)  # every field is written
    return keys, [f"{key} = {valid[key]}" for key, _, _ in keys]


@st.composite
def broken_config(draw, command):
    keys, lines = config_lines(command)
    how = draw(st.sampled_from(["drop", "duplicate", "garble", "wrong_type"]))
    if how == "drop":
        del lines[draw(st.sampled_from([i for i, k in enumerate(keys) if k[2]]))]
        return ("\n".join(lines) + "\n").encode()
    i = draw(st.integers(0, len(lines) - 1))
    key, hint, _ = keys[i]
    if how == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif how == "wrong_type":
        lines[i] = f"{key} = {draw(st.sampled_from(WRONG_TYPED[hint]))}"
    text = ("\n".join(lines) + "\n").encode()
    if how != "garble":
        return text
    line_start = sum(len(line) + 1 for line in lines[:i])
    start = line_start + draw(st.integers(0, len(lines[i])))  # up to the line break
    end = draw(st.integers(start, min(start + 4, len(text))))
    junk = b"".join(draw(st.lists(st.sampled_from(CONFIG_JUNK), min_size=1, max_size=4)))
    return text[:start] + junk + text[end:]


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_unbroken_config_runs(tmp_path, command):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text("\n".join(config_lines(command)[1]) + "\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--workers", "1"]) == 0


@pytest.mark.parametrize("command", sorted(CONFIGS))
@FUZZ
@given(data=st.data())
def test_broken_config_is_refused_and_makes_no_output(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / f"{command}.cfg"
        cfg.write_bytes(data.draw(broken_config(command), label=cfg.name))
        out = Path(tmp) / "out"
        assert_refused([command, "--config", str(cfg), "--out", str(out), "--workers", "1"], cfg)
        assert not out.exists()
