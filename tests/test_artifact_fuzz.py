"""Damaged artifacts end in exit 2 or 3 with one stderr line naming the file.

Hypothesis truncates, garbles and reorders patterns.txt and weights.txt (read
by `spectrum` and `recall`) and grid.csv (read by `render`). Every damage
leaves a file that no valid artifact equals, so the command must refuse it:
  * truncate keeps a prefix that ends before the last line starts, and every
    line of these files is needed (P rows; grid.csv of a one-cell sweep);
  * garble replaces a span, or inserts, bytes that belong to no number,
    separator or line break, so the token they land in cannot parse;
  * reorder moves the header line off the top.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopgeo.cli import main

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
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(command(name, work))
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
