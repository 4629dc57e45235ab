"""Output checks behind the benchmark's `failed` count.

Invariants hold at any seed. At the default seed the outputs must also be
byte-identical to the reference copies under perfbench/reference/; on a
mismatch the largest relative deviation per CSV column is reported.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_grid(grid_path, config_path) -> list[str]:
    """Every configured cell present, parseable, finite unless flagged."""
    from hopgeo.sweep import grid_config_from_file, read_grid_csv

    cfg = grid_config_from_file(config_path)
    try:
        cells = read_grid_csv(grid_path)
    except (OSError, KeyError, ValueError) as e:
        return [f"{grid_path}: does not parse with read_grid_csv: {e!r}"]
    problems = []
    want = sorted((g, l) for g in cfg.gamma_values for l in cfg.load_values)
    have = sorted((c.gamma, c.load) for c in cells)
    if have != want:
        problems.append(f"{grid_path}: cells {have} != configured {want}")
    columns = [
        "lambda_max_mean", "lambda_max_sd", "d_eff_mean", "d_eff_sd",
        "euclid_norm_sq_mean", "riemann_norm_sq_mean", "rank1_residual_mean",
    ]
    with_recall = "recall_rate" in cfg.metrics
    if with_recall:
        columns.append("recall_rate")
    for c in cells:
        flagged = c.degenerate_count > 0 or c.divergence_count > 0
        bad = [k for k in columns if not math.isfinite(getattr(c, k))]
        if bad and not flagged:
            problems.append(f"{grid_path}: cell ({c.gamma}, {c.load}) non-finite {bad}")
        if with_recall and not (0.0 <= c.recall_rate <= 1.0):
            problems.append(f"{grid_path}: recall_rate {c.recall_rate} outside [0, 1]")
    return problems


def check_spectrum(path, P, N) -> list[str]:
    """P*N rows; per neuron the eigenvalues are >= 0 and descending."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows[:1] != [["neuron", "k", "lambda_k", "lambda_k_over_lambda_1"]]:
        return [f"{path}: unexpected header {rows[:1]}"]
    rows = rows[1:]
    if len(rows) != P * N:
        return [f"{path}: {len(rows)} rows, expected P*N = {P * N}"]
    problems = []
    prev_neuron, prev = None, math.inf
    for neuron, _, lam, _ in rows:
        lam = float(lam)
        if neuron != prev_neuron:
            prev_neuron, prev = neuron, math.inf
        if not (0.0 <= lam <= prev):
            problems.append(f"{path}: neuron {neuron} eigenvalue {lam} negative or rising")
            break
        prev = lam
    return problems


def check_recall(path, cues) -> list[str]:
    """One row per cue; every summary success rate lies in [0, 1]."""
    lines = Path(path).read_text().splitlines()
    rows = [l for l in lines[1:] if not l.startswith("#")]
    problems = []
    if len(rows) != cues:
        problems.append(f"{path}: {len(rows)} cue rows, expected {cues}")
    for line in lines:
        if line.startswith("# success_rate"):
            rate = float(line.rsplit("rate=", 1)[1])
            if not (0.0 <= rate <= 1.0):
                problems.append(f"{path}: success rate {rate} outside [0, 1]")
    return problems


def _numeric_rows(text):
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")]
    return rows[0], rows[1:]


def _as_float(v):
    if v in ("true", "false"):
        return float(v == "true")
    try:
        return float(v)
    except ValueError:
        return None


def deviation(actual: str, reference: str) -> dict:
    """Largest relative deviation per column between two CSV texts."""
    header, a_rows = _numeric_rows(actual)
    _, r_rows = _numeric_rows(reference)
    if len(a_rows) != len(r_rows):
        return {"rows": f"{len(a_rows)} vs reference {len(r_rows)}"}
    out = {}
    for j, name in enumerate(header):
        worst = 0.0
        for a, r in zip(a_rows, r_rows):
            x, y = _as_float(a[j]), _as_float(r[j])
            if x is None or y is None:
                worst = max(worst, 0.0 if a[j] == r[j] else math.inf)
            elif x != y and not (math.isnan(x) and math.isnan(y)):
                worst = max(worst, abs(x - y) / max(abs(y), 1e-300))
        out[name] = worst
    return out


def reference_digest(workload, name) -> str:
    """sha256 of the pinned default-seed copy of one output."""
    path = REFERENCE / workload / f"{name}.gz"
    if not path.exists():
        return f"missing reference copy {path.name}"
    return hashlib.sha256(gzip.decompress(path.read_bytes())).hexdigest()


def mismatch(workload, name, path, want) -> str:
    """Describe an output whose sha256 is not `want`."""
    got = sha256(path)
    ref = REFERENCE / workload / f"{name}.gz"
    if not ref.exists() or want != reference_digest(workload, name):
        return f"{name}: sha256 {got} != {want}"
    dev = deviation(Path(path).read_text(), gzip.decompress(ref.read_bytes()).decode())
    return (f"{name}: sha256 {got} != reference {want}; largest relative "
            f"deviation per column: {dev}")


def pin_reference(workload, name, path) -> None:
    """Store one default-seed output as the reference copy."""
    target = REFERENCE / workload
    target.mkdir(parents=True, exist_ok=True)
    data = gzip.compress(Path(path).read_bytes(), compresslevel=9, mtime=0)
    (target / f"{name}.gz").write_bytes(data)
