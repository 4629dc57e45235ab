"""End-to-end acceptance suite.

Runs the frozen desk-scale grid in configs/acceptance.cfg once (module
fixture) through sweep.run_grid, the cell evaluator that `hopgeo phase`
runs, and checks ten numbered criteria, printing one PASS/FAIL line per
criterion. Criteria 1-4 are oracle equivalences and contracts on random
instances; 5-8 are qualitative phase-diagram claims on the grid; 9 is the
memory function; 10 is bit-level reproducibility of the CLI sweep across
worker counts.
The fixture's cells are also written as `hopgeo phase` writes grid.csv and
compared byte for byte with tests/data/acceptance_grid.csv, at no extra fit.

Criterion 5 asks each load row for (i) some cell with a concentrated but
nondegenerate Fisher spectrum and (ii) a flat spectrum at the local-kernel
end of the row, the largest gamma, where the Gram matrix is the identity.
Flatness is not read at the smallest gamma: there the kernel's entries are
all close to 1 and bound the stable rank below P/2 for any weights (see the
comment in the test).
"""

import dataclasses
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hopgeo.cli import main, numerics
from hopgeo.dynamics import recall
from hopgeo.infogeo import (
    effective_dimension,
    fisher_matrix,
    natural_gradient,
    spectrum,
)
from hopgeo.kernel_core import corrupt, generate_patterns
from hopgeo.klr import TrainConfig, loss_gradient, train
from hopgeo.sweep import grid_config_from_file, run_grid, trial_mean, write_grid_csv
from oracles import central_difference, fim_empirical_oracle

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE_CFG = ROOT / "configs" / "acceptance.cfg"
ACCEPTANCE_GRID = ROOT / "tests" / "data" / "acceptance_grid.csv"


def record(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def random_instance(rng, P):
    B = rng.normal(size=(P, P))
    K = B @ B.T / P + 0.05 * np.eye(P)
    alpha = rng.normal(scale=0.8, size=P)
    t = rng.integers(0, 2, size=P).astype(float)
    return K, alpha, t


# --------------------------------------------------------------------------
# grid fixtures: every (gamma, load) cell of the frozen acceptance config from
# sweep.run_grid, its SweepCell (the grid.csv row `hopgeo phase` writes), and
# per load row its SweepCell fields and spectral-ratio means
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def records():
    return run_grid(grid_config_from_file(ACCEPTANCE_CFG), workers=os.cpu_count() or 1)


@pytest.fixture(scope="module")
def cells(records):
    return [rec.cell for rec in records]


@pytest.fixture(scope="module")
def grid(records):
    rows = {}
    for rec in records:
        row = rows.setdefault(rec.cell.load, [])
        row.append(SimpleNamespace(
            **dataclasses.asdict(rec.cell),
            gamma_index=len(row),
            ratio_2_1_mean=trial_mean(rec.neurons["ratio_2_1"]),
            ratio_tail_mean=trial_mean(rec.neurons["ratio_tail"]),
            retained_total=int(rec.neurons["retained_modes"].sum()),
        ))
    return rows


def test_acceptance_grid_csv_keeps_its_bytes(cells, tmp_path, monkeypatch):
    # The byte gate: the grid.csv of `hopgeo phase --config configs/acceptance.cfg`, at
    # any --workers, is the committed copy. A change that moves its bits re-pins the
    # copy and says why; the bits also depend on the BLAS kernel, so a mismatch names it.
    got = tmp_path / "grid.csv"
    write_grid_csv(cells, got)
    if got.read_bytes() != ACCEPTANCE_GRID.read_bytes():
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from check import deviation

        pytest.fail(
            f"grid.csv differs from {ACCEPTANCE_GRID}; largest relative deviation per "
            f"column: {deviation(got.read_text(), ACCEPTANCE_GRID.read_text())}; "
            + ", ".join(f"{name} {version}" for name, version in numerics().items())
        )


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------


def test_c1_fim_consistency():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        P = int(rng.integers(1, 13))
        K, alpha, _ = random_instance(rng, P)
        G = fisher_matrix(alpha, K)
        Go = fim_empirical_oracle(alpha, K)
        worst = max(worst, float(np.abs(G - Go).max()))
    record("C1 FIM consistency", worst < 1e-12, f"max abs dev {worst:.3g}")


def test_c2_gradient_correctness():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        P = int(rng.integers(2, 13))
        K, alpha, t = random_instance(rng, P)
        lam = float(rng.uniform(0, 0.5))
        g = loss_gradient(alpha, K, t, lam)
        fd = central_difference(alpha, K, t, lam)
        rel = float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)
    record("C2 gradient correctness", worst < 1e-5, f"worst rel err {worst:.3g}")


def test_c3_natural_gradient_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        P = int(rng.integers(2, 13))
        K, alpha, t = random_instance(rng, P)
        grad = loss_gradient(alpha, K, t, 0.0)
        G = fisher_matrix(alpha, K)
        spec = spectrum(G)
        nat, _, _ = natural_gradient(grad, spec, rel_cutoff=1e-10)
        keep = spec.eigenvalues > 1e-10 * spec.lambda_max
        V = spec.eigenvectors[:, keep]
        proj = V @ (V.T @ grad)
        back = V @ (V.T @ (G @ nat))
        rel = float(np.linalg.norm(back - proj) / max(np.linalg.norm(proj), 1e-30))
        worst = max(worst, rel)
    record("C3 natural-gradient identity", worst < 1e-8, f"worst rel err {worst:.3g}")


def test_c4_stable_rank_contract(grid):
    hand = (
        abs(effective_dimension([1, 1, 1, 1]) - 4.0) < 1e-9
        and abs(effective_dimension([1, 0, 0, 0]) - 1.0) < 1e-9
        and abs(effective_dimension([1, 0.01, 0.01, 0.01]) - 1.03**2 / 1.0003) < 1e-9
    )
    bounds = all(
        1.0 <= s.d_eff_mean <= s.P + 1e-9
        for row in grid.values()
        for s in row
    )
    record("C4 stable-rank contract", hand and bounds,
           f"hand values {'ok' if hand else 'BAD'}, grid bounds {'ok' if bounds else 'BAD'}")


def test_c5_spectral_concentration(grid):
    ok = True
    details = []
    for load, row in grid.items():
        concentrated = any(
            s.ratio_2_1_mean < 1e-1 and s.ratio_tail_mean > 1e-6 and s.d_eff_mean <= 6.0
            for s in row
        )
        # Flatness is read at the local-kernel end (largest gamma), not at
        # gamma_min: every entry of K = exp(-gamma ||x-y||^2) on raw +-1
        # patterns is >= k = exp(-4 gamma N), so for any D >= 0 the Fisher
        # matrix G = K D K has tr G <= P sum(d) and lambda_1 >= k^2 P sum(d),
        # hence d_eff <= k^-4 and ratio_tail <= (k^-2 - 1) / (P - 1). At
        # gamma = 1e-3, N = 64 that is d_eff <= 2.8 and tail < 0.1 whatever
        # the weights. At gamma = 10, K is the identity to double precision,
        # G = D, and symmetric training of both targets makes it flat.
        small, local = row[0], row[-1]
        flat_at_local_end = (
            local.ratio_tail_mean > 0.1 and local.d_eff_mean >= 0.5 * local.P
        )
        ok = ok and concentrated and flat_at_local_end
        details.append(
            f"load {load}: concentrated={concentrated}, "
            f"gamma {small.gamma:.3g} d_eff {small.d_eff_mean:.2f} tail {small.ratio_tail_mean:.2g}; "
            f"gamma {local.gamma:.3g} flat={flat_at_local_end} "
            f"(d_eff {local.d_eff_mean:.2f} vs P {local.P}, tail {local.ratio_tail_mean:.2g})"
        )
    record("C5 spectral concentration", ok, "; ".join(details))


def test_c6_edge_of_stability_ordering(grid):
    ok = True
    details = []
    for load, row in grid.items():
        lmax = [s.lambda_max_mean for s in row]
        peak = max(lmax)
        vs_small = peak / max(lmax[0], 1e-300)
        vs_large = peak / max(lmax[-1], 1e-300)
        row_ok = vs_small >= 1e2 and vs_large >= 1e6
        ok = ok and row_ok
        details.append(
            f"load {load}: peak/small={vs_small:.3g}, peak/large={vs_large:.3g}"
        )
    record("C6 edge-of-stability ordering", ok, "; ".join(details))


def test_c7_dual_equilibrium(grid):
    ok = True
    details = []
    for load, row in grid.items():
        eligible = [
            s for s in row
            if s.retained_total >= 1 and s.degenerate_count == 0
        ]
        if not eligible:
            ok = False
            details.append(f"load {load}: no eligible cells")
            continue
        eu_argmax = max(eligible, key=lambda s: s.euclid_norm_sq_mean).gamma_index
        ri_argmin = min(eligible, key=lambda s: s.riemann_norm_sq_mean).gamma_index
        row_ok = abs(eu_argmax - ri_argmin) <= 2
        ok = ok and row_ok
        details.append(f"load {load}: argmax(eu)={eu_argmax}, argmin(ri)={ri_argmin}")
    record("C7 dual equilibrium", ok, "; ".join(details))


def test_c8_rank1_amplification(grid):
    violations = []
    qualifying = 0
    for load, row in grid.items():
        for s in row:
            if s.ratio_2_1_mean < 1e-3:
                qualifying += 1
                if not s.rank1_residual_mean < 0.1:
                    violations.append(
                        f"load {load} gamma {s.gamma:.3g}: residual {s.rank1_residual_mean:.3g}"
                    )
    record(
        "C8 rank-1 amplification",
        not violations,
        f"{qualifying} qualifying cells; " + ("; ".join(violations) or "all below 0.1"),
    )


def test_c9_memory_function():
    P, N = 16, 64
    gamma = 0.02
    patterns = generate_patterns(P, N, 20240915)
    tcfg = TrainConfig(lam=1e-6, learning_rate=0.008, max_epochs=20000, grad_tol=1e-6)
    weights = train(patterns, gamma, tcfg)
    exact_ok = True
    for mu in range(P):
        r = recall(patterns.patterns[mu], mu, patterns, weights)
        exact_ok = exact_ok and r.converged and r.overlap == 1.0
    hits = 0
    total = 0
    for t in range(20):
        for mu in range(P):
            cue = corrupt(patterns.patterns[mu], 0.1, 1_000 + t * P + mu)
            r = recall(cue, mu, patterns, weights)
            hits += int(r.success)
            total += 1
    rate = hits / total
    record(
        "C9 memory function",
        exact_ok and rate >= 0.9,
        f"exact cues {'all recalled' if exact_ok else 'FAILED'}, "
        f"corrupted-recall rate {rate:.3f}",
    )


def test_c10_reproducibility(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "gamma_values = 0.02 0.2\n"
        "load_values = 0.25 0.5\n"
        "num_neurons = 16\n"
        "trials_per_cell = 2\n"
        "base_seed = 77\n"
        "learning_rate = 0.02\n"
        "lambda = 1e-6\n"
        "max_epochs = 800\n"
        "metrics = lambda_max d_eff euclid_norm_sq riemann_norm_sq rank1_residual\n"
    )
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    code1 = main(["phase", "--config", str(cfg), "--out", str(out1), "--workers", "1"])
    code2 = main(["phase", "--config", str(cfg), "--out", str(out2), "--workers", "4"])
    names1 = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
    names2 = sorted(p.name for p in out2.iterdir() if p.name != "manifest.json")
    same = code1 == 0 and code2 == 0 and names1 == names2 and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1
    )
    record("C10 reproducibility", same, f"{len(names1)} artifacts compared")
