import dataclasses
import math
from collections import Counter
import multiprocessing
import os
import struct
import tempfile
import time
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopgeo import klr, sweep
from hopgeo.config import ConfigError
from hopgeo.dynamics import RecallConfig
from hopgeo.errors import ArgumentError, FieldError
from hopgeo.klr import TrainConfig
from hopgeo.sweep import (
    GridConfig,
    SweepCell,
    grid_config_from_file,
    read_grid_csv,
    run_cell,
    run_grid,
    seed64,
    write_grid_csv,
)
from oracles import _reference_run_cell

FAST_TRAIN = TrainConfig(lam=1e-4, learning_rate=0.02, max_epochs=300, grad_tol=1e-6)


def record_bits(rec):
    """Every field of a CellRecords, its SweepCell and every per-neuron array included,
    floats by their exact bits (nan and -0.0 included)."""
    def bits(v):
        if dataclasses.is_dataclass(v):
            return {f.name: bits(getattr(v, f.name)) for f in dataclasses.fields(v)}
        if isinstance(v, dict):
            return {k: bits(x) for k, x in v.items()}
        if isinstance(v, np.ndarray):
            return v.dtype.str, v.shape, [bits(x) for x in v.ravel().tolist()]
        return v.hex() if isinstance(v, float) else v
    return bits(rec)


def tiny_config(**overrides):
    kwargs = dict(
        gamma_values=[0.01, 0.1],
        load_values=[0.25, 0.5],
        num_neurons=8,
        trials_per_cell=2,
        base_seed=5,
        train=FAST_TRAIN,
    )
    kwargs.update(overrides)
    return GridConfig(**kwargs)


def test_grid_config_validation():
    with pytest.raises(ArgumentError):
        tiny_config(gamma_values=[0.1, 0.01])  # not ascending
    with pytest.raises(ArgumentError):
        tiny_config(gamma_values=[-0.1, 0.01])
    with pytest.raises(ArgumentError):
        tiny_config(load_values=[0.5, 1.5])
    with pytest.raises(ArgumentError):
        tiny_config(trials_per_cell=0)
    with pytest.raises(ArgumentError):
        tiny_config(metrics=("lambda_max", "bogus"))
    with pytest.raises(ArgumentError):
        tiny_config(load_values=[0.01])  # rounds to zero patterns at N=8
    # read_config refuses an empty list first, so only library callers reach this check
    for name in ("gamma_values", "load_values"):
        with pytest.raises(FieldError, match=f"^{name} must be nonempty$"):
            tiny_config(**{name: []})


def test_seed_derivation_is_stable_and_distinct():
    s = seed64(123, 0, 1, 2)
    assert s == seed64(123, 0, 1, 2)
    assert s == int(np.random.SeedSequence([123, 0, 1, 2]).generate_state(1, np.uint64)[0])
    assert 0 <= s < 2**64
    seen = {
        seed64(123, gi, li, t)
        for gi in range(3) for li in range(3) for t in range(3)
    }
    assert len(seen) == 27
    assert seed64(123, 0, 1) != seed64(123, 1, 0)


def test_single_pattern_cell_has_unit_effective_dimension():
    # P = 1: the Fisher matrix is a scalar, so d_eff = 1 exactly
    cfg = tiny_config(load_values=[0.125], gamma_values=[0.05], trials_per_cell=1)
    cell = run_cell(cfg, 0, 0).cell
    assert cell.P == 1
    assert cell.d_eff_mean == pytest.approx(1.0, abs=1e-12)
    assert cell.degenerate_count == 0
    assert cell.divergence_count == 0


def test_run_cell_deterministic():
    cfg = tiny_config()
    a = run_cell(cfg, 1, 1)
    b = run_cell(cfg, 1, 1)
    assert record_bits(a) == record_bits(b)


def test_run_grid_composes_cells_in_row_major_order():
    cfg = tiny_config()
    records = run_grid(cfg, workers=1)
    assert len(records) == 4
    assert [(rec.cell.load, rec.cell.gamma) for rec in records] == [
        (0.25, 0.01), (0.25, 0.1), (0.5, 0.01), (0.5, 0.1)
    ]
    lone = run_cell(cfg, 1, 1)
    assert record_bits(records[3]) == record_bits(lone)


def test_worker_count_does_not_change_results():
    cfg = tiny_config()
    a = run_grid(cfg, workers=1)
    b = run_grid(cfg, workers=2)
    assert [record_bits(x) for x in a] == [record_bits(y) for y in b]


def test_pool_has_at_most_one_worker_per_cell(pool_sizes):
    cfg = tiny_config(gamma_values=[0.1])
    assert [rec.cell.load for rec in run_grid(cfg, workers=5000)] == [0.25, 0.5]
    run_grid(tiny_config(gamma_values=[0.1], load_values=[0.5]), workers=5000)
    assert pool_sizes == [2]  # the one-cell grid ran without a pool


def test_pool_has_at_most_one_worker_per_cpu(pool_sizes, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert sweep.pool_map(abs, [-3, 1, -2, 5, -4], workers=5000) == [3, 1, 2, 5, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # an unknown count is one CPU: no pool
    assert sweep.pool_map(abs, [-3, 1], workers=5000) == [3, 1]
    assert pool_sizes == [3]


def _even(k):
    if k % 2:
        raise FieldError(f"k{k}", "must be even")
    return k


def test_pool_map_keeps_task_order_and_reraises_task_errors():
    assert sweep.pool_map(abs, [-3, 1, -2, 5], workers=2) == [3, 1, 2, 5]
    with pytest.raises(FieldError) as e:  # raised in a worker, re-raised as itself here
        sweep.pool_map(_even, [0, 2, 1, 4], workers=2)
    assert (e.value.field, str(e.value)) == ("k1", "k1 must be even")
    assert multiprocessing.active_children() == []  # no worker outlives the pool


def _fail_or_sleep(k):
    if k:
        time.sleep(60)
    raise FieldError(f"k{k}", "must not be 0")


def test_a_task_error_stops_the_tasks_still_running(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool of 2 on any machine
    started = time.monotonic()
    with pytest.raises(FieldError, match="^k0 must not be 0$"):  # while the first task sleeps
        sweep.pool_map(_fail_or_sleep, [1, 0], workers=2)
    assert time.monotonic() - started < 10
    assert multiprocessing.active_children() == []


def test_pool_map_forks_whatever_the_default_start_method(monkeypatch):
    # the workers' pipe (sweep._start_worker) exists only in a forked worker
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    default = multiprocessing.get_start_method()
    multiprocessing.set_start_method("spawn", force=True)
    try:
        assert sweep.pool_map(abs, [-3, 1, -2], workers=2) == [3, 1, 2]
    finally:
        multiprocessing.set_start_method(default, force=True)
    assert multiprocessing.active_children() == []


def test_grid_csv_roundtrip(tmp_path):
    cfg = tiny_config(metrics=("lambda_max", "d_eff", "euclid_norm_sq",
                               "riemann_norm_sq", "rank1_residual", "recall_rate"),
                      recall=RecallConfig(max_steps=20))
    cells = [rec.cell for rec in run_grid(cfg, workers=1)]
    path = tmp_path / "grid.csv"
    write_grid_csv(cells, path)
    header = path.read_text().splitlines()[0]
    assert header == (
        "gamma,load,P,N,seed,trials,lambda_max_mean,lambda_max_sd,d_eff_mean,d_eff_sd,"
        "euclid_norm_sq_mean,riemann_norm_sq_mean,rank1_residual_mean,recall_rate,"
        "degenerate_count,divergence_count"
    )
    back = read_grid_csv(path)
    assert back == cells


def test_grid_csv_int_columns_roundtrip_exactly(tmp_path):
    # 2**53 + 1 has no float of its own, so an int column must not pass through float
    cell = SweepCell(gamma=0.1, load=0.5, P=4, N=8, seed=2**53 + 1, trials=3,
                     d_eff_mean=1 / 3, degenerate_count=2**53 + 1)
    path = tmp_path / "grid.csv"
    write_grid_csv([cell], path)
    assert path.read_text().splitlines()[1].split(",")[4] == "9007199254740993"
    assert repr(read_grid_csv(path)) == repr([cell])  # every field, nan included


# a column's values: any int, or any float with nan as the one nan that "nan" reads back as
COLUMN_VALUES = {int: st.integers(0, 2**64), float: st.floats(allow_nan=False) | st.just(math.nan)}
# but a cell's gamma, load, trials and N are those a phase run can write
CELL_VALUES = {"gamma": st.floats(0, exclude_min=True, allow_infinity=False),
               "load": st.floats(0, 1, exclude_min=True),
               "trials": st.integers(1, 2**64), "N": st.integers(1, 2**64)}


def value_bits(v):
    return struct.pack("<d", v) if isinstance(v, float) else v


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(SweepCell, **{name: CELL_VALUES.get(name, COLUMN_VALUES[hint])
                                        for name, hint in get_type_hints(SweepCell).items()}),
                max_size=4))
def test_grid_csv_reads_back_every_cell_with_its_bits(cells):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        write_grid_csv(cells, path)
        back = read_grid_csv(path)
    assert [[value_bits(v) for v in dataclasses.astuple(c)] for c in back] == [
        [value_bits(v) for v in dataclasses.astuple(c)] for c in cells
    ]


def test_worker_count_does_not_change_csv_bytes(tmp_path):
    cfg = tiny_config()
    p1 = tmp_path / "w1.csv"
    p2 = tmp_path / "w2.csv"
    write_grid_csv([rec.cell for rec in run_grid(cfg, workers=1)], p1)
    write_grid_csv([rec.cell for rec in run_grid(cfg, workers=2)], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_grid_config_from_file(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(
        "gamma_values = 0.01 0.1 1\n"
        "load_values = 0.25 0.5\n"
        "num_neurons = 16\n"
        "trials_per_cell = 2\n"
        "base_seed = 9\n"
        "lambda = 1e-5\n"
        "learning_rate = 0.02\n"
        "max_epochs = 400\n"
        "metrics = lambda_max d_eff\n"
    )
    cfg = grid_config_from_file(path)
    assert cfg.gamma_values == [0.01, 0.1, 1.0]
    assert cfg.load_values == [0.25, 0.5]
    assert cfg.num_neurons == 16
    assert cfg.train.lam == 1e-5
    assert cfg.train.max_epochs == 400
    assert cfg.train.grad_tol == 1e-6  # default
    assert cfg.metrics == ("lambda_max", "d_eff")


def test_grid_config_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(
        "gamma_values = 0.01 0.1\n"
        "load_values = 0.5\n"
        "num_neurons = sixteen\n"
    )
    with pytest.raises(ConfigError) as exc:
        grid_config_from_file(path)
    assert exc.value.line == 3
    assert "num_neurons" in str(exc.value)

    path.write_text(
        "gamma_values = 0.01\n"
        "load_values = 0.5\n"
        "num_neurons = 8\n"
        "mystery_knob = 3\n"
    )
    with pytest.raises(ConfigError) as exc:
        grid_config_from_file(path)
    assert exc.value.line == 4
    assert "mystery_knob" in str(exc.value)

    path.write_text("gamma_values = 0.01\nload_values = 0.5\n")
    with pytest.raises(ConfigError) as exc:
        grid_config_from_file(path)
    assert "num_neurons" in str(exc.value)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("num_neurons = 8\nnum_neurons = 16\n")
    with pytest.raises(ConfigError) as exc:
        grid_config_from_file(path)
    assert exc.value.line == 2


def test_aggregation_sanity():
    cfg = tiny_config(metrics=("lambda_max", "d_eff", "euclid_norm_sq",
                               "riemann_norm_sq", "rank1_residual", "recall_rate"),
                      recall=RecallConfig(max_steps=20))
    for cell in (rec.cell for rec in run_grid(cfg, workers=1)):
        assert cell.lambda_max_mean > 0
        assert cell.lambda_max_sd >= 0
        assert 1.0 <= cell.d_eff_mean <= cell.P
        assert cell.euclid_norm_sq_mean >= 0
        assert cell.riemann_norm_sq_mean >= 0
        assert 0.0 <= cell.rank1_residual_mean <= 1.0 + 1e-12
        assert 0.0 <= cell.recall_rate <= 1.0
        assert cell.N == 8
        assert cell.P == round(cell.load * cell.N)


def cell_bits(cell):
    """Every field of a SweepCell, floats by their exact bits (nan and -0.0 included)."""
    return tuple(
        v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(cell)
    )


# name -> (gamma, load, GridConfig overrides); the test asserts what each case covers
SHARED_SPECTRUM_CASES = {
    # K entries near 1 and a large step: the monitor freezes every neuron, mostly at alpha = 0
    "all_frozen": (1e-3, 0.5, dict(num_neurons=40, gamma_values=[1e-3], load_values=[0.5],
                                   train=TrainConfig(lam=1e-6, learning_rate=1.0,
                                                     max_epochs=50, grad_tol=1e-6))),
    # P = 3: at most 8 distinct target columns among 40 neurons
    "repeated_targets": (0.05, 0.075, dict(num_neurons=40, gamma_values=[0.05],
                                           load_values=[0.075])),
    "all_distinct": (0.1, 0.6, dict(num_neurons=20, gamma_values=[0.1], load_values=[0.6])),
    # K = I and one step of 2000: every |h| is 1000, p(1-p) is exactly 0 and G = 0
    "degenerate": (50.0, 0.5, dict(num_neurons=8, gamma_values=[50.0], load_values=[0.5],
                                   train=TrainConfig(lam=0.0, learning_rate=4000.0,
                                                     max_epochs=3, grad_tol=1e-6))),
}


@pytest.mark.parametrize("case", sorted(SHARED_SPECTRUM_CASES))
def test_shared_spectra_match_per_neuron_reference_bit_for_bit(monkeypatch, case):
    gamma, load, overrides = SHARED_SPECTRUM_CASES[case]
    cfg = tiny_config(metrics=("lambda_max", "d_eff", "euclid_norm_sq",
                               "riemann_norm_sq", "rank1_residual", "recall_rate"),
                      recall=RecallConfig(max_steps=20), trials_per_cell=3, **overrides)
    seen = []  # every spectrum passed on, kept alive so that id() tells groups apart
    shared = sweep.neuron_spectra

    def recording(alpha, K, each):
        def kept(i, spec):
            seen.append(spec)
            return each(i, spec)
        return shared(alpha, K, kept)

    monkeypatch.setattr(sweep, "neuron_spectra", recording)
    records = run_cell(cfg, 0, 0)
    groups = list(Counter(map(id, seen)).values())
    want = _reference_run_cell(gamma, load, cfg, 0, 0)
    assert record_bits(records) == record_bits(want)
    got = records.cell
    assert cell_bits(got) == cell_bits(want.cell)
    assert sum(groups) == cfg.num_neurons * cfg.trials_per_cell
    if case == "all_frozen":
        assert got.divergence_count == cfg.num_neurons * cfg.trials_per_cell
        assert max(groups) > 1
    elif case == "repeated_targets":
        assert got.P == 3 and max(groups) > 1
    elif case == "all_distinct":
        assert max(groups) == 1
    else:
        assert got.degenerate_count == cfg.num_neurons * cfg.trials_per_cell


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_grouped_and_stacked_cells_match_the_reference_cell_by_cell(monkeypatch, workers):
    # run_grid deals the cells into pool_size groups, and a group's trials descend in
    # stacks that cross cells; every cell must keep the bits of the per-cell reference.
    # At lr 0.5 the smallest gamma's fits run the monitor, so they break the stacks.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    stacks = []
    descend = klr._descend
    monkeypatch.setattr(klr, "_descend", lambda Ks, Ts, cfg: stacks.append(len(Ks))
                        or descend(Ks, Ts, cfg))
    cfg = tiny_config(gamma_values=[0.01, 0.1, 1.0], load_values=[0.25, 0.5, 0.75],
                      train=TrainConfig(lam=1e-4, learning_rate=0.5, max_epochs=200),
                      metrics=tuple(sweep.METRICS), recall=RecallConfig(max_steps=20))
    records = run_grid(cfg, workers)
    want = [_reference_run_cell(gamma, load, cfg, gi, li)
            for li, load in enumerate(cfg.load_values)
            for gi, gamma in enumerate(cfg.gamma_values)]
    assert [record_bits(rec) for rec in records] == [record_bits(rec) for rec in want]
    assert sum(rec.cell.divergence_count for rec in records) > 0
    if workers == 1:  # the pool's workers record in their own processes
        assert max(stacks) > 2
