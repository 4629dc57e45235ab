import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopgeo import klr
from hopgeo.cli import TrainRun
from hopgeo.config import read_config
from hopgeo.errors import ArgumentError, TrainingDivergenceError
from hopgeo.infogeo import fisher_matrix, gradient_report, spectrum
from hopgeo.kernel_core import KernelConfig, generate_patterns, gram
from hopgeo.klr import (
    CERTIFIED_STEP,
    DualWeights,
    TrainConfig,
    all_targets,
    fit_dual_weights,
    load_weights,
    loss_gradient,
    save_weights,
    sigmoid,
    train,
)
from hopgeo.sweep import grid_config_from_file, seed64
from oracles import _reference_fit, _reference_optimum, central_difference, loss

ROOT = Path(__file__).resolve().parent.parent


def random_instance(rng, P):
    """Random PSD Gram-like matrix, alpha, binary targets."""
    B = rng.normal(size=(P, P))
    K = B @ B.T / P + np.eye(P) * 0.1
    return (
        K,
        rng.normal(scale=0.8, size=P),
        rng.integers(0, 2, size=P).astype(float),
    )


def test_sigmoid_basics():
    assert sigmoid(0.0) == 0.5
    for h in (-30.0, -2.5, 0.3, 7.0):
        assert sigmoid(h) + sigmoid(-h) == pytest.approx(1.0, abs=1e-15)
    assert sigmoid(500.0) == pytest.approx(1.0, abs=1e-15)
    assert 0.0 <= sigmoid(-500.0) < 1e-200
    # vector form agrees with scalar form
    hs = np.array([-3.0, 0.0, 2.0])
    assert np.allclose(sigmoid(hs), [sigmoid(h) for h in hs])


# The predicted probabilities p = sigma(K alpha) are checked through fisher_matrix, which
# weighs each pattern by p(1-p): G = K diag(p(1-p)) K. At alpha = 0 every weight is 1/4,
# which test_infogeo checks.


def test_fisher_weight_p_one_minus_p_scalar_case():
    p = 0.8807970779778823  # sigma(2)
    assert fisher_matrix(np.array([2.0]), np.array([[1.0]]))[0, 0] == pytest.approx(p * (1 - p))


def test_fisher_weights_p_one_minus_p_match_loop_oracle():
    rng = np.random.default_rng(2)
    K, alpha, _ = random_instance(rng, 6)
    p = np.array([1 / (1 + math.exp(-sum(alpha[nu] * K[mu, nu] for nu in range(6))))
                  for mu in range(6)])
    want = K @ np.diag(p * (1 - p)) @ K
    assert np.allclose(fisher_matrix(alpha, K), want, rtol=1e-12, atol=0)


def test_fisher_weights_p_one_minus_p_dimension_mismatch():
    K = np.eye(3)
    with pytest.raises(ArgumentError, match=r"alpha of shape \(4,\) does not fit Gram size"):
        fisher_matrix(np.zeros(4), K)


@pytest.mark.parametrize("K", [np.ones((3, 4)), np.ones(3)], ids=["P_by_P_plus_1", "1d"])
@pytest.mark.parametrize("call", ["loss_gradient", "fisher_matrix", "gradient_report"])
def test_a_gram_matrix_that_is_not_square_is_refused(K, call):
    # alpha and targets have length P = 3, and K has P rows but is not (P, P)
    alpha, t = np.zeros(3), np.ones(3)
    spec = spectrum(np.eye(3))
    calls = {
        "loss_gradient": lambda: loss_gradient(alpha, K, t, 0.1),
        "fisher_matrix": lambda: fisher_matrix(alpha, K),
        "gradient_report": lambda: gradient_report(alpha, K, t, 0.1, spec),
    }
    with pytest.raises(ArgumentError, match="Gram matrix sizes disagree|does not fit Gram size"):
        calls[call]()


def test_loss_at_zero_alpha():
    K = gram(generate_patterns(7, 12, 3), KernelConfig(gamma=0.2)).values
    t = all_targets(generate_patterns(7, 12, 3))[:, 0]
    assert loss(np.zeros(7), K, t, 0.0) == pytest.approx(7 * math.log(2), rel=1e-14)
    # penalty vanishes at alpha = 0 no matter how large lambda is
    assert loss(np.zeros(7), K, t, 5.0) == pytest.approx(7 * math.log(2), rel=1e-14)


def test_loss_matches_high_precision_oracle():
    rng = np.random.default_rng(4)
    K, alpha, t = random_instance(rng, 5)
    lam = 0.37
    got = loss(alpha, K, t, lam)
    with mpmath.workdps(50):
        h = [mpmath.fsum(mpmath.mpf(K[m, n]) * mpmath.mpf(alpha[n]) for n in range(5))
             for m in range(5)]
        total = mpmath.mpf(0)
        for m in range(5):
            p = 1 / (1 + mpmath.e ** (-h[m]))
            total += -(mpmath.mpf(t[m]) * mpmath.log(p) + (1 - mpmath.mpf(t[m])) * mpmath.log(1 - p))
        total += mpmath.mpf(lam) / 2 * mpmath.fsum(mpmath.mpf(alpha[m]) * h[m] for m in range(5))
        expected = float(total)
    assert got == pytest.approx(expected, rel=1e-12)


def test_loss_stable_under_saturation():
    K = np.eye(2)
    val = loss(np.array([800.0, -800.0]), K, np.array([1.0, 0.0]), 0.0)
    assert math.isfinite(val)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_gradient_identity_kernel_case():
    K = np.eye(2)
    g = loss_gradient(np.zeros(2), K, np.array([1.0, 0.0]), 0.0)
    assert np.allclose(g, [-0.5, 0.5])


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    for _ in range(100):
        P = int(rng.integers(2, 17))
        K, alpha, t = random_instance(rng, P)
        lam = float(rng.uniform(0, 0.5))
        g = loss_gradient(alpha, K, t, lam)
        fd = central_difference(alpha, K, t, lam)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)


def test_train_separates_two_patterns():
    ps = generate_patterns(2, 16, 21)
    w = train(ps, 0.5, TrainConfig(lam=1e-3, learning_rate=0.1, max_epochs=50000, grad_tol=1e-8))
    K = gram(ps, KernelConfig(gamma=0.5)).values
    T = all_targets(ps)
    for i in range(ps.num_neurons):
        p = sigmoid(K @ w.alpha[:, i])
        assert np.all(np.abs(p - T[:, i]) < 0.05)


def test_train_gradient_norm_at_stop():
    ps = generate_patterns(3, 8, 2)
    tcfg = TrainConfig(lam=1e-2, learning_rate=0.2, max_epochs=100000, grad_tol=1e-8)
    w = train(ps, 0.5, tcfg)
    K = gram(ps, KernelConfig(gamma=0.5)).values
    T = all_targets(ps)
    for i in range(ps.num_neurons):
        assert np.linalg.norm(loss_gradient(w.alpha[:, i], K, T[:, i], tcfg.lam)) < 1e-8


def test_train_huge_lambda_shrinks_weights():
    ps = generate_patterns(4, 8, 13)
    w = train(ps, 0.3, TrainConfig(lam=1e6, learning_rate=1e-7, max_epochs=2000, grad_tol=1e-9))
    assert np.abs(w.alpha).max() < 1e-2
    K = gram(ps, KernelConfig(gamma=0.3)).values
    for i in range(ps.num_neurons):
        assert np.allclose(sigmoid(K @ w.alpha[:, i]), 0.5, atol=0.02)


def test_train_deterministic():
    ps = generate_patterns(3, 12, 5)
    tcfg = TrainConfig(lam=1e-4, learning_rate=0.1, max_epochs=2000, grad_tol=1e-6)
    a = train(ps, 0.2, tcfg)
    b = train(ps, 0.2, tcfg)
    assert np.array_equal(a.alpha, b.alpha)
    assert a.trained_epochs == b.trained_epochs


def test_train_divergence_error_names_neuron_and_epoch():
    ps = generate_patterns(8, 8, 17)
    # gamma tiny -> near-singular Gram with curvature ~ P^2/4; lr far above 2/L
    cfg = TrainConfig(lam=0.0, learning_rate=5.0, max_epochs=500, grad_tol=1e-12)
    assert not klr._certified(gram(ps, KernelConfig(gamma=1e-4)).values, cfg)
    with pytest.raises(TrainingDivergenceError) as exc:
        train(ps, 1e-4, cfg)
    assert exc.value.neuron >= 0
    assert exc.value.epoch >= 0


def test_convex_objective_same_minimum_for_different_rates():
    ps = generate_patterns(4, 10, 31)
    K = gram(ps, KernelConfig(gamma=0.4)).values
    T = all_targets(ps)
    losses = []
    for lr in (0.05, 0.2):
        tcfg = TrainConfig(lam=1e-2, learning_rate=lr, max_epochs=200000, grad_tol=1e-10)
        res = fit_dual_weights(K, T, tcfg)
        assert not res.diverged
        assert res.converged.all()
        losses.append([loss(res.alpha[:, i], K, T[:, i], 1e-2) for i in range(ps.num_neurons)])
    a, b = np.array(losses)
    assert np.all(np.abs(a - b) <= 1e-6 * np.abs(a))


def test_loss_symmetry_under_target_and_sign_flip():
    rng = np.random.default_rng(6)
    K, alpha, t = random_instance(rng, 6)
    assert loss(alpha, K, t, 0.2) == pytest.approx(loss(-alpha, K, 1 - t, 0.2), rel=1e-12)


def test_weights_roundtrip_exact(tmp_path):
    ps = generate_patterns(3, 5, 77)
    w = train(ps, 0.11, TrainConfig(lam=1e-4, learning_rate=0.1, max_epochs=500, grad_tol=1e-6))
    path = tmp_path / "weights.txt"
    save_weights(w, path)
    back = load_weights(path)
    assert np.array_equal(back.alpha, w.alpha)
    assert back.gamma == w.gamma
    assert back.lam == w.lam
    assert back.trained_epochs == w.trained_epochs


def _assert_same_fit(got, want):
    assert got.alpha.flags.c_contiguous
    assert np.array_equal(got.alpha, want.alpha)
    assert got.epochs == want.epochs
    assert got.diverged == want.diverged
    assert np.array_equal(got.converged, want.converged)


def test_fit_matches_gathering_reference_bit_for_bit(monkeypatch):
    # P >= 17 is where OpenBLAS rounds K @ A differently for C- and F-ordered A.
    # A certified fit runs blocks of epochs over the active columns, checks grad_tol
    # once per block, takes the first tripping epoch from the block and resumes blocks
    # after it; any other fit runs the descent monitor every epoch and no block. The
    # block sizes are read off the blocks' grad_tol tests; each holds _block_size epochs
    # unless it ends at max_epochs. `seen` records, over certified fits, where each trip
    # fell in its block and which sequences of trips occurred, and how many fits were
    # certified; only the others can diverge. Each descent with an event is rerun with
    # MAX_BLOCK set around its first trip, and cut off at that trip.
    rng = np.random.default_rng(1)
    seen = dict.fromkeys(
        ["large_P", "converged", "diverged", "both", "B=1", "B>1", "several_blocks",
         "first_slot", "mid_block", "last_slot", "last_epoch", "three_trips",
         "all_diverged", "trip_after_trip", "B_grows", "certified", "monitored"], 0)
    converged = klr._converged

    def check(K, T, cfg, want, events):
        P, N = T.shape
        certified = klr._certified(K, cfg)
        blocks = []  # (epochs, active columns) of each block, in the order run

        def recording(G, tol):
            assert certified, "a monitored fit ran a block"
            blocks.append(G.shape[::2])
            return converged(G, tol)

        with monkeypatch.context() as m:
            m.setattr(klr, "_converged", recording)
            _assert_same_fit(fit_dual_weights(K, T, cfg), want)
        seen["certified" if certified else "monitored"] += 1
        seen["all_diverged"] += any(kind == "loss" and left == 0 for _, kind, left in events)
        if not certified:
            return
        assert not want.diverged
        B = klr._block_size(P, N)
        seen["B=1" if B == 1 else "B>1"] += 1
        seen["B_grows"] += max(b for b, _ in blocks) > B
        trips = sorted({e for e, _, _ in events})
        seen["three_trips"] += len(trips) >= 3
        seen["trip_after_trip"] += any(e + 1 in trips for e in trips)
        seen["last_epoch"] += cfg.max_epochs - 1 in trips
        # a call starts at epoch 0 or right after a trip, and stops in the block holding
        # its first trip; every trip freezes a column, so a new call has fewer columns
        start, n_call, pending, full = 0, N, list(trips), 0
        for b, n in blocks:
            if n != n_call:
                start, n_call, full = last + 1, n, 0
            assert b == klr._block_size(P, n) or start + b == cfg.max_epochs
            full += b == klr._block_size(P, n) > 1
            seen["several_blocks"] += full == 2
            if pending and pending[0] < start + b:
                last = pending.pop(0)
                slot = last - start
                seen["first_slot"] += b > 1 and slot == 0
                seen["mid_block"] += 0 < slot < b - 1
                seen["last_slot"] += b > 1 and slot == b - 1
            start += b
        assert not pending and (trips or start == cfg.max_epochs)

    for c in range(200):
        if c % 10 == 0:  # P*N large enough for blocks of one to four epochs
            P, N, max_epochs = int(rng.integers(95, 125)), int(rng.integers(110, 140)), 60
        else:
            P, N, max_epochs = int(rng.integers(1, 40)), int(rng.integers(1, 80)), 300
        ps = generate_patterns(P, N, int(rng.integers(2**31)))
        K = gram(ps, KernelConfig(gamma=float(10 ** rng.uniform(-4, 1)))).values
        T = all_targets(ps)
        cfg = TrainConfig(
            lam=float(10 ** rng.uniform(-6, -1)),
            learning_rate=float(10 ** rng.uniform(-2, 1)),
            max_epochs=int(rng.integers(1, max_epochs)),
            grad_tol=float(10 ** rng.uniform(-8, -0.5)),
        )
        events = []
        want = _reference_fit(K, T, cfg, events)
        check(K, T, cfg, want, events)
        if P >= 17:
            seen["large_P"] += 1
            seen["converged"] += bool(want.converged.any())
            seen["diverged"] += bool(want.diverged)
            seen["both"] += bool(want.converged.any() and want.diverged)
        if not events or P * N > 4000:
            continue
        first = events[0][0]
        with monkeypatch.context() as m:
            for block in {first, first + 1, first + 2} - {0}:
                m.setattr(klr, "MAX_BLOCK", block)
                check(K, T, cfg, want, events)
        cut = TrainConfig(cfg.lam, cfg.learning_rate, first + 1, cfg.grad_tol)
        cut_events = []
        check(K, T, cut, _reference_fit(K, T, cut, cut_events), cut_events)
    # Targets of 1/2 give a zero gradient at alpha = 0, so column 0 converges at epoch 0;
    # columns 1 and 2, within 2e-7 and 2.5e-7 of 1/2, converge at epochs 5 and 14 of this
    # certified fit. Blocks over all 513 columns hold one epoch, over 512 they hold two.
    ps = generate_patterns(32, 513, 0)
    K = gram(ps, KernelConfig(gamma=0.05)).values
    T = all_targets(ps)
    T[:, :3] = 0.5 + np.array([0.0, 4e-7, 5e-7]) * (T[:, :3] - 0.5)
    cfg = TrainConfig(lam=1e-3, learning_rate=0.1, max_epochs=20, grad_tol=1e-6)
    events = []
    check(K, T, cfg, _reference_fit(K, T, cfg, events), events)
    assert [e for e, _, _ in events] == [0, 5, 14]
    assert min(seen.values()) >= 1, seen


def _trip_epochs(K, T, cfg):
    events = []
    _reference_fit(K, T, cfg, events)
    return [e for e, kind, _ in events if kind == "grad"]


def test_stacked_fits_match_the_reference_problem_by_problem(monkeypatch):
    # fit_many steps consecutive certified problems of one N as one stack while its
    # blocks keep MAX_BLOCK epochs; every problem must still get _reference_fit's bits.
    # Sequences mix P from 1 to 40 and N of 8, 24 and 64, certified and monitored
    # problems; a column whose targets sit near 1/2 reaches grad_tol early, late, at the
    # last epoch or never. `seen` counts, over the problems of stacks of two or more, when
    # each first tripped, and over the blocks' calls (Ks, start, done), stacks that
    # tripped and stacks that resumed after a trip.
    rng = np.random.default_rng(3)
    seen = dict.fromkeys(["stack", "alone", "monitored", "two_N", "trip_in_stack",
                          "resumed", "early", "late", "last_epoch", "never"], 0)
    descend, descend_blocks = klr._descend, klr._descend_blocks
    stacks, calls, reads = [], [], []

    def recording(Ks, Ts, cfg):
        stacks.append(([id(K) for K in Ks], len(reads)))
        return descend(Ks, Ts, cfg)

    def recording_blocks(Ks, Ts, cfg, start, As, idx):
        epoch, done = descend_blocks(Ks, Ts, cfg, start, As, idx)
        calls.append((len(Ks), start, done is not None))
        return epoch, done

    monkeypatch.setattr(klr, "_descend", recording)
    monkeypatch.setattr(klr, "_descend_blocks", recording_blocks)
    for c in range(45):
        cfg = TrainConfig(lam=float(10 ** rng.uniform(-6, -2)),
                          learning_rate=float(10 ** rng.uniform(-2, 0)),
                          max_epochs=150, grad_tol=float(10 ** rng.uniform(-7, -3)))
        Ns = rng.choice([8, 24, 64], size=2)
        problems = []
        for _ in range(int(rng.integers(1, 9))):
            N = int(Ns[int(rng.random() < 0.2)])
            ps = generate_patterns(int(rng.integers(1, 41)), N, int(rng.integers(2**31)))
            K = gram(ps, KernelConfig(gamma=float(10 ** rng.uniform(-4, 0)))).values
            T = all_targets(ps)
            if rng.random() < 0.7:
                j = int(rng.integers(N))
                T[:, j] = 0.5 + 10 ** rng.uniform(-9, -1) * (T[:, j] - 0.5)
            problems.append((K, T))
        seen["two_N"] += len({T.shape[1] for _, T in problems}) > 1
        # the epochs are cut after a trip at e, so that it comes at the last epoch, late,
        # or not at all; epochs before the cut do not depend on it
        trips = [e for K, T in problems for e in _trip_epochs(K, T, cfg) if e > 0]
        if trips and c % 3:
            e = int(rng.choice(trips))
            cfg = replace(cfg, max_epochs=(e + 1, 3 * e // 2 + 1)[c % 3 - 1])

        def read():
            for problem in problems:
                reads.append(problem)
                yield problem

        stacks.clear()
        reads.clear()
        got = list(klr.fit_many(read(), cfg))
        assert len(got) == len(problems)
        stacked = {}  # id(K) -> the size of its stack
        for ids, read_so_far in stacks:
            last = max(i for i, (K, _) in enumerate(problems) if id(K) in ids)
            assert read_so_far <= last + 2  # at most one problem past the stack
            stacked.update(dict.fromkeys(ids, len(ids)))
        for K, T in problems:
            events = []
            _assert_same_fit(got.pop(0), _reference_fit(K, T, cfg, events))
            size = stacked.get(id(K))
            seen["monitored" if size is None else "stack" if size > 1 else "alone"] += 1
            if size is None or size == 1:
                continue
            trips = [e for e, kind, _ in events if kind == "grad"]
            if not trips:
                seen["never"] += 1
            elif trips[0] == cfg.max_epochs - 1:
                seen["last_epoch"] += 1
            else:
                seen["early" if trips[0] < cfg.max_epochs / 2 else "late"] += 1
    seen["trip_in_stack"] = sum(n > 1 and tripped for n, _, tripped in calls)
    seen["resumed"] = sum(n > 1 and start > 0 for n, start, _ in calls)
    assert min(seen.values()) >= 1, seen


def geometry_cell(gamma):
    """K, T and training config of the benchmark's P = N = 256 descent cells at seed 0."""
    ps = generate_patterns(256, 256, seed64(0, 0, 1, 0))
    cfg = TrainConfig(lam=1e-6, learning_rate=0.002, max_epochs=40, grad_tol=1e-6)
    return gram(ps, KernelConfig(gamma=gamma)).values, all_targets(ps), cfg


def test_fit_matches_gathering_reference_where_every_column_trips():
    K, T, cfg = geometry_cell(1e-3)
    assert not klr._certified(K, cfg)
    want = _reference_fit(K, T, cfg)
    _assert_same_fit(fit_dual_weights(K, T, cfg), want)
    assert len(want.diverged) == 256
    assert len({e for _, e in want.diverged}) >= 3


@settings(max_examples=30, deadline=None)
@given(P=st.integers(1, 256), N=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
       log_gamma=st.floats(-4, 1), log_lam=st.floats(-8, -1), step=st.floats(0.01, 0.999),
       max_epochs=st.integers(1, 400), log_tol=st.floats(-9, -1))
def test_a_certified_fit_equals_the_monitored_reference_bit_for_bit(
        P, N, seed, log_gamma, log_lam, step, max_epochs, log_tol):
    # lr * L reaches 0.999 * CERTIFIED_STEP; the reference still runs the monitor, so a
    # loss it saw rise, by rounding or otherwise, would show here as a diverged column.
    # A certified fit runs outside np.errstate, so any numpy warning it raises fails here.
    ps = generate_patterns(P, N, seed)
    K = gram(ps, KernelConfig(gamma=10 ** log_gamma)).values
    lam = 10 ** log_lam
    r = K.sum(axis=1).max()
    cfg = TrainConfig(lam, step * CERTIFIED_STEP / (r * r / 4 + lam * r), max_epochs,
                      10 ** log_tol)
    assert klr._certified(K, cfg)
    T = all_targets(ps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fit_dual_weights(K, T, cfg)
    _assert_same_fit(got, _reference_fit(K, T, cfg))


@pytest.mark.parametrize("config, uncertified", [
    ("configs/acceptance.cfg", set()),
    ("perfbench/configs/phase-descent.cfg", set()),
    ("perfbench/configs/phase-geometry.cfg", {(1e-3, 0.5), (1e-3, 1.0)}),
    ("perfbench/configs/pipeline-train.cfg", set()),
])
def test_the_certificate_covers_every_workload_fit_but_the_steep_geometry_cells(
        config, uncertified):
    # lr * L is at most 1.62 over the acceptance grid's 108 fits and phase-descent's 3,
    # 0.004 at phase-geometry's gamma 1e-2, about 0.019 for pipeline's network, and 3.0
    # and 12.0 at phase-geometry's gamma 1e-3, the only workload fits that run the
    # monitor. The grid fits are run_cell's, at the config's seed; pipeline's train config
    # has its seed replaced by the benchmark's --seed, here 0-4.
    fits = []  # (gamma, load, patterns, training config)
    if config.endswith("pipeline-train.cfg"):
        run = read_config(ROOT / config, TrainRun)
        fits = [(run.gamma, None, generate_patterns(run.num_patterns, run.num_neurons, seed),
                 run.train) for seed in range(5)]
    else:
        cfg = grid_config_from_file(ROOT / config)
        for gi, gamma in enumerate(cfg.gamma_values):
            for li, load in enumerate(cfg.load_values):
                for t in range(cfg.trials_per_cell):
                    seed = seed64(cfg.base_seed, gi, li, t)
                    ps = generate_patterns(round(load * cfg.num_neurons), cfg.num_neurons, seed)
                    fits.append((gamma, load, ps, cfg.train))
    got = {(gamma, load) for gamma, load, ps, train in fits
           if not klr._certified(gram(ps, KernelConfig(gamma=gamma)).values, train)}
    assert got == uncertified


@pytest.mark.parametrize("K, certified", [
    (np.eye(2), True),
    (np.array([[1.0, 0.5], [0.4, 1.0]]), False),  # asymmetric
    (np.array([[1.0, np.inf], [np.inf, 1.0]]), False),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), False),
    (np.full((2, 2), 1e200), False),  # r * r overflows
    (np.full((2, 2), math.sqrt(1.01 * CERTIFIED_STEP / 0.1)), False),
    (np.full((2, 2), math.sqrt(0.99 * CERTIFIED_STEP / 0.1)), True),
])
def test_only_a_finite_symmetric_K_under_the_step_bound_is_certified(K, certified):
    # lam = 0 and lr = 0.1: a (2, 2) K of entries c has r = 2c, so lr * L = 0.1 c^2
    assert klr._certified(K, TrainConfig(lam=0.0, learning_rate=0.1)) == certified


@pytest.mark.parametrize("gamma, halves, diverged, converged, buffers", [
    (1e-3, 0, 256, 0, 6.5), (1e-2, 0, 0, 0, 7.5), (1e-2, 1, 0, 1, 8.5)])
def test_descent_memory_stays_within_its_buffers(gamma, halves, diverged, converged, buffers):
    # Each bound sits under one (P, N) buffer above its measured peak, so one kept buffer
    # passes it. At gamma 1e-3 the fit is not certified and every column diverges; its
    # per-epoch monitor peaks near 6 buffers (A, prev_A, H, E, sigma(H) and the loss
    # terms), and H, sigma(H) or the targets kept into the step, or a Grad kept past it,
    # pass 6.5. A certified fit's blocks hold 2B + 4 (P, N) buffers, 6 at this shape
    # (B = 1), beside A: 7 at gamma 1e-2, where no column trips, and a copy of T would
    # pass 7.5. A column with targets of 1/2 converges at epoch 0, and the other 255 then
    # descend in blocks beside A and their gathered targets: 8 buffers, and the first
    # call's slots kept into the next call pass 8.5.
    K, T, cfg = geometry_cell(gamma)
    T[:, :halves] = 0.5
    tracemalloc.start()
    try:
        res = fit_dual_weights(K, T, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(res.diverged), int(res.converged.sum())) == (diverged, converged)
    assert peak <= buffers * T.nbytes


def test_dual_weights_rejects_nonfinite():
    with pytest.raises(Exception):
        DualWeights(alpha=np.array([[np.inf]]), gamma=1.0, lam=0.0, trained_epochs=1)


def test_dual_weights_refuses_a_vector_alpha():
    with pytest.raises(ArgumentError, match="^alpha must be a P x N matrix$"):
        DualWeights(alpha=np.zeros(4), gamma=1.0, lam=0.0, trained_epochs=0)


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
def test_dual_weights_rejects_a_bad_gamma(gamma):
    with pytest.raises(ArgumentError, match="gamma"):
        DualWeights(alpha=np.zeros((1, 1)), gamma=gamma, lam=0.0, trained_epochs=0)


def test_descent_agrees_with_the_exact_optimum():
    # The loss is lam * lambda_min(K)-strongly convex (its Hessian is K D K + lam K),
    # so a converged neuron lies within |grad| / (lam lambda_min(K)) of the optimum;
    # the oracle's own distance to it is bounded the same way by its gradient.
    # A neuron that stopped on the epoch budget can only have a higher loss.
    rng = np.random.default_rng(12)
    seen = {"converged": 0, "stopped": 0}
    for c in range(8):
        P, N = int(rng.integers(2, 9)), int(rng.integers(10, 17))
        ps = generate_patterns(P, N, c)
        K = gram(ps, KernelConfig(gamma=float(rng.uniform(0.1, 0.5)))).values
        T = all_targets(ps)
        lam_min = np.linalg.eigvalsh(K)[0]
        assert lam_min > 0.1  # no two patterns coincide
        lam = float(10 ** rng.uniform(-1.5, -0.5))
        cfg = TrainConfig(lam=lam, learning_rate=0.5, max_epochs=(40, 3000)[c % 2], grad_tol=1e-8)
        res = fit_dual_weights(K, T, cfg)
        assert not res.diverged
        best = _reference_optimum(K, T, lam)
        for i in range(N):
            got, opt, t = res.alpha[:, i], best[:, i], T[:, i]
            if res.converged[i]:
                seen["converged"] += 1
                radius = sum(
                    np.linalg.norm(loss_gradient(a, K, t, lam)) for a in (got, opt)
                ) / (lam * lam_min)
                assert np.linalg.norm(got - opt) <= radius
            else:
                seen["stopped"] += 1
                assert loss(opt, K, t, lam) <= loss(got, K, t, lam)
    assert min(seen.values()) > 0, seen
