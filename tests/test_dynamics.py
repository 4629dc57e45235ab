import math

import numpy as np
import pytest

from hopgeo import dynamics
from hopgeo.dynamics import RecallConfig, local_field, recall, recall_batch, recall_trial
from hopgeo.errors import ArgumentError
from hopgeo.kernel_core import KernelConfig, PatternSet, corrupt, generate_patterns, gram
from hopgeo.klr import DualWeights, TrainConfig, all_targets, fit_dual_weights, train
from oracles import _reference_recall, _step


def test_local_field_matches_loop_oracle():
    ps = generate_patterns(4, 12, 5)
    w = train(ps, 0.07, TrainConfig(lam=1e-3, learning_rate=0.05,
                                    max_epochs=500, grad_tol=1e-6))
    state = corrupt(ps.patterns[1], 0.25, 3)
    h = local_field(state, ps, w)
    for i in range(ps.num_neurons):
        expected = sum(
            w.alpha[nu, i] * math.exp(-w.gamma * float(np.sum((state - ps.patterns[nu]) ** 2)))
            for nu in range(ps.num_patterns)
        )
        assert h[i] == pytest.approx(expected, rel=1e-10, abs=1e-14)


def test_local_field_length_check():
    ps = generate_patterns(2, 8, 1)
    w = DualWeights(alpha=np.zeros((2, 8)), gamma=0.1, lam=0.0, trained_epochs=0)
    with pytest.raises(ArgumentError, match="does not match N=8"):
        local_field(np.ones(7), ps, w)


def test_zero_weights_freeze_the_state():
    # all fields are zero, ties keep the current value
    ps = generate_patterns(3, 10, 2)
    w = DualWeights(alpha=np.zeros((3, 10)), gamma=0.1, lam=0.0, trained_epochs=0)
    state = corrupt(ps.patterns[0], 0.3, 4)
    new, changed = _step(state, ps, w)
    assert changed == 0
    assert np.array_equal(new, state)
    res = recall(state, 0, ps, w, RecallConfig(max_steps=5))
    assert res.converged
    assert res.steps == 1
    assert res.overlap == float(state @ ps.patterns[0]) / ps.num_neurons  # the cue's own


def test_stored_cue_is_fixed_point_after_training():
    ps = generate_patterns(4, 32, 7)
    w = train(ps, 0.05, TrainConfig(lam=1e-6, learning_rate=0.02,
                                    max_epochs=20000, grad_tol=1e-6))
    for mu in range(ps.num_patterns):
        res = recall(ps.patterns[mu], mu, ps, w, RecallConfig(max_steps=10))
        assert res.converged
        assert res.steps == 1
        assert res.overlap == 1.0
        assert res.success


def test_recall_from_corrupted_cue():
    ps = generate_patterns(4, 32, 7)
    w = train(ps, 0.05, TrainConfig(lam=1e-6, learning_rate=0.02,
                                    max_epochs=20000, grad_tol=1e-6))
    cue = corrupt(ps.patterns[2], 0.1, 99)
    res = recall(cue, 2, ps, w)
    assert res.converged
    assert res.overlap == 1.0
    assert res.success


def test_two_cycle_detected_and_not_converged():
    # Hand-built antisymmetric weights on N=2 with patterns (1,1) / (-1,-1):
    # from state (1,1) the field flips both bits, and flips them back next
    # step, giving a clean 2-cycle.
    X = np.array([[1, 1], [-1, -1]])
    ps = PatternSet(patterns=X, seed=0)
    c = 5.0
    alpha = np.array([[-c, -c], [c, c]])
    w = DualWeights(alpha=alpha, gamma=0.1, lam=0.0, trained_epochs=1)
    h = local_field(X[0], ps, w)
    assert np.all(h < 0)  # pushes toward -x
    res = recall(X[0].copy(), 0, ps, w, RecallConfig(max_steps=50))
    assert not res.converged
    assert res.steps < 50
    # the better-overlap member of the cycle is the target itself
    assert res.overlap == 1.0


def test_max_steps_exhaustion_reports_not_converged():
    X = np.array([[1, 1], [-1, -1]])
    ps = PatternSet(patterns=X, seed=0)
    alpha = np.array([[-5.0, -5.0], [5.0, 5.0]])
    w = DualWeights(alpha=alpha, gamma=0.1, lam=0.0, trained_epochs=1)
    res = recall(X[0].copy(), 0, ps, w, RecallConfig(max_steps=1))
    assert not res.converged
    assert res.steps == 1


def test_recall_argument_validation():
    ps = generate_patterns(2, 4, 0)
    w = DualWeights(alpha=np.zeros((2, 4)), gamma=0.1, lam=0.0, trained_epochs=0)
    with pytest.raises(ArgumentError):
        recall(ps.patterns[0], 0, ps, w, RecallConfig(max_steps=0))
    with pytest.raises(ArgumentError):
        recall(ps.patterns[0], 0, ps, w, RecallConfig(success_threshold=1.5))


def test_success_threshold_boundary():
    ps = generate_patterns(1, 20, 3)
    w = DualWeights(alpha=np.zeros((1, 20)), gamma=0.1, lam=0.0, trained_epochs=0)
    cue = corrupt(ps.patterns[0], 0.05, 1)  # one flip -> overlap 0.9
    res = recall(cue, 0, ps, w, RecallConfig(success_threshold=0.9))
    assert res.overlap == pytest.approx(0.9)
    assert res.success
    res = recall(cue, 0, ps, w, RecallConfig(success_threshold=0.95))
    assert not res.success


def _near_tie_alpha(alpha, patterns, cues, gamma):
    # column i's last coefficient cancels its field at cue i % M to rounding
    # level, so the sign of that field depends on the summation order
    X = patterns.patterns.astype(float)
    for i in range(alpha.shape[1]):
        s = cues[i % len(cues)].astype(float)
        k = np.exp(-gamma * (2.0 * (X.shape[1] - X @ s)))
        alpha[-1, i] = -(k[:-1] @ alpha[:-1, i]) / k[-1]
    return alpha


def test_batched_recall_matches_single_cue_reference(monkeypatch):
    rng = np.random.default_rng(20240915)
    fields = 0
    seen = {"fixed": 0, "two_cycle": 0, "exhausted": 0, "max_steps_1": 0, "zero_alpha_tie": 0}
    near_tie_recomputes = 0
    recomputes = []

    def counting_field(*args, **kwargs):
        recomputes.append(args[0])
        return local_field(*args, **kwargs)

    for c in range(240):
        kind = ("random", "integer", "zero_alpha", "near_tie", "trained")[c % 5]
        P = int(rng.integers(2, 24))
        N = int(rng.integers(2, 48))
        gamma = float(10 ** rng.uniform(-3, 0.5))
        kcfg = KernelConfig(gamma=gamma)
        ps = generate_patterns(P, N, c)
        M = int(rng.integers(1, 2 * dynamics.RECALL_BLOCK + 3))
        targets = rng.integers(0, P, M)
        cues = np.array([
            corrupt(ps.patterns[t], float(rng.uniform(0, 0.5)), int(rng.integers(2**62)))
            for t in targets
        ])
        if kind == "random":
            alpha = rng.standard_normal((P, N))
        elif kind == "integer":
            alpha = rng.integers(-2, 3, (P, N)).astype(float)  # exact ties are common
        elif kind == "zero_alpha":
            alpha = np.zeros((P, N))
        elif kind == "near_tie":
            alpha = _near_tie_alpha(rng.standard_normal((P, N)), ps, cues, gamma)
        else:
            alpha = fit_dual_weights(gram(ps, kcfg).values, all_targets(ps),
                                     TrainConfig(lam=1e-6, learning_rate=0.01,
                                                 max_epochs=50, grad_tol=1e-6)).alpha
        w = DualWeights(alpha=alpha, gamma=gamma, lam=0.0, trained_epochs=0)
        max_steps = 1 if c % 7 == 0 else int(rng.integers(2, 9))
        threshold = float(rng.uniform(0.5, 1.0))
        rcfg = RecallConfig(success_threshold=threshold, max_steps=max_steps)
        recomputes.clear()
        with monkeypatch.context() as m:
            m.setattr(dynamics, "local_field", counting_field)
            batch = recall_batch(cues, targets, ps, w, rcfg)
        if kind == "near_tie":
            near_tie_recomputes += len(recomputes)
        assert len(batch) == M
        for cue, t, got in zip(cues, targets, batch):
            want = _reference_recall(cue, t, ps, w, max_steps, threshold)
            assert (got.overlap, got.converged, got.steps, got.success) == (
                want.overlap, want.converged, want.steps, want.success
            )
            fields += 1
            if want.converged:
                seen["fixed"] += 1
                seen["zero_alpha_tie"] += kind == "zero_alpha" and want.steps == 1
            elif want.steps < max_steps:
                seen["two_cycle"] += 1
            else:
                seen["exhausted"] += 1
            seen["max_steps_1"] += max_steps == 1
    assert fields > 5000
    assert all(seen.values()), seen
    # near-tie fields are decided by the guard's recomputation, not the matmul
    assert near_tie_recomputes > 0


def test_recall_batch_argument_checks():
    ps = generate_patterns(2, 4, 0)
    w = DualWeights(alpha=np.zeros((2, 4)), gamma=0.1, lam=0.0, trained_epochs=0)
    assert recall_batch(np.empty((0, 4), dtype=int), [], ps, w) == []
    with pytest.raises(ArgumentError, match="1 targets for 2 cues"):
        recall_batch(ps.patterns, [0], ps, w)
    with pytest.raises(ArgumentError, match=r"cue shape \(5,\) does not match N=4"):
        recall_batch(np.ones((1, 5), dtype=int), [0], ps, w)
    with pytest.raises(ArgumentError):
        recall_batch(np.zeros((1, 4), dtype=int), [0], ps, w)


def test_recall_batch_checks_every_cue_before_any_cue_steps(monkeypatch):
    # a 0 in the one cue of the second block is found before the first block steps
    ps = generate_patterns(2, 4, 0)
    w = DualWeights(alpha=np.zeros((2, 4)), gamma=0.1, lam=0.0, trained_epochs=0)
    cues = np.ones((dynamics.RECALL_BLOCK + 1, 4), dtype=int)
    cues[-1, 2] = 0
    blocks = []

    def counting_block(cues, *args):
        blocks.append(len(cues))
        return []

    monkeypatch.setattr(dynamics, "_recall_block", counting_block)
    with pytest.raises(ArgumentError, match="cue entries must be exactly -1 or \\+1"):
        recall_batch(cues, [0] * len(cues), ps, w)
    assert blocks == []


def test_zero_alpha_columns_are_sure_ties_and_never_recomputed(monkeypatch):
    # a column frozen at alpha = 0 has field +-0 in any summation order: a tie
    # that keeps the state, decided without recomputing the cue's fields
    rng = np.random.default_rng(7)
    P, N = 8, 40
    ps = generate_patterns(P, N, 3)
    alpha = rng.standard_normal((P, N))
    alpha[:, ::3] = 0.0
    alpha[:, 1] = -0.0
    w = DualWeights(alpha=alpha, gamma=0.02, lam=0.0, trained_epochs=0)
    targets = rng.integers(0, P, 150)
    cues = np.array([corrupt(ps.patterns[t], 0.2, seed) for seed, t in enumerate(targets)])
    recomputes = []

    def counting_field(*args, **kwargs):
        recomputes.append(args[0])
        return local_field(*args, **kwargs)

    monkeypatch.setattr(dynamics, "local_field", counting_field)
    batch = recall_batch(cues, targets, ps, w, RecallConfig(max_steps=6))
    assert recomputes == []
    for cue, t, got in zip(cues, targets, batch):
        want = _reference_recall(cue, t, ps, w, 6, RecallConfig.success_threshold)
        assert (got.overlap, got.converged, got.steps, got.success) == (
            want.overlap, want.converged, want.steps, want.success
        )


def test_recall_trial_recalls_every_pattern_from_its_own_seed(monkeypatch):
    ps = generate_patterns(5, 24, 2)
    w = DualWeights(alpha=np.random.default_rng(1).standard_normal((5, 24)), gamma=0.05,
                    lam=0.0, trained_epochs=0)
    seeds = [11, 7, 11, 3, 0]
    corrupted = []  # (pattern row, seed) of each cue recall_trial draws

    def recording_corrupt(xi, flip_fraction, seed):
        corrupted.append((ps.patterns.tolist().index(xi.tolist()), seed))
        return corrupt(xi, flip_fraction, seed)

    with monkeypatch.context() as m:
        m.setattr(dynamics, "corrupt", recording_corrupt)
        rcfg = RecallConfig(flip_fraction=0.25, success_threshold=0.8, max_steps=4)
        got = recall_trial(ps, w, rcfg, seeds)
    assert sorted(corrupted) == list(enumerate(seeds))
    cues = [corrupt(ps.patterns[mu], 0.25, seed) for mu, seed in enumerate(seeds)]
    want = recall_batch(cues, range(5), ps, w, rcfg)
    assert len(got) == 5
    for g, r in zip(got, want):
        assert (g.overlap, g.converged, g.steps, g.success) == (
            r.overlap, r.converged, r.steps, r.success
        )
    with pytest.raises(ValueError):  # one seed per stored pattern
        recall_trial(ps, w, rcfg, seeds[:4])
