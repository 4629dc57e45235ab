"""The model's symmetries along the whole path: descent, Fisher spectrum, gradient report
and recall, at P = 8, 16 and 32, N = 64 and gamma 1e-3, 0.01 and 0.1.

Each symmetry is one of the pattern set, so the transformed problem goes through gram,
all_targets, fit_dual_weights, neuron_spectra and gradient_report as the original does.

- Neuron permutation (the patterns' columns, so T's columns): neurons are independent
  columns, so alpha and every GradientReport field come back permuted, bit for bit.
- Pattern permutation (the patterns' rows: K -> Pi K Pi', T -> Pi T): alpha and the
  reports come back permuted. The matmuls sum in another order, so this holds within
  1e-9 relative to each quantity's largest magnitude over the neurons.
- Target flip (the patterns negated: K unchanged, T -> 1 - T): alpha comes back as
  -alpha and the reports unchanged, within the same 1e-9.
- Recall with the neurons of the patterns, of alpha and of the cues permuted: overlaps,
  steps, convergence and successes are the same, exactly, and the state each cue has
  after its steps comes back permuted; recall decides only signs of fields of exact
  kernel values.
"""

from dataclasses import fields
from functools import cache

import numpy as np
import pytest

from hopgeo.dynamics import local_field, recall_batch
from hopgeo.infogeo import GradientReport, gradient_report, neuron_spectra
from hopgeo.kernel_core import KernelConfig, PatternSet, corrupt, generate_patterns, gram
from hopgeo.klr import DualWeights, TrainConfig, all_targets, fit_dual_weights

N = 64
CFG = TrainConfig(lam=1e-6, learning_rate=0.008, max_epochs=3000)
CASES = [(P, gamma) for P in (8, 16, 32) for gamma in (1e-3, 0.01, 0.1)]
REL = 1e-9


def measure(patterns: np.ndarray, gamma: float):
    """(alpha, {GradientReport field: its value per neuron, as a float}) of the pattern set."""
    ps = PatternSet(patterns, seed=0)
    K = gram(ps, KernelConfig(gamma=gamma)).values
    T = all_targets(ps)
    alpha = fit_dual_weights(K, T, CFG).alpha
    reports = neuron_spectra(alpha, K, lambda i, spec: gradient_report(
        alpha[:, i], K, T[:, i], CFG.lam, spec))
    return alpha, {f.name: np.array([getattr(r, f.name) for r in reports], dtype=float)
                   for f in fields(GradientReport)}


@cache
def case(P: int, gamma: float):
    """The patterns, a neuron and a pattern permutation, and the measured original."""
    patterns = generate_patterns(P, N, 1000 + P).patterns
    rng = np.random.default_rng(P)
    return patterns, rng.permutation(N), rng.permutation(P), measure(patterns, gamma)


def assert_close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= REL * scale


@pytest.mark.parametrize("P, gamma", CASES)
def test_a_neuron_permutation_permutes_alpha_and_every_report_exactly(P, gamma):
    patterns, perm, _, (alpha, reports) = case(P, gamma)
    got_alpha, got = measure(patterns[:, perm], gamma)
    assert np.array_equal(got_alpha, alpha[:, perm])
    for name, values in reports.items():
        assert np.array_equal(got[name], values[perm]), name


@pytest.mark.parametrize("P, gamma", CASES)
def test_a_pattern_permutation_permutes_alpha_and_keeps_the_reports(P, gamma):
    patterns, _, pi, (alpha, reports) = case(P, gamma)
    got_alpha, got = measure(patterns[pi], gamma)
    assert_close(got_alpha, alpha[pi])
    for name, values in reports.items():
        assert_close(got[name], values)


@pytest.mark.parametrize("P, gamma", CASES)
def test_a_target_flip_negates_alpha_and_keeps_the_reports(P, gamma):
    patterns, _, _, (alpha, reports) = case(P, gamma)
    got_alpha, got = measure(-patterns, gamma)
    assert_close(got_alpha, -alpha)
    for name, values in reports.items():
        assert_close(got[name], values)


@pytest.mark.parametrize("P, gamma", CASES)
def test_a_neuron_permutation_permutes_each_recall_final_state_exactly(P, gamma):
    patterns, perm, _, (alpha, _) = case(P, gamma)
    cues = np.array([corrupt(xi, f, 7 * mu + i) for i, f in enumerate((0.1, 0.25, 0.4))
                     for mu, xi in enumerate(patterns)])
    targets = list(range(P)) * 3
    weights = DualWeights(alpha=alpha, gamma=gamma, lam=CFG.lam, trained_epochs=0)
    permuted = DualWeights(alpha=alpha[:, perm], gamma=gamma, lam=CFG.lam, trained_epochs=0)
    ps, permuted_ps = PatternSet(patterns, seed=0), PatternSet(patterns[:, perm], seed=0)
    want = recall_batch(cues, targets, ps, weights)
    got = recall_batch(cues[:, perm], targets, permuted_ps, permuted)
    for cue, g, w in zip(cues, got, want, strict=True):
        assert (g.overlap, g.steps, g.converged, g.success) == (
            w.overlap, w.steps, w.converged, w.success)
        assert np.array_equal(state_after(cue[perm], g.steps, permuted_ps, permuted),
                              state_after(cue, w.steps, ps, weights)[perm])


def state_after(cue, steps, patterns, weights):
    """The state of `steps` synchronous updates from `cue`, ties keeping their value."""
    state = cue
    for _ in range(steps):
        h = local_field(state, patterns, weights)
        state = np.where(h > 0, 1, np.where(h < 0, -1, state))
    return state
