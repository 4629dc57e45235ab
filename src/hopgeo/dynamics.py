"""Recall dynamics of a trained kernel Hopfield network.

The probe state enters only through kernel evaluations against the
stored patterns: h_i = sum_nu alpha_nu_i K(state, xi_nu). Updates are
deterministic synchronous threshold dynamics s_i <- sign(h_i), with ties
(h_i == 0) keeping the current value; this is the maximum-probability
decision of the logistic model. Synchronous updates can enter 2-cycles,
which are detected and reported as non-converged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, check_index, check_range
from .kernel_core import PatternSet, check_bipolar, corrupt, rbf_of_inner
from .klr import DualWeights

# the recall defaults of the API, the `recall` flags and the grid config keys
DEFAULT_SUCCESS_THRESHOLD = 0.95
DEFAULT_MAX_STEPS = 100
# cues stepped together by recall_batch; bounds its (block, P) and (block, N) temporaries
RECALL_BLOCK = 64


@dataclass
class RecallResult:
    overlap: float
    converged: bool
    steps: int
    success: bool


def local_field(state, patterns: PatternSet, weights: DualWeights):
    """h_i = sum_nu alpha_nu_i K(state, xi_nu) for every neuron i, K of width weights.gamma."""
    state = np.asarray(state)
    if state.shape != (patterns.num_neurons,):
        raise ArgumentError(f"state length {state.shape} does not match N={patterns.num_neurons}")
    X = patterns.patterns.astype(float)
    k = rbf_of_inner(X @ state.astype(float), patterns.num_neurons, weights.gamma)
    return weights.alpha.T @ k


def recall(
    cue,
    target_index: int,
    patterns: PatternSet,
    weights: DualWeights,
    max_steps: int = DEFAULT_MAX_STEPS,
    success_threshold: float = DEFAULT_SUCCESS_THRESHOLD,
) -> RecallResult:
    """Iterate synchronous updates until a fixed point, 2-cycle, or max_steps.

    On a 2-cycle the higher overlap of the cycle's two states is reported,
    with converged=False. This is recall_batch on a batch of one cue.
    """
    return recall_batch(
        np.asarray(cue)[None, :], [target_index], patterns, weights, max_steps, success_threshold
    )[0]


def recall_batch(
    cues,
    target_indices,
    patterns: PatternSet,
    weights: DualWeights,
    max_steps: int = DEFAULT_MAX_STEPS,
    success_threshold: float = DEFAULT_SUCCESS_THRESHOLD,
) -> list:
    """recall() of cues[m] toward pattern target_indices[m], for every m.

    `cues` is a sequence of length-N ±1 vectors (or an (M, N) array) and each
    target an integer in [0, P); the whole batch is checked before any cue steps.
    Cues are stepped together in blocks of RECALL_BLOCK, which bounds the
    temporaries whatever M is; each RecallResult equals recall() of that cue alone,
    bit for bit.
    """
    check_range("max_steps", max_steps, 1)
    check_range("success_threshold", success_threshold, 0, 1, lo_open=True)
    cues, targets = np.asarray(cues), list(target_indices)
    if len(targets) != len(cues):
        raise ArgumentError(f"{len(targets)} targets for {len(cues)} cues")
    if not len(cues):
        return []
    if cues.ndim != 2 or cues.shape[1] != patterns.num_neurons:
        raise ArgumentError(f"cue shape {cues.shape[1:]} does not match N={patterns.num_neurons}")
    check_bipolar(cues, "cue")
    for t in targets:
        check_index("target index", t, patterns.num_patterns)
    targets = np.array(targets, dtype=int)
    return [r for s in range(0, len(cues), RECALL_BLOCK)
            for r in _recall_block(cues[s:s + RECALL_BLOCK], targets[s:s + RECALL_BLOCK],
                                   patterns, weights, max_steps, success_threshold)]


def recall_trial(
    patterns: PatternSet,
    weights: DualWeights,
    flip_fraction: float,
    seeds,
    max_steps: int = DEFAULT_MAX_STEPS,
    success_threshold: float = DEFAULT_SUCCESS_THRESHOLD,
) -> list:
    """recall_batch of corrupt(pattern mu, flip_fraction, seeds[mu]) toward mu, for every mu.

    One trial of the memory function; `recall` and the sweep's recall_rate both run it.
    """
    cues = [corrupt(xi, flip_fraction, seed)
            for xi, seed in zip(patterns.patterns, seeds, strict=True)]
    return recall_batch(cues, range(patterns.num_patterns), patterns, weights,
                        max_steps, success_threshold)


def _recall_block(cues, targets, patterns, weights, max_steps, success_threshold):
    # Each step computes the kernel values of all live cues with one matmul
    # and their fields with another. The distances are sums of +-1 products,
    # exact in any order, and exp is elementwise, so k has local_field's bits.
    # Only the rounding of h depends on the summation order, and recall reads
    # only its sign. Two orders of the P products differ by at most about
    # P * eps * (k @ |alpha|), so a field within twice that of zero (ties
    # included) is recomputed for its cue by local_field; every sign decision
    # is then the one the single-cue loop makes. The bound is taken as
    # max(k) * sum(|alpha|) >= k @ |alpha|, which costs no second matmul.
    # A column whose alpha is all zero gives h = +-0 in any order, a tie that
    # keeps the state, so its fields are sure however small the bound.
    X = patterns.patterns.astype(float)
    alpha = weights.alpha
    abs_alpha_sum = np.abs(alpha).sum(axis=0)
    zero_column = abs_alpha_sum == 0.0
    N = patterns.num_neurons
    guard = 2.0 * patterns.num_patterns * np.finfo(float).eps
    results = [None] * cues.shape[0]
    ids = np.arange(cues.shape[0])  # block row of each live cue
    state = cues.astype(float)
    prev = state  # no state differs from itself, so step 1 finds no 2-cycle
    for steps in range(1, max_steps + 1):
        k = rbf_of_inner(state @ X.T, N, weights.gamma)
        h = k @ alpha
        bound = (guard * k.max(axis=1))[:, None] * abs_alpha_sum
        sure = (np.abs(h) > bound) | zero_column  # false near zero and for nan
        for r in np.flatnonzero(~sure.all(axis=1)):
            h[r] = local_field(state[r], patterns, weights)
        new = np.sign(h)
        tie = np.abs(new) != 1.0  # h == 0 or nan: neither h > 0 nor h < 0, so keep the value
        new[tie] = state[tie]
        fixed = (new == state).all(axis=1)
        cycle = ~fixed & (new == prev).all(axis=1)
        done = fixed | cycle if steps < max_steps else np.ones_like(fixed)
        d = done.nonzero()[0]
        if d.size:  # the cues that finish at this step
            rows = ids[d]
            tgt = X[targets[rows]]
            m = _dots(new[d], tgt) / N  # (1/N) sum_i s_i xi_i; a fixed point's new is its state
            if cycle.any():  # a 2-cycle's new equals prev: keep the better of its two states
                c = cycle[d]
                m[c] = np.maximum(m[c], _dots(state[d[c]], tgt[c]) / N)
            success = (m >= success_threshold).tolist()
            for i, mi, conv, ok in zip(rows.tolist(), m.tolist(), fixed[d].tolist(), success):
                results[i] = RecallResult(overlap=mi, converged=conv, steps=steps, success=ok)
            if d.size == len(done):
                break
            live = ~done
            ids, state, new = ids[live], state[live], new[live]
        prev, state = state, new
    return results


def _dots(a, b):
    # row-wise inner products of +-1 rows: integers, so exact in any summation order
    return np.einsum("ij,ij->i", a, b)
