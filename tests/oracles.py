"""The oracles and references the tests check the package against.

Each is written apart from the code it checks: the enumeration Fisher matrix and
the scalar loss are the closed forms' independent counterparts (C1, C2), and the
`_reference_*` functions are the plain loops that the blocked, batched and shared
production paths must reproduce bit for bit. Nothing in src/ calls them.
"""

import dataclasses

import numpy as np

from hopgeo.dynamics import RecallResult, local_field, recall_batch
from hopgeo.infogeo import GradientReport, fisher_matrix, gradient_report, spectrum
from hopgeo.kernel_core import KernelConfig, corrupt, generate_patterns, gram
from hopgeo.klr import (
    DESCENT_SLACK,
    DualWeights,
    FitResult,
    all_targets,
    fit_dual_weights,
    loss_gradient,
    sigmoid,
)
from hopgeo.sweep import CellRecords, SweepCell, seed64


def fim_empirical_oracle(alpha_col, K: np.ndarray) -> np.ndarray:
    """Expectation form of the Fisher matrix, by explicit enumeration.

    For each pattern mu the Bernoulli score at outcome s in {0,1} is
    (s - p_mu) * K[:, mu]; the two outcomes are enumerated with their
    probabilities and the score outer products summed over patterns.
    Deliberately loop-based and independent of fisher_matrix.
    """
    p = sigmoid(K @ alpha_col)
    P = p.size
    G = np.zeros((P, P))
    for mu in range(P):
        k_mu = K[:, mu]
        for s, prob in ((1.0, p[mu]), (0.0, 1.0 - p[mu])):
            score = (s - p[mu]) * k_mu
            G += prob * np.outer(score, score)
    return 0.5 * (G + G.T)


def loss(alpha_col, K: np.ndarray, targets, lam: float) -> float:
    """Cross-entropy over stored patterns plus (lam/2) alpha' K alpha, the objective that
    descent lowers; softplus(h) - t*h is written as logaddexp(0, h) - t*h."""
    h = K @ alpha_col
    return float(np.sum(np.logaddexp(0.0, h) - targets * h) + 0.5 * lam * alpha_col @ h)


def central_difference(alpha, K, t, lam, eps=1e-6):
    """The gradient of `loss` in alpha by central differences of step eps."""
    g = np.zeros_like(alpha)
    for i in range(alpha.size):
        up = alpha.copy(); up[i] += eps
        dn = alpha.copy(); dn[i] -= eps
        g[i] = (loss(up, K, t, lam) - loss(dn, K, t, lam)) / (2 * eps)
    return g


def _reference_fit(K, T, cfg, events=None):
    """Oracle for fit_dual_weights: gathers the active columns every epoch.

    The plain loop that the blocked, in-place epochs must reproduce bit for bit.
    `events`, if given, receives (epoch, "loss", active) for each epoch at which a
    column fails the descent monitor and (epoch, "grad", active) for each at which
    one reaches grad_tol; `active` counts the columns left active after the event.
    """
    def sigmoid_masked(H):
        out = np.empty_like(H)
        pos = H >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-H[pos]))
        eh = np.exp(H[~pos])
        out[~pos] = eh / (1.0 + eh)
        return out

    P, N = T.shape
    A = np.zeros((P, N))
    active = np.ones(N, dtype=bool)
    converged = np.zeros(N, dtype=bool)
    diverged = []
    prev_loss = np.full(N, np.inf)
    prev_A = A.copy()
    epochs_run = 0
    for epoch in range(cfg.max_epochs):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        Aa = A[:, idx]
        H = K @ Aa
        Ta = T[:, idx]
        bce = np.logaddexp(0.0, H) - Ta * H
        ls = np.sum(bce, axis=0) + 0.5 * cfg.lam * np.sum(Aa * H, axis=0)
        bad = ~np.isfinite(ls) | (ls > prev_loss[idx] + DESCENT_SLACK)
        if bad.any():
            for j in idx[bad]:
                diverged.append((int(j), epoch))
            A[:, idx[bad]] = prev_A[:, idx[bad]]
            active[idx[bad]] = False
            if events is not None:
                events.append((epoch, "loss", int(active.sum())))
            idx = idx[~bad]
            if idx.size == 0:
                continue
            H = H[:, ~bad]
            Ta = Ta[:, ~bad]
            ls = ls[~bad]
        prev_loss[idx] = ls
        Grad = K @ (sigmoid_masked(H) - Ta) + cfg.lam * H
        gnorm = np.sqrt(np.sum(Grad * Grad, axis=0))
        done = gnorm < cfg.grad_tol
        converged[idx[done]] = True
        active[idx[done]] = False
        if events is not None and done.any():
            events.append((epoch, "grad", int(active.sum())))
        step = ~done
        if step.any():
            prev_A[:, idx[step]] = A[:, idx[step]]
            A[:, idx[step]] -= cfg.learning_rate * Grad[:, step]
        epochs_run = epoch + 1
    return FitResult(alpha=A, epochs=epochs_run, diverged=diverged, converged=converged)


def _reference_optimum(K, T, lam):
    """Exact-optimum oracle for descent: damped Newton in the dual, one neuron at a time.

    The gradient is K (p - t + lam alpha) and the Hessian K (D K + lam I), with
    D = diag(p (1 - p)), so the Newton step is d = (D K + lam I)^-1 (p - t + lam alpha).
    It is halved until the loss does not rise by more than rounding. Returns the (P, N) alpha.
    """
    P, N = T.shape
    A = np.zeros((P, N))
    for i in range(N):
        a, t = A[:, i], T[:, i]
        f = loss(a, K, t, lam)
        for _ in range(100):
            p = sigmoid(K @ a)
            d = np.linalg.solve(np.diag(p * (1 - p)) @ K + lam * np.eye(P), p - t + lam * a)
            step, limit = 1.0, f + 4 * np.finfo(float).eps * abs(f)
            while loss(a - step * d, K, t, lam) > limit and step > 1e-12:
                step /= 2
            new = loss(a - step * d, K, t, lam)
            if new > limit or np.linalg.norm(loss_gradient(a, K, t, lam)) < 1e-13:
                break
            a, f = a - step * d, new
        A[:, i] = a
    return A


def _step(state, patterns, weights):
    """One synchronous update; returns (new_state, number of flipped neurons)."""
    state = np.asarray(state)
    h = local_field(state, patterns, weights)
    new = np.where(h > 0, 1, np.where(h < 0, -1, state)).astype(state.dtype)
    return new, int(np.count_nonzero(new != state))


def _reference_recall(cue, target_index, patterns, weights, max_steps, success_threshold):
    """The single-cue loop recall() ran before cues were batched; the oracle."""
    def overlap(state, pattern):  # (1/N) sum_i state_i * pattern_i
        return float(state @ pattern) / state.shape[0]

    target = patterns.patterns[target_index]
    state = np.asarray(cue).copy()
    prev = None
    converged = False
    steps = 0
    for _ in range(max_steps):
        new, changed = _step(state, patterns, weights)
        steps += 1
        if changed == 0:
            converged = True
            break
        if prev is not None and np.array_equal(new, prev):
            if overlap(prev, target) > overlap(state, target):
                state = prev
            break
        prev = state
        state = new
    m = overlap(state, target)
    return RecallResult(
        overlap=m,
        converged=converged,
        steps=steps,
        success=m >= success_threshold,
    )


def _reference_run_cell(gamma, load, cfg, gamma_index, load_index):
    """Oracle for run_cell: one Fisher spectrum per neuron, reports in neuron order,
    trial means taken as the loop goes.

    Returns the CellRecords, grid.csv row included, that run_cell's shared
    spectra must reproduce bit for bit.
    """
    N = cfg.num_neurons
    P = max(1, int(round(load * N)))
    kcfg = KernelConfig(gamma=gamma)
    want_recall = "recall_rate" in cfg.metrics
    means = ("lambda_max", "d_eff", "euclid_norm_sq", "riemann_norm_sq", "rank1_residual")
    per_trial = {k: [] for k in means}
    reports = []
    diverged = recall_hits = 0
    for t in range(cfg.trials_per_cell):
        seed = seed64(cfg.base_seed, gamma_index, load_index, t)
        patterns = generate_patterns(P, N, seed)
        K = gram(patterns, kcfg).values
        T = all_targets(patterns)
        res = fit_dual_weights(K, T, cfg.train)
        diverged += len(res.diverged)
        row = []
        for i in range(N):
            spec = spectrum(fisher_matrix(res.alpha[:, i], K))
            row.append(gradient_report(
                res.alpha[:, i], K, T[:, i], cfg.train.lam, spec, cfg.rel_cutoff
            ))
        reports.append(row)
        for k in means:
            per_trial[k].append(float(np.mean([getattr(rep, k) for rep in row])))
        if want_recall:
            weights = DualWeights(
                alpha=res.alpha, gamma=gamma, lam=cfg.train.lam, trained_epochs=res.epochs
            )
            cues = [
                corrupt(patterns.patterns[mu], cfg.recall_flip_fraction,
                        seed64(cfg.base_seed, gamma_index, load_index,
                               cfg.trials_per_cell + t * P + mu))
                for mu in range(P)
            ]
            results = recall_batch(
                cues, range(P), patterns, weights,
                max_steps=cfg.recall_max_steps,
                success_threshold=cfg.success_threshold,
            )
            recall_hits += sum(r.success for r in results)

    def sd(vals):
        return float(np.std(vals, ddof=0))
    cell = SweepCell(
        gamma=gamma,
        load=load,
        P=P,
        N=N,
        seed=seed64(cfg.base_seed, gamma_index, load_index),
        trials=cfg.trials_per_cell,
        lambda_max_mean=float(np.mean(per_trial["lambda_max"])),
        lambda_max_sd=sd(per_trial["lambda_max"]),
        d_eff_mean=float(np.mean(per_trial["d_eff"])),
        d_eff_sd=sd(per_trial["d_eff"]),
        euclid_norm_sq_mean=float(np.mean(per_trial["euclid_norm_sq"])),
        riemann_norm_sq_mean=float(np.mean(per_trial["riemann_norm_sq"])),
        rank1_residual_mean=float(np.mean(per_trial["rank1_residual"])),
        recall_rate=(recall_hits / (cfg.trials_per_cell * P)) if want_recall else float("nan"),
        degenerate_count=sum(rep.degenerate for row in reports for rep in row),
        divergence_count=diverged,
    )
    return CellRecords(cell, {
        f.name: np.array([[getattr(rep, f.name) for rep in row] for row in reports])
        for f in dataclasses.fields(GradientReport)
    })
