"""Per-neuron kernel logistic regression over stored patterns.

Each neuron i is an independent binary classifier: targets are
t_mu = (xi_mu_i + 1)/2 and the field on pattern mu is (K alpha_i)_mu.
The objective is binary cross-entropy plus the RKHS ridge penalty
(lambda/2) alpha' K alpha, minimized by full-batch fixed-step gradient
descent from alpha = 0. The optimizer is deliberately plain first-order
descent so curvature effects are visible rather than hidden by a
second-order solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, TrainingDivergenceError, check_range
from .kernel_core import KernelConfig, PatternSet, gram, read_artifact, write_rows

# Loss may not increase by more than this between accepted epochs.
DESCENT_SLACK = 1e-12
# A fit with learning_rate * (r^2/4 + lambda r) below this (2, less a margin) provably
# lowers every loss each epoch and runs without the descent monitor (_certified).
CERTIFIED_STEP = 1.9
# Byte budget for the (P, N) buffers of a block of descent epochs, and the block-size cap.
BLOCK_BYTES = 1 << 20
MAX_BLOCK = 16


@dataclass
class TrainConfig:
    lam: float = field(default=1e-4, metadata={"key": "lambda"})
    learning_rate: float = 0.1
    max_epochs: int = 100_000
    grad_tol: float = 1e-6

    def __post_init__(self):
        check_range("lambda", self.lam, 0)
        check_range("learning_rate", self.learning_rate, 0, lo_open=True)
        check_range("max_epochs", self.max_epochs, 1)
        check_range("grad_tol", self.grad_tol, 0, lo_open=True)


@dataclass
class DualWeights:
    """alpha[:, i] is the dual coefficient vector of neuron i; gamma is its kernel's width."""

    alpha: np.ndarray  # (P, N)
    gamma: float
    lam: float
    trained_epochs: int

    def __post_init__(self):
        check_range("gamma", self.gamma, 0, lo_open=True)
        check_range("lambda", self.lam, 0)
        check_range("epochs", self.trained_epochs, 0)
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.ndim != 2:
            raise ArgumentError("alpha must be a P x N matrix")
        if not np.isfinite(self.alpha).all():
            raise ArgumentError("alpha entries must all be finite")


def all_targets(patterns: PatternSet) -> np.ndarray:
    """(P, N) matrix of {0,1} targets, one column per neuron."""
    return ((patterns.patterns + 1) // 2).astype(float)


def _logistic(h: np.ndarray, e: np.ndarray, out=None, den=None) -> np.ndarray:
    # sigma(h) from e = exp(-|h|): 1/(1+e) for h >= 0, e/(1+e) below; never overflows.
    # max(e, h >= 0) is 1 where h >= 0 (e <= 1) and e elsewhere, nan included.
    # `out` and `den` take the result and 1+e instead of new arrays.
    num = np.maximum(e, h >= 0, out=out)
    num /= np.add(e, 1.0, out=den)
    return num


def _bce_terms(h: np.ndarray, t: np.ndarray, e: np.ndarray, out: np.ndarray) -> np.ndarray:
    # softplus(h) - t*h == -[t log p + (1-t) log(1-p)], with e = exp(-|h|);
    # the terms are written to `out` without temporaries, and e is overwritten
    np.maximum(h, 0.0, out=out)
    out += np.log1p(e, out=e)
    out -= np.multiply(t, h, out=e)
    return out


def sigmoid(h):
    """Numerically stable logistic function, elementwise; a scalar h gives a float64."""
    h = np.asarray(h, dtype=float)
    return _logistic(h, np.exp(-np.abs(h)))


def loss_gradient(alpha_col, K: np.ndarray, targets, lam: float) -> np.ndarray:
    """grad = K (p - t) + lam K alpha of one neuron, with p = sigma(K alpha); ArgumentError
    unless alpha and the targets are (P,) and K is (P, P)."""
    alpha_col, K = np.asarray(alpha_col, dtype=float), np.asarray(K, dtype=float)
    t = np.asarray(targets, dtype=float)
    if alpha_col.ndim != 1 or K.shape != 2 * alpha_col.shape or t.shape != alpha_col.shape:
        raise ArgumentError("alpha, targets and Gram matrix sizes disagree")
    h = K @ alpha_col
    return K @ (sigmoid(h) - t) + lam * h


@dataclass
class FitResult:
    alpha: np.ndarray                 # (P, N) final iterates, C order
    epochs: int                       # epochs run, except one where all active columns diverged
    diverged: list[tuple[int, int]]   # (neuron, epoch) of each column reverted by the monitor
    converged: np.ndarray             # bool per neuron: reached grad_tol


def _block_size(P: int, N: int) -> int:
    # epochs per block such that all 4B + 3 (P, N) buffers of _descend_blocks fit BLOCK_BYTES
    return min(MAX_BLOCK, max(1, (BLOCK_BYTES // (8 * P * N) - 3) // 4))


def _certified(K: np.ndarray, cfg: TrainConfig) -> bool:
    """Whether every epoch of descent on K lowers every column's loss, in exact arithmetic.

    The loss's Hessian K D K + lam K, with D <= 1/4, is bounded by L = r^2/4 + lam r: for
    a symmetric K the largest absolute row sum r bounds |lambda(K)| (Gershgorin). A fixed
    step with lr L < 2 then descends (the descent lemma, Nesterov 2004, Lemma 1.2.3); this
    asks lr L < CERTIFIED_STEP. A non-finite or asymmetric K is not certified.
    """
    r = float(np.abs(K).sum(axis=1).max(initial=0.0))  # a float's r * r overflows to inf
    return (math.isfinite(r) and np.array_equal(K, K.T)
            and cfg.learning_rate * (r * r / 4 + cfg.lam * r) < CERTIFIED_STEP)


def _converged(G: np.ndarray, tol: float) -> np.ndarray:
    """The grad_tol test of every column in every slot of a block's (b, P, n) gradients,
    which it overwrites with their squares."""
    return np.sqrt(np.sum(np.multiply(G, G, out=G), axis=1)) < tol


def _descend_blocks(K, T, cfg: TrainConfig, start: int, A, prev_A, prev_loss, idx):
    """Step the columns idx from epoch `start` in blocks until one of them trips a check.

    An epoch only steps: H = K @ A, E = exp(-|H|), Grad and A - lr*Grad go to one
    slot per epoch. Blocks hold _block_size epochs, the last one cut at max_epochs.
    Once per block the grad_tol test runs over the stacked slots, and so does the
    descent monitor unless prev_loss is None (a certified fit, which cannot fail it);
    a column fails the monitor where its loss is non-finite or exceeds the previous
    epoch's by more than DESCENT_SLACK. A, prev_A and prev_loss hold each column's
    A_start, A_{start-1} and loss at start - 1 (A None: all zero). Returns (e, A_e,
    A_{e-1}, loss_e, bad) of the columns idx at the first epoch e that trips a check,
    bad marking the columns that failed the monitor, or (e, A_e, A_{e-1}, None, None)
    at e = max_epochs; loss_e and bad are also None where the monitor does not run.
    """
    P, n = K.shape[0], idx.size
    B = _block_size(P, n)
    # slot s + 1 holds the A of the block's epoch s, slot 0 the epoch before the block;
    # Ab[s].T is a (P, n) F-ordered view, the layout of a gather A[:, idx]
    Ab = (np.zeros if A is None else np.empty)((B + 2, n, P))
    if A is not None:  # gathered straight into the slots, with no copy of A[:, idx]
        np.take(prev_A, idx, axis=1, out=Ab[0].T, mode="clip")
        np.take(A, idx, axis=1, out=Ab[1].T, mode="clip")
    Ta = T if n == T.shape[1] else T[:, idx]
    Hb, Eb, Gb = (np.empty((B, P, n)) for _ in range(3))
    S = np.empty((P, n))
    L = None if prev_loss is None else np.empty((B + 1, n))
    if L is not None:  # L[s + 1]: loss at epoch s; L[0]: the epoch before
        L[0] = prev_loss[idx]
    while start < cfg.max_epochs:
        b = min(B, cfg.max_epochs - start)
        for s in range(b):
            Ae, H, E, G = Ab[s + 1].T, Hb[s], Eb[s], Gb[s]
            np.matmul(K, Ae, out=H)
            np.exp(np.negative(np.abs(H, out=E), out=E), out=E)
            np.subtract(_logistic(H, E, out=S, den=G), Ta, out=S)
            np.matmul(K, S, out=G)
            G += np.multiply(cfg.lam, H, out=S)
            np.subtract(Ae, np.multiply(cfg.learning_rate, G, out=S), out=Ab[s + 2].T)
        # the checks overwrite the Grad, E and H slots; only the A slots are kept
        trips = _converged(Gb[:b], cfg.grad_tol)
        if L is not None:
            Hs, Es, ls = Hb[:b], Eb[:b], L[1:b + 1]
            np.sum(_bce_terms(Hs, Ta, Es, out=Gb[:b]), axis=1, out=ls)
            As = Ab[1:b + 1].transpose(0, 2, 1)
            ls += 0.5 * cfg.lam * np.sum(np.multiply(As, Hs, out=Hs), axis=1)
            bad = ~np.isfinite(ls) | (ls > L[:b] + DESCENT_SLACK)
            trips |= bad
        tripped = np.flatnonzero(trips.any(axis=1))
        if tripped.size:  # the later slots are dropped
            k = int(tripped[0])
            if L is None:
                return start + k, Ab[k + 1].T, Ab[k].T, None, None
            return start + k, Ab[k + 1].T, Ab[k].T, L[k + 1], bad[k]
        Ab[0], Ab[1] = Ab[b], Ab[b + 1]  # slot by slot: an overlapping copy would buffer
        if L is not None:
            L[0] = L[b]
        start += b
    return start, Ab[1].T, Ab[0].T, None, None


def fit_dual_weights(K: np.ndarray, T: np.ndarray, cfg: TrainConfig) -> FitResult:
    """Gradient descent on every neuron column at once.

    Columns are independent (the update of column i reads only column i), so this
    matches per-neuron training while batching the matmuls. Active columns descend in
    blocks (_descend_blocks) up to the first epoch at which one trips a check, which is
    finished here: the columns that failed the descent monitor are reverted to their
    last accepted iterate and recorded in `diverged`, only the survivors' gradient is
    recomputed, those below grad_tol are frozen and the rest step; then blocks resume.
    The monitor runs only where the step is not certified (_certified, once per fit):
    a certified fit descends every epoch, so only grad_tol can stop its columns.
    A is F-ordered like a gather A[:, idx]: BLAS rounds K @ A differently per layout.
    """
    P, N = T.shape
    A = prev_A = None
    idx = np.arange(N)
    prev_loss = None if _certified(K, cfg) else np.full(N, np.inf)
    converged = np.zeros(N, dtype=bool)
    diverged: list[tuple[int, int]] = []
    epoch = 0
    # diverging columns overflow; the monitor reports them, so warnings are silenced
    with np.errstate(all="ignore"):
        while idx.size and epoch < cfg.max_epochs:
            epoch, Ae, Ap, ls, bad = _descend_blocks(K, T, cfg, epoch, A, prev_A, prev_loss, idx)
            if A is None:
                A, prev_A = np.empty((P, N), order="F"), np.empty((P, N), order="F")
            A[:, idx], prev_A[:, idx] = Ae, Ap
            del Ae, Ap  # frees the slots before the tripping epoch allocates
            if epoch == cfg.max_epochs:
                break
            # the tripping epoch; with every column active A needs no gather. H spans the
            # columns that entered it: (K @ A)[:, sub] and K @ A[:, sub] differ in bits
            Aa, Ta = (A, T) if idx.size == N else (A[:, idx], T[:, idx])
            H = K @ Aa
            E = np.exp(-np.abs(H))
            if bad is not None:  # the monitor ran
                if bad.any():
                    diverged += [(int(j), epoch) for j in idx[bad]]
                    A[:, idx[bad]] = prev_A[:, idx[bad]]
                    idx = idx[~bad]
                    if idx.size == 0:  # an epoch at which every active column diverged
                        break  # is not counted
                    H, E, Ta, ls = H[:, ~bad], E[:, ~bad], Ta[:, ~bad], ls[~bad]
                prev_loss[idx] = ls
            Grad = K @ (_logistic(H, E) - Ta) + cfg.lam * H
            done = np.sqrt(np.sum(Grad * Grad, axis=0)) < cfg.grad_tol
            converged[idx[done]] = True
            idx, Grad = idx[~done], Grad[:, ~done]
            prev_A[:, idx] = A[:, idx]
            A[:, idx] -= cfg.learning_rate * Grad
            del Aa, Ta, H, E, Grad, ls, bad  # freed before the next call allocates its slots
            epoch += 1
    return FitResult(np.ascontiguousarray(A), epoch, diverged, converged)


def train(patterns: PatternSet, gamma: float, tcfg: TrainConfig) -> DualWeights:
    """Train every neuron at width gamma; raise TrainingDivergenceError on the first bad one."""
    K = gram(patterns, KernelConfig(gamma=gamma)).values
    res = fit_dual_weights(K, all_targets(patterns), tcfg)
    if res.diverged:
        neuron, epoch = res.diverged[0]
        raise TrainingDivergenceError(neuron, epoch)
    return DualWeights(alpha=res.alpha, gamma=gamma, lam=tcfg.lam, trained_epochs=res.epochs)


def save_weights(w: DualWeights, path) -> None:
    """Header `P N gamma lambda epochs`, then P lines of N floats (kernel_core.write_rows)."""
    write_rows(path, [[*w.alpha.shape, w.gamma, w.lam, w.trained_epochs], *w.alpha.tolist()])


def load_weights(path) -> DualWeights:
    return read_artifact(
        path, "P N gamma lambda epochs", (int, int, float, float, int), float, DualWeights
    )
