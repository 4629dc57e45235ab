"""Per-neuron kernel logistic regression over stored patterns.

Each neuron i is an independent binary classifier: targets are
t_mu = (xi_mu_i + 1)/2 and the field on pattern mu is (K alpha_i)_mu.
The objective is binary cross-entropy plus the RKHS ridge penalty
(lambda/2) alpha' K alpha, minimized by full-batch fixed-step gradient
descent from alpha = 0. The optimizer is deliberately plain first-order
descent so curvature effects are visible rather than hidden by a
second-order solver. fit_many fits a sequence of such problems and steps
consecutive certified ones as one stack, each with the bits it gets alone.
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
# Byte budget for the (R, N) buffers of a block of descent epochs over a stack of R rows,
# and the block-size cap; a stack grows only while its blocks stay at the cap.
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


def _bce_terms(h: np.ndarray, t: np.ndarray, e: np.ndarray) -> np.ndarray:
    # softplus(h) - t*h == -[t log p + (1-t) log(1-p)], with e = exp(-|h|), which it
    # overwrites in place of temporaries
    out = np.maximum(h, 0.0)
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


def _block_size(R: int, N: int) -> int:
    # epochs per block such that all 2B + 4 (R, N) buffers of _descend_blocks fit BLOCK_BYTES
    return min(MAX_BLOCK, max(1, (BLOCK_BYTES // (8 * R * N) - 4) // 2))


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


def _descend_blocks(Ks, Ts, cfg: TrainConfig, start: int, As, idx):
    """Step the columns idx of a stack of certified fits from epoch `start`, As[i] holding
    fit i's A_start; leave each A at the first epoch e at which a column of any fit
    reaches grad_tol and return (e, done), done[i] the columns of fit i that reach it
    there; else leave each A at A_max_epochs and return (max_epochs, None).

    The fits' rows are stacked, R in all. An epoch takes H = K_i @ A_i and K_i @ S_i per
    fit, into its rows, and runs the rest once over the stack: E = exp(-|H|), Grad to one
    slot and A - lr*Grad to the next. Blocks hold _block_size(R, n) epochs, the last cut
    at max_epochs; the grad_tol test runs once per block and fit, over the fit's rows of
    the Grad slots. At e the columns `done` stop at A_e, the rest keep A_{e+1}, and the
    block's later slots are dropped.
    """
    rows, R = [], 0
    for K in Ks:
        rows.append(slice(R, R + K.shape[0]))
        R += K.shape[0]
    n = idx.size
    B = _block_size(R, n)
    # slot s holds the A of the block's epoch s; Ab[s].T is an (R, n) F-ordered view, the
    # layout of a gather A[:, idx], and a fit's rows of it differ from that only in their
    # leading dimension, R, which BLAS packs away: K_i @ A_i keeps the bits of a lone fit
    Ab = np.empty((B + 1, n, R))
    At = [a.T for a in Ab]
    for A, r in zip(As, rows):
        np.take(A, idx, axis=1, out=At[0][r], mode="clip")
    T = Ts[0] if len(Ts) == 1 else np.concatenate(Ts)
    Ta = T if n == T.shape[1] else T[:, idx]
    Gb = np.empty((B, R, n))
    H, E, S = (np.empty((R, n)) for _ in range(3))
    # per slot, each fit's operands of its two matmuls: (K, its rows of A, of H) and
    # (K, its rows of S, of Grad); views made once, not every epoch
    fields = [[(K, a[r], H[r]) for K, r in zip(Ks, rows)] for a in At]
    grads = [[(K, S[r], g[r]) for K, r in zip(Ks, rows)] for g in Gb]
    while start < cfg.max_epochs:
        b = min(B, cfg.max_epochs - start)
        for s in range(b):
            G = Gb[s]
            for K, a, h in fields[s]:
                np.matmul(K, a, out=h)
            np.exp(np.negative(np.abs(H, out=E), out=E), out=E)
            np.subtract(_logistic(H, E, out=S, den=G), Ta, out=S)
            for K, x, g in grads[s]:
                np.matmul(K, x, out=g)
            G += np.multiply(cfg.lam, H, out=S)
            np.subtract(At[s], np.multiply(cfg.learning_rate, G, out=S), out=At[s + 1])
        done = [_converged(Gb[:b, r], cfg.grad_tol) for r in rows]
        tripped = [int(d.any(axis=1).argmax()) for d in done if d.any()]
        if tripped:
            k = min(tripped)
            for A, r, d in zip(As, rows, done):
                np.copyto(At[k + 1][r], At[k][r], where=d[k])
                A[:, idx] = At[k + 1][r]
            return start + k, [d[k] for d in done]
        Ab[0] = Ab[b]
        start += b
    for A, r in zip(As, rows):
        A[:, idx] = At[0][r]
    return start, None


def _descend(Ks, Ts, cfg: TrainConfig) -> list:
    """The FitResults of certified fits of one N, stepped as one stack (_descend_blocks).

    Every epoch lowers every loss, so only grad_tol stops a column. At a trip the fits
    whose columns reached it leave the stack: each goes on alone over its columns still
    active, and the others resume stacked. A is F-ordered like a gather A[:, idx]: BLAS
    rounds K @ A differently per layout.
    """
    N = Ts[0].shape[1]
    As = [np.zeros(T.shape, order="F") for T in Ts]
    converged = [np.zeros(N, dtype=bool) for _ in Ts]
    epochs = [0] * len(Ts)
    runs = [(list(range(len(Ts))), 0, np.arange(N))] if N else []  # (fits, epoch, columns)
    while runs:
        fits, epoch, idx = runs.pop()
        while fits and epoch < cfg.max_epochs:
            epoch, done = _descend_blocks([Ks[i] for i in fits], [Ts[i] for i in fits], cfg,
                                          epoch, [As[i] for i in fits], idx)
            for i in fits:
                epochs[i] = epoch if done is None else epoch + 1
            if done is None:
                break
            stacked = []
            for i, d in zip(fits, done):
                if not d.any():
                    stacked.append(i)
                    continue
                converged[i][idx[d]] = True
                if not d.all():
                    runs.append(([i], epoch + 1, idx[~d]))
            fits, epoch = stacked, epoch + 1
    return [FitResult(np.ascontiguousarray(A), e, [], c)
            for A, e, c in zip(As, epochs, converged)]


def _monitored(K: np.ndarray, T: np.ndarray, cfg: TrainConfig) -> FitResult:
    """A fit that runs the descent monitor every epoch.

    A column whose loss is non-finite or rose by more than DESCENT_SLACK is reverted to
    its last accepted iterate and recorded in `diverged`; then the survivors alone take
    Grad ((K @ X)[:, sub] and K @ X[:, sub] differ in bits), those below grad_tol are
    frozen and the rest step.
    """
    P, N = T.shape
    A = np.zeros((P, N), order="F")
    idx = np.arange(N)
    converged = np.zeros(N, dtype=bool)
    diverged: list[tuple[int, int]] = []
    epoch = 0
    prev_A = np.zeros((P, N), order="F")
    prev_loss = np.full(N, np.inf)
    # diverging columns overflow; the monitor reports them, so warnings are silenced
    with np.errstate(all="ignore"):
        while idx.size and epoch < cfg.max_epochs:
            Aa, Ta = (A, T) if idx.size == N else (A[:, idx], T[:, idx])  # all: no gather
            H = K @ Aa
            E = np.exp(-np.abs(H))
            S = _logistic(H, E)  # before _bce_terms overwrites E
            Ls = _bce_terms(H, Ta, E)
            ls = np.sum(Ls, axis=0) + 0.5 * cfg.lam * np.sum(np.multiply(Aa, H, out=Ls), axis=0)
            bad = ~np.isfinite(ls) | (ls > prev_loss[idx] + DESCENT_SLACK)
            del Aa, E, Ls
            if bad.any():
                diverged += [(int(j), epoch) for j in idx[bad]]
                A[:, idx[bad]] = prev_A[:, idx[bad]]
                idx, ls = idx[~bad], ls[~bad]
                if idx.size == 0:  # an epoch at which every active column diverged
                    break  # is not counted
                H, S, Ta = H[:, ~bad], S[:, ~bad], Ta[:, ~bad]
            prev_loss[idx] = ls
            S -= Ta
            Grad = K @ S
            Grad += np.multiply(cfg.lam, H, out=H)
            del H, S, Ta  # freed before the step allocates
            done = np.sqrt(np.sum(Grad * Grad, axis=0)) < cfg.grad_tol
            converged[idx[done]] = True
            idx, Grad = idx[~done], Grad[:, ~done]
            prev_A[:, idx] = A[:, idx]
            A[:, idx] -= cfg.learning_rate * Grad
            del Grad
            epoch += 1
    return FitResult(np.ascontiguousarray(A), epoch, diverged, converged)


def fit_many(problems, cfg: TrainConfig):
    """Yield the FitResult of each (K, T) of `problems`, in order.

    Each is fit_dual_weights of its problem, bit for bit. A certified fit (_certified,
    once per problem) descends every epoch, and consecutive certified problems of one N
    step as one stack (_descend) while _block_size(R, N), R their summed P, stays
    MAX_BLOCK. Any other problem runs the descent monitor (_monitored) alone. `problems`
    is read lazily: at most one problem past a stack is read before it descends, and
    none past a stack that no problem could join.
    """
    stack, R = [], 0
    for K, T in problems:
        certified = _certified(K, cfg)
        if stack and not (certified and T.shape[1] == N
                          and _block_size(R + len(T), N) == MAX_BLOCK):
            yield from _descend(*zip(*stack), cfg)
            stack, R = [], 0
        if certified:
            stack.append((K, T))
            R, N = R + len(T), T.shape[1]
        else:
            yield _monitored(K, T, cfg)
        del K, T  # not kept while the next problem is read
        if stack and _block_size(R + 1, N) < MAX_BLOCK:
            yield from _descend(*zip(*stack), cfg)
            stack, R = [], 0
    if stack:
        yield from _descend(*zip(*stack), cfg)


def fit_dual_weights(K: np.ndarray, T: np.ndarray, cfg: TrainConfig) -> FitResult:
    """Gradient descent on every neuron column of one problem at once: fit_many of it.

    Columns are independent (the update of column i reads only column i), so this
    matches per-neuron training while batching the matmuls.
    """
    return next(fit_many([(K, T)], cfg))


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
