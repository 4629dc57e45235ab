"""Fisher-information geometry of a trained neuron.

The Fisher matrix of one neuron's Bernoulli model over the stored
patterns is G = K D K with D = diag(p_mu (1 - p_mu)).

Probabilities entering D are never clamped: vanishing information under
sigmoid saturation is real behavior of the model and must stay visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ArgumentError, NumericError, check_range
from .kernel_core import write_rows
from .klr import loss_gradient, sigmoid

DEFAULT_REL_CUTOFF = 1e-10


@dataclass
class FisherSpectrum:
    eigenvalues: np.ndarray   # descending, clamped at 0
    eigenvectors: np.ndarray  # orthonormal columns, same order; neuron_spectra drops them
    lambda_max: float
    degenerate: bool          # lambda_max is 0, every mode clamped: none to invert
    d_eff: float              # 0.0 when degenerate
    ratios: np.ndarray        # eigenvalues / lambda_max; zeros when degenerate
    ratio_2_1: float
    ratio_tail: float


@dataclass
class GradientReport:
    euclid_norm_sq: float
    riemann_norm_sq: float
    rank1_residual: float
    retained_modes: int
    lambda_max: float
    d_eff: float
    ratio_2_1: float
    ratio_tail: float
    degenerate: bool


def fisher_matrix(alpha_col, K: np.ndarray) -> np.ndarray:
    """The (P, P) matrix G = K diag(p(1-p)) K, p = sigma(K alpha), symmetrized as (G + G')/2."""
    alpha_col, K = np.asarray(alpha_col, dtype=float), np.asarray(K, dtype=float)
    if alpha_col.ndim != 1 or K.shape != 2 * alpha_col.shape:  # 2 * (P,) is (P, P)
        raise ArgumentError(f"alpha of shape {alpha_col.shape} does not fit Gram size {K.shape}")
    p = sigmoid(K @ alpha_col)
    d = p * (1.0 - p)
    G = (K * d) @ K
    return 0.5 * (G + G.T)


def effective_dimension(eigenvalues) -> float:
    """Stable rank (sum lambda)^2 / (sum lambda^2) of a nonnegative spectrum."""
    lam = np.asarray(eigenvalues, dtype=float)
    s2 = float(np.sum(lam * lam))
    if s2 < np.finfo(float).tiny:
        # lambda^2 underflows: an exact power-of-two scaling brings lambda_1 into [0.5, 1)
        lam = np.ldexp(lam, -np.frexp(np.max(np.abs(lam), initial=0.0))[1])
        s2 = float(np.sum(lam * lam))
    if s2 == 0.0:
        raise NumericError("all eigenvalues are zero")
    return float(np.sum(lam)) ** 2 / s2


def spectrum(G: np.ndarray) -> FisherSpectrum:
    """Full symmetric eigendecomposition of a Fisher matrix, sorted descending, clamped at 0."""
    if not np.isfinite(G).all():
        raise NumericError("Fisher matrix contains non-finite entries")
    w, V = np.linalg.eigh(G)
    w = w[::-1].copy()
    V = V[:, ::-1].copy()
    w = np.clip(w, 0.0, None)
    lam1 = float(w[0])
    degenerate = not lam1 > 0.0
    ratios = np.zeros_like(w) if degenerate else w / lam1
    return FisherSpectrum(
        eigenvalues=w,
        eigenvectors=V,
        lambda_max=lam1,
        degenerate=degenerate,
        d_eff=0.0 if degenerate else effective_dimension(w),
        ratios=ratios,
        ratio_2_1=float(ratios[1]) if w.size > 1 else 0.0,
        ratio_tail=float(ratios[-1]),
    )


def natural_gradient(grad, spec: FisherSpectrum, rel_cutoff: float = DEFAULT_REL_CUTOFF):
    """Spectral pseudo-inverse of the metric applied to the gradient.

    Only modes with lambda_k > rel_cutoff * lambda_1 are inverted; returns
    (natural gradient, the gradient's coefficients on the retained modes,
    their eigenvalues).
    """
    check_range("rel_cutoff", rel_cutoff, 0, 1, lo_open=True, hi_open=True)
    if spec.degenerate:
        raise NumericError("cannot invert an all-zero spectrum")
    keep = spec.eigenvalues > rel_cutoff * spec.lambda_max
    V = spec.eigenvectors[:, keep]
    lam = spec.eigenvalues[keep]
    coeffs = V.T @ np.asarray(grad, dtype=float)
    return V @ (coeffs / lam), coeffs, lam


def neuron_spectra(alpha, K: np.ndarray, each) -> list:
    """[each(i, spectrum of neuron i) for each neuron (column) i of alpha], in neuron order.

    One spectrum(fisher_matrix(...)) is computed per group of neurons whose alpha
    columns hold the same bytes, in order of first appearance, and passed to
    each member. fisher_matrix reads only the column and K, and spectrum only G,
    so the shared spectrum has the bits each neuron's own would have. `each`
    sees the eigenvectors; they are dropped once the group is done (at P = 256
    they take 0.5 MB), so one set is alive at a time and no spectrum that `each`
    returns keeps them.
    """
    alpha = np.asarray(alpha, dtype=float)
    groups: dict[bytes, list[int]] = {}
    for i in range(alpha.shape[1]):
        groups.setdefault(alpha[:, i].tobytes(), []).append(i)
    results = [None] * alpha.shape[1]
    for members in groups.values():
        spec = spectrum(fisher_matrix(alpha[:, members[0]], K))
        for i in members:
            results[i] = each(i, spec)
        spec.eigenvectors = None
    return results


def gradient_report(
    alpha_col,
    K: np.ndarray,
    targets,
    lam: float,
    spec: FisherSpectrum,
    rel_cutoff: float = DEFAULT_REL_CUTOFF,
) -> GradientReport:
    """Euclidean and Riemannian gradient norms plus the rank-1 residual.

    `spec` is spectrum(fisher_matrix(alpha_col, K)), computed by the caller so
    that neurons with the same alpha column share it (see neuron_spectra).
    rank1_residual measures how much of the Euclidean gradient escapes the
    top Fisher mode: ||grad - lambda_1 (v1' natgrad) v1|| / max(||grad||, 1e-30).
    """
    grad = loss_gradient(alpha_col, K, targets, lam)
    if spec.eigenvalues.shape != grad.shape:
        raise ArgumentError(
            f"spectrum of {spec.eigenvalues.size} modes does not match Gram size {grad.size}"
        )
    euclid = float(grad @ grad)
    if spec.degenerate:  # no mode to invert
        riemann, residual, retained = 0.0, 0.0 if euclid == 0.0 else 1.0, 0
    else:
        nat, coeffs, lam_kept = natural_gradient(grad, spec, rel_cutoff)
        riemann = float(np.sum(coeffs * coeffs / lam_kept))
        v1 = spec.eigenvectors[:, 0]
        rank1_term = spec.lambda_max * float(v1 @ nat) * v1
        gnorm = float(np.linalg.norm(grad))
        residual = float(np.linalg.norm(grad - rank1_term)) / max(gnorm, 1e-30)
        retained = lam_kept.size
    return GradientReport(
        euclid_norm_sq=euclid,
        riemann_norm_sq=riemann,
        rank1_residual=residual,
        retained_modes=retained,
        lambda_max=spec.lambda_max,
        d_eff=spec.d_eff,
        ratio_2_1=spec.ratio_2_1,
        ratio_tail=spec.ratio_tail,
        degenerate=spec.degenerate,
    )


def write_spectrum_csv(specs: list[FisherSpectrum], path) -> None:
    """Columns: neuron,k,lambda_k,lambda_k_over_lambda_1 (one row per mode)."""
    rows = ((i, k, lk, r) for i, spec in enumerate(specs)
            for k, (lk, r) in enumerate(zip(spec.eigenvalues.tolist(), spec.ratios.tolist()), 1))
    write_rows(path, chain([("neuron", "k", "lambda_k", "lambda_k_over_lambda_1")], rows), ",")
