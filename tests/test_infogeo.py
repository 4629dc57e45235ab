import numpy as np
import pytest

from hopgeo.errors import ArgumentError, NumericError
from hopgeo.infogeo import (
    effective_dimension,
    fisher_matrix,
    gradient_report,
    natural_gradient,
    neuron_spectra,
    spectrum,
    write_spectrum_csv,
)
from hopgeo.kernel_core import KernelConfig, generate_patterns, gram
from hopgeo.klr import loss_gradient
from oracles import fim_empirical_oracle


def random_gram(rng, P):
    B = rng.normal(size=(P, P))
    return B @ B.T / P + 0.05 * np.eye(P)


def test_fisher_at_zero_alpha_is_quarter_K_squared():
    K = gram(generate_patterns(5, 12, 8), KernelConfig(gamma=0.05)).values
    G = fisher_matrix(np.zeros(5), K)
    assert np.allclose(G, 0.25 * K @ K, atol=1e-14)


def test_fisher_information_collapse_under_saturation():
    K = gram(generate_patterns(4, 8, 9), KernelConfig(gamma=2.0)).values
    # fields |h| > 60 on every pattern: K ~ I so alpha of +-100 works
    alpha = np.array([100.0, -100.0, 100.0, -100.0])
    assert np.abs(K @ alpha).min() > 60
    G = fisher_matrix(alpha, K)
    assert np.linalg.norm(G) < 1e-20 * np.linalg.norm(K) ** 2


def test_fisher_matches_enumeration_oracle():
    rng = np.random.default_rng(14)
    K = random_gram(rng, 5)
    alpha = rng.normal(size=5)
    G = fisher_matrix(alpha, K)
    Go = fim_empirical_oracle(alpha, K)
    assert np.abs(G - Go).max() < 1e-12


def test_oracle_single_bernoulli():
    K = np.array([[1.0]])
    G = fim_empirical_oracle(np.array([0.0]), K)
    assert G[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_oracle_saturated_pattern_contributes_nothing():
    K = np.eye(2)
    alpha = np.array([50.0, 0.0])
    G = fim_empirical_oracle(alpha, K)
    assert abs(G[0, 0]) < 1e-20
    assert G[1, 1] == pytest.approx(0.25, abs=1e-15)


def test_spectrum_identity():
    spec = spectrum(np.eye(4))
    assert np.allclose(spec.eigenvalues, 1.0)
    assert spec.d_eff == pytest.approx(4.0, abs=1e-12)
    assert spec.lambda_max == pytest.approx(1.0)


def test_spectrum_rank_one():
    v = np.array([1.0, 2.0, -1.0, 0.5])
    spec = spectrum(np.outer(v, v))
    assert spec.d_eff == pytest.approx(1.0, abs=1e-10)
    assert spec.ratio_2_1 <= 1e-10


def test_spectrum_of_quarter_K_squared_matches_gram_spectrum():
    K = gram(generate_patterns(6, 16, 4), KernelConfig(gamma=0.02)).values
    spec = spectrum(fisher_matrix(np.zeros(6), K))
    kw = np.sort(np.linalg.eigvalsh(K))[::-1]
    assert np.allclose(spec.eigenvalues, 0.25 * kw**2, rtol=1e-10, atol=1e-12)


def test_spectrum_reconstruction():
    rng = np.random.default_rng(3)
    K = random_gram(rng, 7)
    G = fisher_matrix(rng.normal(size=7), K)
    spec = spectrum(G)
    rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
    assert np.linalg.norm(rebuilt - G) <= 1e-8 * np.linalg.norm(G)


def test_spectrum_rejects_nonfinite():
    with pytest.raises(NumericError):
        spectrum(np.array([[np.nan]]))


def test_effective_dimension_hand_values():
    assert effective_dimension([1, 1, 1, 1]) == pytest.approx(4.0)
    assert effective_dimension([1, 0, 0, 0]) == pytest.approx(1.0)
    assert effective_dimension([1, 0.01, 0.01, 0.01]) == pytest.approx(
        1.03**2 / 1.0003, abs=1e-12
    )


def test_effective_dimension_degenerate():
    with pytest.raises(NumericError, match="all eigenvalues are zero"):
        effective_dimension([0.0, 0.0])


@pytest.mark.parametrize("eigenvalues, d_eff", [([1e-200], 1.0), ([1e-170, 1e-170], 2.0)])
def test_effective_dimension_of_a_tiny_spectrum(eigenvalues, d_eff):
    # unscaled, every lambda^2 here underflows to 0
    assert effective_dimension(eigenvalues) == d_eff


def test_effective_dimension_keeps_the_bits_of_the_unscaled_ratio():
    rng = np.random.default_rng(16)
    for _ in range(2000):
        n = int(rng.integers(1, 65))
        lam = 10.0 ** rng.uniform(-30, 30) * 10.0 ** rng.uniform(-12, 0, size=n)
        lam[1:][rng.uniform(size=n - 1) < 0.2] = 0.0  # modes clamped at 0
        assert effective_dimension(lam) == float(np.sum(lam)) ** 2 / float(np.sum(lam * lam))


def test_neuron_spectra_groups_by_exact_bytes():
    rng = np.random.default_rng(15)
    K = random_gram(rng, 6)
    a, b = rng.normal(size=6), rng.normal(size=6)
    # columns: a, a, a one ulp up in one entry, b, a, zeros, minus zeros
    alpha = np.column_stack([a, a, a, b, a, np.zeros(6), -np.zeros(6)])
    alpha[2, 2] = np.nextafter(a[2], np.inf)
    calls = []

    def each(i, spec):
        own = spectrum(fisher_matrix(alpha[:, i], K))
        assert spec.eigenvalues.tobytes() == own.eigenvalues.tobytes()
        assert spec.eigenvectors.tobytes() == own.eigenvectors.tobytes()
        calls.append(i)
        return spec

    specs = neuron_spectra(alpha, K, each)
    assert calls == [0, 1, 4, 2, 3, 5, 6]  # group by group, in order of first appearance
    groups = {}
    for i, spec in enumerate(specs):
        groups.setdefault(id(spec), []).append(i)
    assert list(groups.values()) == [[0, 1, 4], [2], [3], [5], [6]]


def test_neuron_spectra_shows_each_the_eigenvectors_and_returns_none_of_them():
    rng = np.random.default_rng(19)
    K = random_gram(rng, 5)
    a = rng.normal(size=5)
    alpha = np.column_stack([a, rng.normal(size=5), a])
    seen = []

    def each(i, spec):
        seen.append(spec.eigenvectors.shape)
        return i, spec

    got = neuron_spectra(alpha, K, each)
    assert seen == [(5, 5)] * 3
    assert [i for i, _ in got] == [0, 1, 2]
    assert all(spec.eigenvectors is None for _, spec in got)
    assert got[0][1] is got[2][1]


@pytest.mark.parametrize("diagonal", [
    [4.0, 1.0, 0.25, 0.0], [3.0, 3.0], [1e-300, 1e-310, 0.0], [0.7], [0.0, 0.0, 0.0], [0.0],
], ids=["zero_mode", "flat", "subnormal", "P1", "degenerate", "P1_degenerate"])
def test_ratios_are_eigenvalues_over_lambda_max_and_hold_both_ratios(diagonal):
    spec = spectrum(np.diag(diagonal))
    if spec.lambda_max > 0:
        assert spec.ratios.tobytes() == (spec.eigenvalues / spec.lambda_max).tobytes()
    else:
        assert spec.ratios.tobytes() == np.zeros(len(diagonal)).tobytes()
    assert spec.ratio_2_1 == (spec.ratios[1] if len(diagonal) > 1 else 0.0)
    assert spec.ratio_tail == spec.ratios[-1]
    # P = 1: lambda_1 / lambda_1, or 0 when degenerate
    if len(diagonal) == 1:
        assert spec.ratio_tail == (1.0 if spec.lambda_max > 0 else 0.0)


def test_gradient_report_rejects_spectrum_of_other_size():
    K = np.eye(3)
    spec = spectrum(np.eye(2))
    with pytest.raises(ArgumentError, match="spectrum of 2 modes does not match Gram size 3"):
        gradient_report(np.zeros(3), K, np.ones(3), 0.0, spec)


def test_natural_gradient_identity_metric():
    spec = spectrum(np.eye(3))
    g = np.array([1.0, -2.0, 0.5])
    nat, _, lam = natural_gradient(g, spec)
    assert np.allclose(nat, g)
    assert lam.size == 3


def test_natural_gradient_diagonal():
    spec = spectrum(np.diag([4.0, 1.0]))
    nat, _, lam = natural_gradient(np.array([8.0, 3.0]), spec, rel_cutoff=1e-12)
    assert np.allclose(sorted(nat), [2.0, 3.0])
    assert lam.size == 2


def test_natural_gradient_orthogonal_to_rank_one_metric():
    v = np.array([1.0, 0.0])
    spec = spectrum(3.0 * np.outer(v, v))
    nat, _, lam = natural_gradient(np.array([0.0, 5.0]), spec)
    assert np.allclose(nat, 0.0)
    assert lam.size == 1


def test_spectrum_alone_decides_degeneracy():
    zero = spectrum(np.zeros((3, 3)))
    assert zero.degenerate is True
    assert (zero.lambda_max, zero.d_eff) == (0.0, 0.0)
    assert spectrum(np.diag([2.0, 1.0, 0.0])).degenerate is False
    with pytest.raises(NumericError, match="cannot invert an all-zero spectrum"):
        natural_gradient(np.ones(3), zero)


def test_natural_gradient_validation():
    spec = spectrum(np.eye(2))
    with pytest.raises(ArgumentError):
        natural_gradient(np.ones(2), spec, rel_cutoff=2.0)
    zero = spectrum(np.zeros((2, 2)))
    with pytest.raises(NumericError, match="cannot invert an all-zero spectrum"):
        natural_gradient(np.ones(2), zero)


def test_gradient_report_identity_metric_norms_agree():
    # K = I, alpha = 0: G = 0.25 I, so riemann = 4 * euclid
    K = np.eye(3)
    t = np.array([1.0, 0.0, 1.0])
    rep = gradient_report(np.zeros(3), K, t, 0.0, spectrum(fisher_matrix(np.zeros(3), K)))
    assert rep.riemann_norm_sq == pytest.approx(4.0 * rep.euclid_norm_sq, rel=1e-12)
    assert rep.retained_modes == 3


def test_gradient_report_matches_dense_pseudoinverse_oracle():
    rng = np.random.default_rng(5)
    K = random_gram(rng, 6)
    alpha = rng.normal(size=6)
    t = rng.integers(0, 2, size=6).astype(float)
    lam = 0.01
    G = fisher_matrix(alpha, K)
    rep = gradient_report(alpha, K, t, lam, spectrum(G), rel_cutoff=1e-12)
    grad = loss_gradient(alpha, K, t, lam)
    expected = grad @ np.linalg.pinv(G) @ grad
    assert rep.riemann_norm_sq == pytest.approx(expected, rel=1e-8)
    assert rep.euclid_norm_sq == pytest.approx(grad @ grad, rel=1e-12)


def test_gradient_report_zero_gradient_convention():
    # targets exactly reproduced at p=0.5 is impossible; use saturated exact case
    K = np.eye(1)
    # gradient = p - t + 0: pick t = sigmoid(alpha) via alpha = 0, t = 0.5 disallowed;
    # instead verify the guard with an explicitly zero gradient path: lam=0, t=p
    alpha = np.array([0.0])
    rep = gradient_report(alpha, K, np.array([0.5]), 0.0, spectrum(fisher_matrix(alpha, K)))
    assert rep.euclid_norm_sq == pytest.approx(0.0, abs=1e-30)
    assert rep.rank1_residual == 0.0


def test_metric_identity_on_retained_subspace():
    # G natgrad reproduces the projection of grad onto retained modes
    rng = np.random.default_rng(8)
    for _ in range(25):
        P = int(rng.integers(2, 10))
        K = random_gram(rng, P)
        alpha = rng.normal(size=P)
        t = rng.integers(0, 2, size=P).astype(float)
        grad = loss_gradient(alpha, K, t, 0.0)
        spec = spectrum(fisher_matrix(alpha, K))
        nat, _, _ = natural_gradient(grad, spec, rel_cutoff=1e-10)
        keep = spec.eigenvalues > 1e-10 * spec.lambda_max
        V = spec.eigenvectors[:, keep]
        proj = V @ (V.T @ grad)
        back = fisher_matrix(alpha, K) @ nat
        back_proj = V @ (V.T @ back)
        assert np.linalg.norm(back_proj - proj) <= 1e-8 * max(np.linalg.norm(proj), 1e-30)


def test_scale_covariance():
    rng = np.random.default_rng(9)
    K = random_gram(rng, 5)
    alpha = rng.normal(size=5)
    t = rng.integers(0, 2, size=5).astype(float)
    grad = loss_gradient(alpha, K, t, 0.0)
    G = fisher_matrix(alpha, K)
    for c in (3.0, 0.25):
        spec = spectrum(G)
        scaled = spectrum(c * G)
        assert scaled.d_eff == pytest.approx(spec.d_eff, rel=1e-10)
        r1, _, _ = natural_gradient(grad, spec)
        ri1 = sum((spec.eigenvectors.T @ grad) ** 2 / spec.eigenvalues)
        ri2 = sum((scaled.eigenvectors.T @ grad) ** 2 / scaled.eigenvalues)
        assert ri2 == pytest.approx(ri1 / c, rel=1e-10)


def test_rank1_residual_equals_orthogonal_component_in_rank1_limit():
    rng = np.random.default_rng(10)
    v = rng.normal(size=5)
    v /= np.linalg.norm(v)
    G = 2.0 * np.outer(v, v) + 1e-9 * np.eye(5)
    spec = spectrum(G)
    assert spec.ratio_2_1 < 1e-6
    grad = rng.normal(size=5)
    nat, _, _ = natural_gradient(grad, spec, rel_cutoff=1e-7)
    rank1_term = spec.lambda_max * (spec.eigenvectors[:, 0] @ nat) * spec.eigenvectors[:, 0]
    residual = np.linalg.norm(grad - rank1_term) / np.linalg.norm(grad)
    ortho = np.linalg.norm(grad - (v @ grad) * v) / np.linalg.norm(grad)
    assert residual == pytest.approx(ortho, abs=1e-6)


def test_csv_exports(tmp_path):
    rng = np.random.default_rng(12)
    K = random_gram(rng, 4)
    specs = [spectrum(fisher_matrix(rng.normal(size=4), K)) for _ in range(3)]
    spath = tmp_path / "spectrum.csv"
    write_spectrum_csv(specs, spath)
    slines = spath.read_text().splitlines()
    assert slines[0] == "neuron,k,lambda_k,lambda_k_over_lambda_1"
    assert len(slines) == 1 + 3 * 4
