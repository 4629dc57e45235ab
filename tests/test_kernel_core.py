import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopgeo.errors import ArgumentError
from hopgeo.kernel_core import (
    KernelConfig,
    PatternSet,
    corrupt,
    format_value,
    generate_patterns,
    gram,
    load_patterns,
    save_patterns,
    write_rows,
)


def _kernel_eval(x, y, gamma):
    """exp(-gamma * ||x - y||^2) of two vectors, by the definition; the oracle for gram."""
    d2 = float(np.sum((np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) ** 2))
    return math.exp(-gamma * d2)


def _pair_kernel(x, y, gamma):
    """K[0, 1] of gram on the two-pattern set {x, y}."""
    ps = PatternSet(patterns=np.array([x, y]), seed=0)
    return gram(ps, KernelConfig(gamma=gamma)).values[0, 1]


def test_gram_hand_values():
    # two flipped bits out of two: ||x-y||^2 = 8
    assert _pair_kernel([1, 1], [-1, -1], 0.1) == pytest.approx(0.44932896411722156, rel=1e-12)
    # two flipped bits out of four: ||x-y||^2 = 8, gamma=0.05 -> exp(-0.4)
    assert _pair_kernel([1, 1, -1, -1], [1, -1, -1, 1], 0.05) == pytest.approx(
        0.6703200460356393, rel=1e-12
    )


def test_kernel_monotone_in_gamma():
    x = [1, 1, -1, 1]
    y = [-1, 1, -1, -1]
    vals = [_pair_kernel(x, y, g) for g in (0.01, 0.1, 0.5, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_kernel_config_validation():
    with pytest.raises(ArgumentError):
        KernelConfig(gamma=-1.0)
    with pytest.raises(ArgumentError):
        KernelConfig(gamma=float("inf"))


def test_gram_single_pattern():
    ps = generate_patterns(1, 6, 0)
    K = gram(ps, KernelConfig(gamma=0.3))
    assert K.values.shape == (1, 1)
    assert K.values[0, 0] == 1.0


def test_gram_identical_patterns_all_ones():
    row = generate_patterns(1, 8, 5).patterns[0]
    ps = PatternSet(patterns=np.vstack([row, row]), seed=5)
    K = gram(ps, KernelConfig(gamma=0.2))
    assert np.array_equal(K.values, np.ones((2, 2)))


def test_gram_matches_double_loop_oracle():
    ps = generate_patterns(3, 8, 7)
    cfg = KernelConfig(gamma=0.01)
    K = gram(ps, cfg)
    for mu in range(3):
        for nu in range(3):
            expected = _kernel_eval(ps.patterns[mu], ps.patterns[nu], cfg.gamma)
            assert K.values[mu, nu] == pytest.approx(expected, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    P=st.integers(1, 12),
    N=st.integers(1, 24),
    seed=st.integers(0, 2**32),
    gamma=st.floats(1e-4, 5.0),
)
def test_gram_symmetric_unit_diagonal_psd(P, N, seed, gamma):
    K = gram(generate_patterns(P, N, seed), KernelConfig(gamma=gamma)).values
    assert np.array_equal(K, K.T)
    assert np.array_equal(K.diagonal(), np.ones(P))
    w = np.linalg.eigvalsh(K)
    assert w.min() >= -1e-10 * w.max()


def test_generate_patterns_deterministic():
    a = generate_patterns(4, 16, 42)
    b = generate_patterns(4, 16, 42)
    assert np.array_equal(a.patterns, b.patterns)
    single = generate_patterns(1, 1, 0)
    assert single.patterns[0, 0] in (-1, 1)
    assert np.array_equal(single.patterns, generate_patterns(1, 1, 0).patterns)


def test_generate_patterns_mean_bit_bound():
    # binomial bound: |mean| < 0.2 for N=512 except with probability < 1e-4
    ps = generate_patterns(8, 512, 1)
    means = ps.patterns.mean(axis=1)
    assert np.all(np.abs(means) <= 0.2)


def test_pattern_set_refuses_a_vector():
    with pytest.raises(ArgumentError, match="^patterns must be a P x N matrix$"):
        PatternSet(patterns=np.ones(4, dtype=int), seed=0)


def test_generate_patterns_rejects_zero():
    with pytest.raises(ArgumentError):
        generate_patterns(0, 4, 1)
    with pytest.raises(ArgumentError):
        generate_patterns(4, 0, 1)


def test_corrupt_identity_and_negation():
    x = generate_patterns(1, 10, 3).patterns[0]
    assert np.array_equal(corrupt(x, 0.0, 9), x)
    assert np.array_equal(corrupt(x, 1.0, 9), -x)


def test_corrupt_exact_flip_count():
    x = generate_patterns(1, 10, 4).patterns[0]
    y = corrupt(x, 0.3, 123)
    assert int(np.sum(x != y)) == 3


def test_corrupt_self_inverse():
    x = generate_patterns(1, 20, 8).patterns[0]
    y = corrupt(corrupt(x, 0.4, 77), 0.4, 77)
    assert np.array_equal(x, y)


def test_corrupt_range_check():
    x = np.ones(4, dtype=int)
    with pytest.raises(ArgumentError):
        corrupt(x, 1.5, 0)


def test_pattern_serialization_roundtrip(tmp_path):
    ps = generate_patterns(5, 12, 99)
    path = tmp_path / "patterns.txt"
    save_patterns(ps, path)
    back = load_patterns(path)
    assert back.seed == 99
    assert np.array_equal(back.patterns, ps.patterns)
    header = path.read_text().splitlines()[0]
    assert header == "5 12 99"


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
def test_format_value_reads_every_finite_float_back_with_its_bits(x):
    assert struct.pack("<d", float(format_value(x))) == struct.pack("<d", x)


def test_format_value_keeps_nan_ints_and_bools():
    assert math.isnan(float(format_value(math.nan)))
    assert [format_value(v) for v in (True, False, 0, -7, 2**64 + 1)] == [
        "true", "false", "0", "-7", "18446744073709551617"
    ]


@given(st.integers())
def test_format_value_writes_an_int_as_its_digits(n):
    assert format_value(n) == str(n)


def test_write_rows_joins_the_values_of_each_row(tmp_path):
    path = tmp_path / "rows.txt"
    write_rows(path, [[3, 0.5, True, -0.0]])
    assert path.read_text() == "3 0.5 true -0\n"
    write_rows(path, [[3, 0.5, True, -0.0], [1.0, False]], ",")
    assert path.read_text() == "3,0.5,true,-0\n1,false\n"


def test_distance_convention_is_four_hamming():
    # one flipped bit -> ||x-y||^2 = 4, so K = exp(-4 gamma)
    assert _pair_kernel([1, 1, 1], [1, 1, -1], 0.25) == pytest.approx(math.exp(-1.0))
