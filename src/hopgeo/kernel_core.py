"""Bipolar pattern sets, the RBF kernel, and Gram matrices.

Conventions (fixed, so gamma values in configs are unambiguous):
  * patterns are raw {-1,+1} vectors, never normalized by sqrt(N);
  * distances are squared Euclidean on those raw vectors, so
    ||x - y||^2 = 4 * hamming(x, y);
  * the kernel is the Gaussian RBF exp(-gamma * ||x - y||^2);
  * all randomness comes from numpy's PCG64 generator seeded with a
    single 64-bit integer, so regeneration is bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, check_range


@dataclass
class KernelConfig:
    """RBF kernel with width parameter gamma > 0."""

    gamma: float

    def __post_init__(self):
        check_range("gamma", self.gamma, 0, lo_open=True)


@dataclass
class PatternSet:
    """P stored bipolar patterns of dimension N, plus the seed that made them."""

    patterns: np.ndarray  # (P, N) with entries in {-1, +1}
    seed: int

    def __post_init__(self):
        self.patterns = np.asarray(self.patterns)
        if self.patterns.ndim != 2:
            raise ArgumentError("patterns must be a P x N matrix")
        check_range("P", self.patterns.shape[0], 1)
        check_range("N", self.patterns.shape[1], 1)
        check_bipolar(self.patterns, "pattern")
        check_range("seed", self.seed, 0)

    @property
    def num_patterns(self) -> int:
        return self.patterns.shape[0]

    @property
    def num_neurons(self) -> int:
        return self.patterns.shape[1]


@dataclass
class GramMatrix:
    """P x P kernel matrix over stored patterns; symmetric PSD with unit diagonal."""

    values: np.ndarray


def check_bipolar(values: np.ndarray, what: str) -> None:
    """Raise ArgumentError unless every entry of `values` is -1 or +1."""
    if not ((values == 1) | (values == -1)).all():
        raise ArgumentError(f"{what} entries must be exactly -1 or +1")


def rbf_of_inner(inner, N: int, gamma: float):
    """exp(-gamma ||x - y||^2) of +-1 vectors of length N from <x, y>: ||x - y||^2 = 2(N - <x, y>).

    <x, y> is an exact integer in any order, so gram and both recall paths share bits.
    """
    d2 = 2.0 * (N - inner)  # ||x - y||^2
    return np.exp(-gamma * d2)


def gram(patterns: PatternSet, config: KernelConfig) -> GramMatrix:
    """Gram matrix K[mu][nu] = kernel(xi_mu, xi_nu), exactly symmetric with unit diagonal."""
    X = patterns.patterns.astype(float)
    K = rbf_of_inner(X @ X.T, patterns.num_neurons, config.gamma)
    return GramMatrix(values=K)


def generate_patterns(P: int, N: int, seed: int) -> PatternSet:
    """P x N matrix of i.i.d. uniform {-1,+1} entries from PCG64(seed)."""
    check_range("P", P, 1)
    check_range("N", N, 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    pats = rng.integers(0, 2, size=(P, N), dtype=np.int64) * 2 - 1
    return PatternSet(patterns=pats, seed=int(seed))


def corrupt(pattern, flip_fraction: float, seed: int) -> np.ndarray:
    """Sign-flip exactly round(flip_fraction * N) distinct positions.

    Rounding is half-away-from-zero; positions come from PCG64(seed).
    Applying the same corruption twice restores the input.
    """
    check_range("flip_fraction", flip_fraction, 0, 1)
    pattern = np.asarray(pattern)
    n = pattern.shape[0]
    n_flip = int(math.floor(flip_fraction * n + 0.5))
    out = pattern.copy()
    if n_flip == 0:
        return out
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.choice(n, size=n_flip, replace=False)
    out[idx] = -out[idx]
    return out


def format_value(v) -> str:
    """The text of a value in any artifact: a float to 17 significant digits, so it reads
    back with the same bits; a bool as `true` or `false`; an int as its digits.
    Writers pass Python values (`tolist()`), not numpy scalars."""
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def write_rows(path, rows, sep: str = " ") -> None:
    """Write each row, header row first, as its format_value texts joined by `sep`: the one
    writer of every table artifact. Rows stream through the file's buffer."""
    with open(path, "w") as f:
        f.writelines(sep.join(map(format_value, row)) + "\n" for row in rows)


def save_patterns(ps: PatternSet, path) -> None:
    """Text format: header line `P N seed`, then P lines of N +/-1 integers."""
    write_rows(path, [[ps.num_patterns, ps.num_neurons, ps.seed], *ps.patterns.tolist()])


def read_text(path) -> str:
    """The text of a file as UTF-8 in any locale, a leading BOM dropped; ArgumentError
    names the file if it does not decode."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise ArgumentError(f"{path}: not a text file") from None


def read_artifact(path, header: str, types: tuple, cast, make):
    """The artifact make(body, *rest) of a text file: a header line, then P rows of N values.

    `header` names the header fields, `types` converts them; the first two
    are P and N, and the rest follow the body into `make`, the artifact's
    constructor. `cast` converts each body value. An empty, truncated,
    ragged or non-numeric file, or one whose values `make` refuses, raises
    ArgumentError naming the file.
    """
    lines = read_text(path).splitlines()
    fields = lines[0].split() if lines else []
    try:
        head = [t(v) for t, v in zip(types, fields, strict=True)]
    except ValueError:
        raise ArgumentError(f"{path}: first line must be `{header}`") from None
    P, N = head[0], head[1]
    if P < 1 or N < 1:
        raise ArgumentError(f"{path}: P and N must be >= 1, got {P} and {N}")
    shape_msg = f"{path}: expected {P} rows of {N} values after the header"
    if len(lines) - 1 != P:
        raise ArgumentError(shape_msg)
    try:
        rows = [[cast(v) for v in line.split()] for line in lines[1:]]
    except ValueError:
        raise ArgumentError(f"{path}: body holds a value that is not a number") from None
    if any(len(r) != N for r in rows):
        raise ArgumentError(shape_msg)
    try:
        return make(np.array(rows), *head[2:])
    except ArgumentError as e:
        raise ArgumentError(f"{path}: {e}") from None


def load_patterns(path) -> PatternSet:
    return read_artifact(path, "P N seed", (int, int, int), int, PatternSet)
