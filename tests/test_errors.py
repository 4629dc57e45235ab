import math

import pytest

from hopgeo.errors import ArgumentError, ConfigError, FieldError, NumericError
from hopgeo.errors import TrainingDivergenceError, check_range


@pytest.mark.parametrize("args, message", [
    (("n", 0, 1), "n must be >= 1, got 0"),
    (("x", 0.0, 0, math.inf, True), "x must be > 0, got 0.0"),
    (("f", 1.01, 0, 1, True), "f must lie in (0, 1], got 1.01"),
    (("f", -0.5, 0, 1), "f must lie in [0, 1], got -0.5"),
    (("c", 1.0, 0, 1, True, True), "c must lie in (0, 1), got 1.0"),
    (("x", math.nan, 0), "x must be finite and >= 0, got nan"),
    (("x", math.inf, 0, math.inf, True), "x must be finite and > 0, got inf"),
    (("f", -math.inf, 0, 1), "f must be finite and lie in [0, 1], got -inf"),
])
def test_check_range_states_the_range_it_wants(args, message):
    with pytest.raises(FieldError) as e:
        check_range(*args)
    assert isinstance(e.value, ArgumentError)
    assert str(e.value) == message
    assert e.value.field == args[0]


@pytest.mark.parametrize("args", [
    ("n", 1, 1), ("n", 10**400, 0), ("x", 1e-300, 0, math.inf, True), ("f", 0.0, 0, 1),
    ("f", 1.0, 0, 1, True), ("c", 0.5, 0, 1, True, True),
])
def test_check_range_accepts_values_in_range(args):
    check_range(*args)


@pytest.mark.parametrize("error, base", [
    (ConfigError("grid.cfg", 4, "unknown field 'x'"), ArgumentError),
    (TrainingDivergenceError(3, 7), NumericError),
])
def test_an_error_type_has_the_base_of_its_exit_code(error, base):
    assert isinstance(error, base)

