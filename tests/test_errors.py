import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopgeo import dynamics, sweep
from hopgeo.dynamics import recall_batch
from hopgeo.errors import ArgumentError, ConfigError, FieldError, NumericError
from hopgeo.errors import TrainingDivergenceError, check_index, check_range
from hopgeo.kernel_core import generate_patterns
from hopgeo.klr import DualWeights
from hopgeo.sweep import GridConfig, run_cell


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



@pytest.mark.parametrize("args, message", [
    (("gamma_index", 2, 2), "gamma_index must lie in [0, 2), got 2"),
    (("load_index", -1, 3), "load_index must lie in [0, 3), got -1"),
    (("target index", 1.7, 2), "target index must be an integer, got 1.7"),
    (("target index", 1.0, 2), "target index must be an integer, got 1.0"),
    (("target index", True, 2), "target index must be an integer, got True"),
    (("target index", np.bool_(False), 2), "target index must be an integer, got False"),
])
def test_check_index_wants_an_integer_in_range(args, message):
    with pytest.raises(FieldError) as e:
        check_index(*args)
    assert str(e.value) == message


def bad_indices(size):
    """Indices outside [0, size): negative, too large, fractional or boolean, as Python's
    numbers and numpy's."""
    ints = st.one_of(st.integers(max_value=-1), st.integers(min_value=size))
    return st.one_of(ints, ints.filter(lambda i: -2**63 <= i < 2**63).map(np.int64),
                     st.floats(), st.floats().map(np.float64),
                     st.booleans(), st.booleans().map(np.bool_))


def refuse(*args, **kwargs):
    raise AssertionError("called with an index it was not given")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_no_call_answers_for_an_index_it_was_not_given(data):
    # recall_batch checks every target before any block of cues steps, and run_cell its
    # grid indices before it draws a seed or builds patterns: a bad index is an
    # ArgumentError that names it, never another pattern, cell or a bare IndexError.
    ps = generate_patterns(2, 4, 0)
    w = DualWeights(alpha=np.zeros((2, 4)), gamma=0.1, lam=0.0, trained_epochs=0)
    targets = [mu % 2 for mu in range(dynamics.RECALL_BLOCK + 1)]
    targets[data.draw(st.integers(0, dynamics.RECALL_BLOCK))] = data.draw(bad_indices(2))
    cfg = GridConfig(gamma_values=[0.1, 1.0], load_values=[0.25, 0.5, 0.75], num_neurons=8)
    axis = data.draw(st.sampled_from(["gamma_index", "load_index"]))
    indices = {"gamma_index": 1, "load_index": 2}
    indices[axis] = data.draw(bad_indices({"gamma_index": 2, "load_index": 3}[axis]))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dynamics, "_recall_block", refuse)
        for name in ("seed64", "generate_patterns"):  # a fit comes after both
            m.setattr(sweep, name, refuse)
        with pytest.raises(ArgumentError, match="^target index must"):
            recall_batch(np.ones((len(targets), 4), dtype=int), targets, ps, w)
        with pytest.raises(ArgumentError, match=f"^{axis} must"):
            run_cell(cfg, indices["gamma_index"], indices["load_index"])
