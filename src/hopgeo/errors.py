"""Every exception type of the package, the one numeric range check and the index check.

A type exists only where a handler tells it apart or it carries data. Each is
an ArgumentError, which cli.main ends in exit 2, a NumericError, which it ends
in exit 3, or a PoolError (a dead worker), exit 2. Any other OSError or
ValueError also ends in exit 2.
"""

import math
import numbers


class ArgumentError(ValueError):
    """An argument, an input file or a grid is outside its documented range or shape."""


class FieldError(ArgumentError):
    """A named config field, flag or argument is outside its documented range.

    Config-file readers turn it into an error at the field's file and line.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field} {message}")

    def __reduce__(self):  # so that it crosses a process pool as itself
        return type(self), (self.field, self.message)


class ConfigError(ArgumentError):
    """A config file is malformed; the message starts with its file:line.

    `line` is None for an error with no line, such as a key the file leaves
    out, and the message then starts with the file alone.
    """

    def __init__(self, path, line: int | None, message: str):
        self.line = line
        super().__init__(f"{path}: {message}" if line is None else f"{path}:{line}: {message}")


def check_range(field: str, value, lo, hi=math.inf, lo_open=False, hi_open=False) -> None:
    """Raise FieldError naming `field` unless `value` is finite and lies between lo and hi.

    A bound is inclusive unless its `*_open` flag is set; hi = inf sets none. The
    message states the range: `must be >= 1, got 0`, `must lie in (0, 1], got 1.01`.
    """
    if hi == math.inf:
        rule = f"be {'>' if lo_open else '>='} {lo:g}"
    else:
        rule = f"lie in {'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}"
    if not isinstance(value, int) and not math.isfinite(value):  # big ints overflow isfinite
        raise FieldError(field, f"must be finite and {rule.removeprefix('be ')}, got {value}")
    if not ((value > lo if lo_open else value >= lo) and (value < hi if hi_open else value <= hi)):
        raise FieldError(field, f"must {rule}, got {value}")


def check_index(field: str, value, size: int) -> None:
    """Raise FieldError naming `field` unless `value` is an integer, not a bool, in [0, size)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise FieldError(field, f"must be an integer, got {value}")
    if not 0 <= value < size:
        check_range(field, value, 0, size, hi_open=True)  # raises, stating the range


class NumericError(ValueError):
    """Non-finite values where finite ones are required, or an all-zero spectrum."""


class TrainingDivergenceError(NumericError):
    """Training produced a non-finite or increasing loss.

    Carries the offending neuron index and epoch so callers can report
    or count the failure without re-deriving it.
    """

    def __init__(self, neuron: int, epoch: int):
        self.neuron = neuron
        self.epoch = epoch
        super().__init__(f"training diverged at neuron {neuron}, epoch {epoch}")

    def __reduce__(self):
        return type(self), (self.neuron, self.epoch)


class PoolError(RuntimeError):
    """A pool worker process died before its task ended."""
