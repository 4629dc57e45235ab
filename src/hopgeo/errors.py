"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible shapes or lengths."""


class ArgumentError(ValueError):
    """A scalar argument is outside its documented range."""


class FieldError(ArgumentError):
    """A named configuration field is outside its documented range.

    Config-file readers turn it into an error at the field's file and line.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field} {message}")


class TrainingDivergenceError(RuntimeError):
    """Training produced a non-finite or increasing loss.

    Carries the offending neuron index and epoch so callers can report
    or count the failure without re-deriving it.
    """

    def __init__(self, neuron: int, epoch: int, detail: str = ""):
        self.neuron = neuron
        self.epoch = epoch
        msg = f"training diverged at neuron {neuron}, epoch {epoch}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DegenerateSpectrumError(ValueError):
    """All Fisher eigenvalues are zero; the metric carries no information."""


class NumericError(ValueError):
    """Non-finite values where finite ones are required."""


class LayoutError(ValueError):
    """Sweep cells do not form the rectangular grid a renderer needs."""
