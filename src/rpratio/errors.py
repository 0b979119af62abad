"""Exception hierarchy for the rpratio package.

Everything raised deliberately by this library derives from
:class:`EstimationError` so callers can catch a single type at the boundary.
"""

__all__ = [
    "EstimationError",
    "InvalidInputError",
    "ZeroMeanError",
    "DegenerateVarianceError",
    "InvalidDesignError",
    "SingularDenominatorError",
    "NonRealParametersError",
    "PoleAtHalfError",
    "DegenerateMseError",
    "OutOfRangeError",
    "TooLargeError",
    "EmptyDataError",
    "ParseError",
    "InfeasibleTargetsError",
]


class EstimationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(EstimationError):
    """An argument fails a basic validity requirement."""


class ZeroMeanError(EstimationError):
    """A population mean required as a divisor is zero."""


class DegenerateVarianceError(EstimationError):
    """A variance required to be positive is zero."""


class InvalidDesignError(EstimationError):
    """A sample size does not satisfy 1 <= n < N."""


class SingularDenominatorError(EstimationError):
    """An estimator denominator evaluated to zero.

    The offending value is kept in ``denominator``.
    """

    def __init__(self, message: str, denominator: float = 0.0):
        super().__init__(message)
        self.denominator = denominator


class NonRealParametersError(EstimationError):
    """Real optimal parameters were demanded inside the complex region."""


class PoleAtHalfError(EstimationError):
    """The optimal-parameter radicand is undefined at c = 1/2."""


class DegenerateMseError(EstimationError):
    """A first-order MSE used as an efficiency denominator is zero."""


class OutOfRangeError(EstimationError):
    """A numeric argument lies outside its admissible interval."""


class TooLargeError(EstimationError):
    """A requested enumeration or grid would exceed its size budget."""


class EmptyDataError(EstimationError):
    """An operation that needs at least one value received none."""


class ParseError(EstimationError):
    """A population CSV file is malformed.

    ``line`` holds the 1-based physical line number when one applies.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line

    def __str__(self) -> str:
        base = super().__str__()
        return base if self.line is None else f"line {self.line}: {base}"


class InfeasibleTargetsError(EstimationError):
    """Moment targets cannot be met with strictly positive values."""
