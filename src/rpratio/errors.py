"""Exception hierarchy for the rpratio package.

Everything raised deliberately by this library derives from
:class:`EstimationError` so callers can catch a single type at the boundary.
A class has a name of its own only when the README documents it, a caller
in the program catches it by name, or its message reads data it carries;
any other bad input raises :class:`InvalidInputError` with its message.
"""

__all__ = [
    "EstimationError",
    "InvalidInputError",
    "SingularDenominatorError",
    "PoleAtHalfError",
    "TooLargeError",
    "ParseError",
]


class EstimationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(EstimationError):
    """An argument, population or target fails a validity requirement."""


class SingularDenominatorError(EstimationError):
    """An estimator denominator evaluated to zero, or a power transform
    left its domain."""


class PoleAtHalfError(EstimationError):
    """The optimal-parameter radicand is undefined at c = 1/2."""


class TooLargeError(EstimationError):
    """A requested enumeration or grid would exceed its size budget."""


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
