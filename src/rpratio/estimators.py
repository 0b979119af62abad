"""Point estimators of a finite population mean using an auxiliary variable.

Every estimator here is a function of the same three numbers: the sample
means ``ybar`` and ``xbar`` and the known population mean ``Xbar`` of the
auxiliary variable.  The central object is the two-parameter family

    t(alpha, beta) = alpha * B * ybar + (1 - alpha) * ybar / B,

    B = ((1 - beta) * xbar + beta * Xbar) / (beta * xbar + (1 - beta) * Xbar),

which interpolates between the classical ratio estimator
``ybar * Xbar / xbar`` at (0, 0) or (1, 1), the product estimator
``ybar * xbar / Xbar`` at (1, 0) or (0, 1), and collapses to the plain
sample mean on the whole line beta = 1/2.  The family is invariant under
the point reflection (alpha, beta) -> (1 - alpha, 1 - beta).

A handful of one-parameter competitors from the same literature are
included so they can run side by side in the simulation harness.

Each estimator kind is one frozen dataclass that carries everything about
it: its token name (the dataclass fields are the token's arguments, in
order), an evaluator over arrays of sample means, and its first-order
expansion coefficients.  ESTIMATOR_KINDS maps token names to the classes.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import ClassVar, Union, get_args

import numpy as np

from .errors import InvalidInputError, SingularDenominatorError
from .sampling import _real

__all__ = [
    "SampleSummary",
    "SampleMean",
    "Ratio",
    "Product",
    "RatioProductRatio",
    "UnbiasedAOE",
    "SrivastavaPower",
    "Reddy",
    "SahaiTransformed",
    "SinghRatioProduct",
    "EstimatorSpec",
    "ESTIMATOR_KINDS",
    "estimate",
    "estimator_token",
    "parse_estimator",
]


def _check_means(ybar, xbar, Xbar) -> None:
    for name, value in (("ybar", ybar), ("xbar", xbar), ("Xbar", Xbar)):
        if not np.isfinite(value).all():
            raise InvalidInputError(f"{name} must be finite")
    if Xbar == 0.0:
        raise InvalidInputError("population auxiliary mean Xbar must be nonzero")


@dataclass(frozen=True)
class SampleSummary:
    """The three numbers every estimator consumes."""

    ybar: float
    xbar: float
    Xbar: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _real(getattr(self, f.name), f.name))
        _check_means(self.ybar, self.xbar, self.Xbar)


class _Kind:
    """What every estimator kind provides; subclasses are frozen dataclasses.

    Each kind defines ``_values(ybar, xbar, Xbar) -> (values, singular)``
    over arrays of sample means and ``coefficients() -> (w, q)``: the
    estimator equals Ybar * (1 + e1) * (1 - w*e2 + q*e2^2 + ...) with e1, e2
    the relative deviations of the two sample means.
    """

    name: ClassVar[str]

    def __post_init__(self):
        for f in fields(self):
            value = _real(getattr(self, f.name), f"estimator {self.name}: {f.name}")
            object.__setattr__(self, f.name, value)

    def evaluate(self, ybar, xbar, Xbar: float) -> tuple[np.ndarray, np.ndarray]:
        """Estimates for paired arrays of sample means (nan where singular),
        and the mask of the singular draws."""
        ybar, xbar, Xbar = np.asarray(ybar, float), np.asarray(xbar, float), float(Xbar)
        _check_means(ybar, xbar, Xbar)
        with np.errstate(all="ignore"):
            values, singular = self._values(ybar, xbar, Xbar)
        return np.where(singular, np.nan, values), singular


def _pow(base: float, k: float) -> float:
    try:
        return math.pow(base, k)
    except (ValueError, ZeroDivisionError, OverflowError):
        return math.nan


class _PowerTransform(_Kind):
    """Kinds built on (xbar / Xbar) ** k, taken with math.pow per draw.

    math.pow fails for 0**negative, for a negative base with fractional
    exponent and on overflow; each means the transform has left its domain
    for that draw, which is marked by a nan power (k is finite, so math.pow
    never returns one).  The powers stream from the base array into the
    result array (an np.float64 is a float, so each is math.pow's to the
    bit); only when a draw fails is the array redone through _pow.
    (np.power may differ from math.pow in the last bit.)
    """

    def _power(self, xb, Xb) -> tuple[np.ndarray, np.ndarray]:
        bases = np.ravel(xb / Xb)
        try:
            values = np.fromiter(map(math.pow, bases, itertools.repeat(self.k)), float, len(bases))
        except (ValueError, ZeroDivisionError, OverflowError):
            values = np.fromiter(map(_pow, bases, itertools.repeat(self.k)), float, len(bases))
        values = values.reshape(xb.shape)
        return values, np.isnan(values)


@dataclass(frozen=True)
class SampleMean(_Kind):
    """ybar, ignoring the auxiliary variable."""

    name = "mean"

    def _values(self, yb, xb, Xb):
        return yb, np.zeros_like(yb, dtype=bool)

    def coefficients(self):
        return 0.0, 0.0


@dataclass(frozen=True)
class Ratio(_Kind):
    """ybar * Xbar / xbar."""

    name = "ratio"

    def _values(self, yb, xb, Xb):
        return yb * Xb / xb, xb == 0.0

    def coefficients(self):
        return 1.0, 1.0


@dataclass(frozen=True)
class Product(_Kind):
    """ybar * xbar / Xbar."""

    name = "product"

    def _values(self, yb, xb, Xb):
        return yb * xb / Xb, np.zeros_like(yb, dtype=bool)

    def coefficients(self):
        return -1.0, 0.0


@dataclass(frozen=True)
class RatioProductRatio(_Kind):
    """The two-parameter family t(alpha, beta) described in the module docstring."""

    alpha: float
    beta: float

    name = "rpr"

    def _values(self, yb, xb, Xb):
        # Three draw-sized arrays, in place in a*B*yb + (1-a)*yb/B's order, bit for bit.
        a, b = self.alpha, self.beta
        d1 = np.multiply(b, xb, out=np.empty_like(xb))
        d1 += (1.0 - b) * Xb
        bracket = np.multiply(1.0 - b, xb, out=np.empty_like(xb))
        bracket += b * Xb
        bracket /= d1
        singular = (d1 == 0.0) | (bracket == 0.0)
        values = np.multiply(a, bracket, out=np.empty_like(xb))
        values *= yb
        np.multiply(1.0 - a, yb, out=d1)
        d1 /= bracket
        values += d1
        return values, singular

    def coefficients(self):
        v = 1.0 - 2.0 * self.beta
        return (1.0 - 2.0 * self.alpha) * v, (1.0 - self.alpha - self.beta) * v


@dataclass(frozen=True)
class UnbiasedAOE(_Kind):
    """Closed form of the family member sitting at the optimal parameter pair
    for a population whose moment ratio equals ``c``:

        [2(c+1)Xbar^2 - 2(c-1)xbar^2 + (2c^2-c-1)(Xbar-xbar)^2]
        / [4 Xbar xbar - (2c^2-c-1)(Xbar-xbar)^2] * ybar

    First-order unbiased, and attains the minimal first-order MSE, when
    ``c`` matches the population value.
    """

    c: float

    name = "aoe"

    def _values(self, yb, xb, Xb):
        # Three draw-sized arrays, worked in place in the formula's order of
        # operations, so each value is the formula's to the bit: den =
        # 4*Xb*xb - t*gap*gap reuses gap's array, and num = 2(c+1)*Xb*Xb -
        # 2(c-1)*xb*xb + t*gap*gap becomes the result.
        c = self.c
        t = 2.0 * c * c - c - 1.0
        gap = np.subtract(Xb, xb, out=np.empty_like(xb))
        tgg = np.multiply(t, gap, out=np.empty_like(xb))
        tgg *= gap
        den = np.multiply(4.0 * Xb, xb, out=gap)
        den -= tgg
        num = np.multiply(2.0 * (c - 1.0), xb, out=np.empty_like(xb))
        num *= xb
        np.subtract(2.0 * (c + 1.0) * Xb * Xb, num, out=num)
        num += tgg
        num /= den
        num *= yb
        return num, den == 0.0

    def coefficients(self):
        return self.c, self.c * self.c


@dataclass(frozen=True)
class SrivastavaPower(_PowerTransform):
    """ybar * (xbar / Xbar) ** k."""

    k: float

    name = "srivastava"

    def _values(self, yb, xb, Xb):
        power, singular = self._power(xb, Xb)
        return yb * power, singular

    def coefficients(self):
        return -self.k, self.k * (self.k - 1.0) / 2.0


@dataclass(frozen=True)
class Reddy(_Kind):
    """ybar * Xbar / (Xbar + k * (xbar - Xbar))."""

    k: float

    name = "reddy"

    def _values(self, yb, xb, Xb):
        den = Xb + self.k * (xb - Xb)
        return yb * Xb / den, den == 0.0

    def coefficients(self):
        return self.k, self.k * self.k


@dataclass(frozen=True)
class SahaiTransformed(_PowerTransform):
    """ybar * (2 - (xbar / Xbar) ** k)."""

    k: float

    name = "sahai"

    def _values(self, yb, xb, Xb):
        power, singular = self._power(xb, Xb)
        return yb * (2.0 - power), singular

    def coefficients(self):
        return self.k, -self.k * (self.k - 1.0) / 2.0


@dataclass(frozen=True)
class SinghRatioProduct(_Kind):
    """ybar * (k * Xbar / xbar + (1 - k) * xbar / Xbar); the product
    estimator, never singular, at k = 0."""

    k: float

    name = "singh"

    def _values(self, yb, xb, Xb):
        k = self.k
        if k == 0.0:
            return Product._values(self, yb, xb, Xb)
        return yb * (k * Xb / xb + (1.0 - k) * xb / Xb), xb == 0.0

    def coefficients(self):
        return 2.0 * self.k - 1.0, self.k


# The order of the kinds is the order of the forms in parse errors.
EstimatorSpec = Union[
    SampleMean, Ratio, Product, RatioProductRatio, UnbiasedAOE,
    SrivastavaPower, Reddy, SahaiTransformed, SinghRatioProduct,
]

ESTIMATOR_KINDS: dict[str, type] = {kind.name: kind for kind in get_args(EstimatorSpec)}


def _checked(spec) -> EstimatorSpec:
    if type(spec) not in ESTIMATOR_KINDS.values():
        raise InvalidInputError(f"unknown estimator spec {spec!r}")
    return spec


def estimate(spec: EstimatorSpec, s: SampleSummary) -> float:
    """Evaluate an estimator on one sample summary.

    Raises SingularDenominatorError when a denominator of the requested
    estimator vanishes on this draw, or a power transform leaves its domain.
    """
    values, singular = _checked(spec).evaluate([s.ybar], [s.xbar], s.Xbar)
    if singular[0]:
        raise SingularDenominatorError(
            f"{estimator_token(spec)} is singular at xbar={s.xbar!r}: a denominator"
            " vanishes or the power transform leaves its domain"
        )
    return float(values[0])


def _token(name: str, args: list[str]) -> str:
    return f"{name}:{','.join(args)}" if args else name


def estimator_token(spec: EstimatorSpec) -> str:
    """Canonical command-line token for a spec; inverse of parse_estimator."""
    args = [repr(float(getattr(spec, f.name))) for f in fields(_checked(spec))]
    return _token(spec.name, args)


def _split_estimators(text: str) -> list[str]:
    """Split a comma-separated token list: a piece 'name:...' naming an
    estimator kind starts a token of as many pieces as the kind has fields,
    so rpr:<alpha>,<beta> keeps its comma.  Empty tokens are dropped."""
    pieces = (p.strip() for p in text.split(","))
    tokens = []
    for piece in pieces:
        name, sep, _ = piece.partition(":")
        kind = ESTIMATOR_KINDS.get(name) if sep else None
        more = max(len(fields(kind)), 1) - 1 if kind else 0
        tokens.append(",".join([piece, *itertools.islice(pieces, more)]))
    return [t for t in tokens if t]


def parse_estimator(token: str) -> EstimatorSpec:
    """Parse a command-line estimator token such as ``rpr:-0.3349,0.3176``."""
    name, sep, arg = token.strip().partition(":")
    kind = ESTIMATOR_KINDS.get(name)
    if kind is None or bool(sep) != bool(fields(kind)):
        forms = ", ".join(
            _token(other.name, [f"<{f.name}>" for f in fields(other)])
            for other in ESTIMATOR_KINDS.values()
        )
        raise InvalidInputError(
            f"unknown estimator token {token!r}; valid forms: {forms}"
        )
    if not sep:
        return kind()
    try:  # too few arguments leave a field missing: TypeError
        return kind(*(float(t) for t in arg.split(",", len(fields(kind)) - 1)))
    except (TypeError, ValueError):
        raise InvalidInputError(
            f"bad numeric argument in estimator token {token!r}"
        ) from None
