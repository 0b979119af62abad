"""Synthetic bivariate populations with exact low-order moments.

The construction works backwards from the contract: whatever the base
draws look like, (1) Gram-Schmidt on two centered columns gives an exactly
orthonormal pair, so mixing them with weights (r, sqrt(1 - r^2)) sets the
sample correlation to r exactly, and (2) an affine map per column then
lands the sample mean and CV exactly.

The base shape is what decides positivity.  A symmetric base cannot
deliver a CV much above ~0.3 with all values positive (the standardized
minimum sits near mean - 3 sd), so the bases are drawn lognormal with
enough right skew that the standardized minimum stays above zero; the
column with the larger CV target gets the pure skewed direction and only
the looser column takes the mixture.  No repair or re-draw is attempted:
if either final column still touches zero the targets are declared
infeasible (large CVs combined with strongly negative r can do this).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTargetsError, InvalidInputError, TooLargeError
from .population import Population
from .sampling import _UNIT_BUDGET, _integer, _real

__all__ = ["MomentTargets", "generate_population"]


@dataclass(frozen=True)
class MomentTargets:
    """Sample-moment targets: means, coefficients of variation, correlation."""

    size: int
    mean_y: float
    mean_x: float
    cv_y: float
    cv_x: float
    r: float

    def __post_init__(self):
        object.__setattr__(self, "size", _integer(self.size, "size"))
        if self.size < 3:
            raise InvalidInputError(
                f"population size must be at least 3, got {self.size}"
            )
        if self.size > _UNIT_BUDGET:
            raise TooLargeError(
                f"population size {self.size} exceeds the {_UNIT_BUDGET} unit budget"
            )
        for name in ("mean_y", "mean_x", "cv_y", "cv_x", "r"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.mean_y <= 0.0 or self.mean_x <= 0.0:
            raise InvalidInputError("means must be positive for positive-valued data")
        if self.cv_y <= 0.0 or self.cv_x <= 0.0:
            raise InvalidInputError("coefficients of variation must be positive")
        if not -1.0 < self.r < 1.0:
            raise InvalidInputError(f"correlation {self.r} outside (-1, 1)")

    @property
    def N(self) -> int:
        return self.size


def _lognormal_sigma(cv: float) -> float:
    # Base CV of 1.8x the target leaves headroom for the mixing step.
    try:
        square = (1.8 * cv) ** 2
    except OverflowError:
        square = math.inf
    if square == math.inf:
        raise InvalidInputError(
            f"coefficient of variation {cv!r} is too large: (1.8 * cv)^2 "
            "overflows double precision"
        )
    return math.sqrt(math.log1p(square))


def _unit(v: np.ndarray, cause: str) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise InfeasibleTargetsError(f"degenerate base draw ({cause})")
    return v / norm


def generate_population(targets: MomentTargets, seed: int) -> Population:
    """Deterministically generate a population meeting ``targets``.

    Sample means and CVs are exact to float rounding, the correlation
    likewise.  Raises InfeasibleTargetsError when the targets cannot be met
    with strictly positive values, and InvalidInputError for a negative seed.
    """
    seed = _integer(seed, "seed")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    hi_cv = max(targets.cv_x, targets.cv_y)
    lo_cv = min(targets.cv_x, targets.cv_y)
    base_hi = rng.lognormal(0.0, _lognormal_sigma(hi_cv), targets.size)
    base_lo = rng.lognormal(0.0, _lognormal_sigma(max(lo_cv, 0.05)), targets.size)

    e1 = _unit(base_hi - base_hi.mean(), "constant column")
    g = base_lo - base_lo.mean()
    e2 = _unit(g - (g @ e1) * e1, "collinear columns")

    mix = targets.r * e1 + math.sqrt(1.0 - targets.r**2) * e2
    if targets.cv_x >= targets.cv_y:
        e_x, e_y = e1, mix
    else:
        e_x, e_y = mix, e1

    root = math.sqrt(targets.size - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        x = targets.mean_x * (1.0 + targets.cv_x * root * e_x)
        y = targets.mean_y * (1.0 + targets.cv_y * root * e_y)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidInputError(
            f"targets overflow double precision: mean_y={targets.mean_y!r}, "
            f"cv_y={targets.cv_y!r}, mean_x={targets.mean_x!r}, cv_x={targets.cv_x!r}"
        )
    if (x <= 0.0).any() or (y <= 0.0).any():
        raise InfeasibleTargetsError(
            "CV targets too large to keep all values positive at "
            f"r={targets.r} (min x={x.min():.4g}, min y={y.min():.4g})"
        )
    return Population(y=y, x=x)
