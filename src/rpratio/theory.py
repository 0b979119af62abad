"""First-order bias and MSE theory for the two-parameter estimator family.

Writing u = 1 - 2*alpha, v = 1 - 2*beta, f = n/N and fpc = (1 - f)/n, the
Taylor expansion of the family around (Ybar, Xbar) gives, to first order,

    bias1 = fpc * v * (1 - alpha - beta - u*c) * cv_x^2 * Ybar
    mse1  = fpc * Ybar^2 * (cv_y^2 + cv_x^2 * u*v * (u*v - 2*c))

where c = r * cv_y / cv_x.  mse1 depends on (alpha, beta) only through the
product u*v, is minimized exactly on the hyperbola u*v = c, and the minimum
value is fpc * S_y^2 * (1 - r^2) regardless of where on the hyperbola the
parameters sit.  The pair solving u*v = c together with bias1 = 0 is the
first-order unbiased, minimum-MSE ("optimal") parameter choice; it is real
only for c <= 0 or c > 1/2 and blows up at c = 1/2.

Every other estimator in :mod:`rpratio.estimators` expands the same way
with its own linear coefficient w in place of u*v and its own quadratic
coefficient q, so a single pair (w, q) per estimator yields all the
first-order comparisons used here.  family_theory and its design-free
factor _mse1_factor hold the only copy of the expansion; family_theory is
its one entry point, where the family member at (alpha, beta) is
RatioProductRatio(alpha, beta), with (w, q) = (u*v, v*(1 - alpha - beta)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError, PoleAtHalfError, TooLargeError
from .estimators import EstimatorSpec, RatioProductRatio, _checked
from .population import SummaryStats
from .sampling import SamplingDesign, _real

__all__ = [
    "Branch",
    "Baseline",
    "SurfaceKind",
    "AOESolution",
    "FirstOrderResult",
    "mse1_grad",
    "minimal_mse1",
    "biasfree_betas",
    "aoe_parameters",
    "dominates",
    "relative_efficiency",
    "family_theory",
    "surface_grid",
]

# Most rows a surface may have; the benchmark grid has 418 241.  Checked
# before any row is evaluated, so also before the CLI opens its output.
_GRID_BUDGET = 10_000_000


class Branch(Enum):
    """Which sign of the alpha radical the optimal-parameter solver takes."""

    MINUS_MINUS = "minus-minus"
    PLUS_PLUS = "plus-plus"


class Baseline(Enum):
    """Classical estimator against which dominance is asked."""

    SAMPLE_MEAN = "mean"
    RATIO = "ratio"
    PRODUCT = "product"


class SurfaceKind(Enum):
    BIAS_FREE = "biasfree"
    AOE = "aoe"
    DOMINANCE = "region"


@dataclass(frozen=True)
class AOESolution:
    """Optimal parameter pair; NaN with is_real=False inside 0 < c < 1/2."""

    alpha_star: float
    beta_star: float
    branch: Branch
    is_real: bool


@dataclass(frozen=True)
class FirstOrderResult:
    bias1: float
    mse1: float


def mse1_grad(
    alpha: float, beta: float, st: SummaryStats, d: SamplingDesign
) -> tuple[float, float]:
    """Gradient of the family's mse1 in (alpha, beta):

        -4 * fpc * Ybar^2 * cv_x^2 * (u*v - c) * (v, u)

    with u = 1 - 2*alpha, v = 1 - 2*beta.  Zero exactly at the saddle
    (1/2, 1/2) and on the hyperbola u*v = c.
    """
    spec = RatioProductRatio(alpha, beta)
    w, _ = spec.coefficients()
    u, v = 1.0 - 2.0 * spec.alpha, 1.0 - 2.0 * spec.beta
    k = -4.0 * d.fpc_rate * st.mean_y**2 * st.cv_x**2 * (w - st.c)
    return k * v, k * u


def family_theory(
    spec: EstimatorSpec, st: SummaryStats, d: SamplingDesign
) -> FirstOrderResult:
    """First-order bias and MSE for any estimator spec: with its expansion
    coefficients (w, q), bias1 = fpc * Ybar * cv_x^2 * (q - w*c), and mse1
    is the family formula with w in place of u*v."""
    w, q = _checked(spec).coefficients()
    bias1 = d.fpc_rate * st.cv_x**2 * st.mean_y * (q - w * st.c)
    return FirstOrderResult(bias1, d.fpc_rate * st.mean_y**2 * _mse1_factor(w, st))


def _mse1_factor(w: float, st: SummaryStats) -> float:
    """mse1 / (fpc * Ybar^2) at linear coefficient w, free of the design."""
    return st.cv_y**2 + st.cv_x**2 * w * (w - 2.0 * st.c)


def minimal_mse1(st: SummaryStats, d: SamplingDesign) -> float:
    """fpc * S_y^2 * (1 - r^2), the value of mse1 anywhere on u*v = c."""
    return d.fpc_rate * st.var_y * (1.0 - st.r**2)


def _real_or_array(value, name: str):
    """A numpy array as it is; any other value read by _real."""
    return value if isinstance(value, np.ndarray) else _real(value, name)


def biasfree_betas(alpha: float, c: float) -> tuple[float, float]:
    """Both beta roots that zero bias1 at a given alpha: the plane beta = 1/2
    and the ruled sheet beta = 1 - alpha - c + 2*alpha*c.  The sheet is
    computed element-wise when alpha or c is a numpy array."""
    alpha, c = _real_or_array(alpha, "alpha"), _real_or_array(c, "c")
    return 0.5, 1.0 - alpha - c + 2.0 * alpha * c


def aoe_parameters(c: float, branch: Branch = Branch.MINUS_MINUS) -> AOESolution:
    """Solve jointly for zero first-order bias and minimal first-order MSE.

    The alpha radical is sqrt(c / (2c - 1)); ``branch`` picks its sign, and
    beta follows from the hyperbola constraint v = c/u so that
    (1 - 2*alpha)(1 - 2*beta) = c holds for every admissible c, positive or
    negative.  PLUS_PLUS returns the point reflection of MINUS_MINUS.

    Inside 0 < c < 1/2 the radicand is negative: the solution is flagged
    is_real=False, with NaN parameters, and callers read is_real.  At
    c = 1/2 exactly the radicand has a pole and PoleAtHalfError is raised.
    """
    c = _real(c, "c")
    if c == 0.5:
        raise PoleAtHalfError("optimal parameters undefined at c = 1/2")
    if 0.0 < c < 0.5:
        return AOESolution(math.nan, math.nan, branch, False)
    if c == 0.0:
        # Degenerate hyperbola: the unique bias-free minimum is the center.
        return AOESolution(0.5, 0.5, branch, True)
    # c / (2c - 1) halved exactly from c / (c - 1/2), which cannot overflow.
    u = math.sqrt(c / (c - 0.5) / 2.0)
    if branch is Branch.PLUS_PLUS:
        u = -u
    v = c / u
    if not math.isfinite(v):
        raise InvalidInputError(f"optimal beta overflows double precision for c = {c!r}")
    return AOESolution((1.0 - u) / 2.0, (1.0 - v) / 2.0, branch, True)


def dominates(over: Baseline, alpha: float, beta: float, c: float) -> bool:
    """Whether the family member at (alpha, beta) has strictly smaller
    first-order MSE than a classical baseline, for a population with moment
    ratio c.  Each predicate is the exact sign condition of the difference
    mse1(baseline) - mse1(alpha, beta):

        product:     (1 + g) * (c - g)     > 0
        ratio:       g * (c - 1 - g)       > 0
        sample mean: u*v * (2c - u*v)      > 0

    with g = 2*alpha*beta - alpha - beta = (u*v - 1)/2.  Given numpy arrays,
    returns the boolean array of the broadcast predicate.
    """
    alpha, beta = _real_or_array(alpha, "alpha"), _real_or_array(beta, "beta")
    c = _real_or_array(c, "c")
    g = 2.0 * alpha * beta - alpha - beta
    match over:
        case Baseline.PRODUCT:
            return (1.0 + g) * (c - g) > 0.0
        case Baseline.RATIO:
            return g * (c - 1.0 - g) > 0.0
        case Baseline.SAMPLE_MEAN:
            w = (1.0 - 2.0 * alpha) * (1.0 - 2.0 * beta)
            return w * (2.0 * c - w) > 0.0
        case _:
            raise InvalidInputError(f"unknown baseline {over!r}")


def relative_efficiency(
    spec_num: EstimatorSpec, spec_den: EstimatorSpec, st: SummaryStats
) -> float:
    """mse1(spec_num) / mse1(spec_den); > 1 means spec_den is the better one.
    Their fpc * Ybar^2 cancels: one ratio of _mse1_factor per population."""
    num, den = (_mse1_factor(_checked(s).coefficients()[0], st) for s in (spec_num, spec_den))
    if den <= 0.0:
        raise InvalidInputError("denominator first-order MSE is zero (perfect correlation)")
    return num / den


def _axis(bounds: tuple[float, float, float], what: str) -> tuple[float, float, int]:
    """(start, step, count) of an inclusive 'start:stop:step' range."""
    try:
        start, stop, step = bounds
    except (TypeError, ValueError):
        raise InvalidInputError(f"{what} range needs start, stop and step") from None
    start, stop = _real(start, f"{what} start"), _real(stop, f"{what} stop")
    step = _real(step, f"{what} step")
    if step <= 0.0 or stop < start:
        raise InvalidInputError(f"{what} needs stop >= start and step > 0")
    span = stop - start
    # A span past the largest double is counted from its finite half.
    span = span / step if math.isfinite(span) else (stop / 2 - start / 2) / step * 2
    span += 1e-9
    if not span < _GRID_BUDGET:
        raise TooLargeError(f"{what} range exceeds the {_GRID_BUDGET} row budget")
    return start, step, int(math.floor(span)) + 1


def _axis_values(start: float, step: float, count: int) -> np.ndarray:
    """start + i*step for i < count; where that overflows although the
    value itself is a double, 2*(start/2 + i*(step/2)) instead."""
    i = np.arange(count, dtype=float)
    with np.errstate(over="ignore"):
        values = start + i * step
    over = np.isinf(values)
    values[over] = 2.0 * (start / 2 + i[over] * (step / 2))
    return values


# The region indicator's values: row codes 0 and 1 select them.
_INDICATOR = np.array([0, 1])


@dataclass(frozen=True)
class _Surface:
    """A checked surface grid, evaluated a block of rows at a time.

    The grid is a C-ordered array of this shape: (alphas, betas, cs) for
    DOMINANCE, (alphas, cs, 2 roots) for BIAS_FREE and (off-pole alphas,
    cs) for AOE.  A node is a point of every axis but the last, and its
    rows run along the last axis.  columns holds, per output column, the
    values the column takes (the indicator's are 0 and 1), or None for
    beta where each row computes its own; names holds the columns' names.
    """

    kind: SurfaceKind
    shape: tuple[int, ...]
    columns: tuple[np.ndarray | None, ...]

    @property
    def rows(self) -> int:
        return math.prod(self.shape)

    @property
    def names(self) -> tuple[str, ...]:
        return ("alpha", "beta", "c", "indicator")[:len(self.columns)]

    def block(self, start: int, stop: int) -> list[np.ndarray]:
        """Rows [start, stop): per column, each row's index into the
        column's values, or the row's computed beta where it has none.

        Each node the block reaches is evaluated once, broadcast along the
        part of the last axis it reaches: [lo, hi) inside one node, else
        the whole axis, with the rows cut from the flattened nodes.  So a
        block evaluates fewer than three times its rows."""
        *nodes, last = self.shape
        first, lo = divmod(start, last)
        hi = lo + stop - start
        if hi > last > stop - start:
            # Two nodes of an axis longer than the block: one at a time,
            # so that neither evaluates the whole axis.
            split = start - lo + last
            return [
                np.concatenate(pair)
                for pair in zip(self.block(start, split), self.block(split, stop))
            ]
        lo, hi, rows = (lo, hi, slice(None)) if hi <= last else (0, last, slice(lo, hi))
        node = np.unravel_index(np.arange(first, -(-stop // last)), nodes)
        along = np.arange(lo, hi)
        index = [np.repeat(i, len(along))[rows] for i in node]
        index.append(np.tile(along, len(node[0]))[rows])
        alphas, betas, cs = self.columns[:3]
        # Huge axis values overflow to inf and nan exactly as Python floats do.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind is SurfaceKind.DOMINANCE:
                a, b, c = alphas[node[0], None], betas[node[1], None], cs[lo:hi]
                flag = (
                    dominates(Baseline.SAMPLE_MEAN, a, b, c)
                    & dominates(Baseline.RATIO, a, b, c)
                    & dominates(Baseline.PRODUCT, a, b, c)
                )
                return [*index, flag.ravel()[rows].astype(np.intp)]
            if self.kind is SurfaceKind.BIAS_FREE:
                trivial, sheet = biasfree_betas(alphas[node[0]], cs[node[1]])
                beta = np.where(along == 0, trivial, sheet[:, None])
            else:
                beta = (1.0 - cs[lo:hi] / (1.0 - 2.0 * alphas[node[0], None])) / 2.0
            return [index[0], beta.ravel()[rows], index[1]]


def _surface(
    kind: SurfaceKind,
    alpha_range: tuple[float, float, float],
    c_range: tuple[float, float, float],
    beta_range: tuple[float, float, float] | None = None,
) -> _Surface:
    """The grid surface_grid tabulates, with every range and the row budget
    checked; no row is evaluated yet.  A beta range is given if and only if
    the kind is DOMINANCE: BIAS_FREE and AOE compute each row's beta."""
    if not isinstance(kind, SurfaceKind):
        raise InvalidInputError(f"unknown surface kind {kind!r}")
    if (beta_range is None) == (kind is SurfaceKind.DOMINANCE):
        raise InvalidInputError(
            "the region surface needs a beta range" if beta_range is None
            else f"the {kind.value} surface computes its beta and takes no beta range"
        )
    axes = [_axis(alpha_range, "alpha"), _axis(c_range, "c")]
    if kind is SurfaceKind.DOMINANCE:
        axes.append(_axis(beta_range, "beta"))
    rows_wanted = math.prod(count for _, _, count in axes)
    if kind is SurfaceKind.BIAS_FREE:
        rows_wanted *= 2
    if rows_wanted > _GRID_BUDGET:
        raise TooLargeError(
            f"surface of {rows_wanted} rows exceeds the {_GRID_BUDGET} row budget"
        )
    alphas, cs, *betas = (_axis_values(*axis) for axis in axes)
    if kind is SurfaceKind.DOMINANCE:
        (betas,) = betas
        shape = (len(alphas), len(betas), len(cs))
        return _Surface(kind, shape, (alphas, betas, cs, _INDICATOR))
    if kind is SurfaceKind.BIAS_FREE:
        return _Surface(kind, (len(alphas), len(cs), 2), (alphas, None, cs))
    # AOE: no hyperbola point at the alpha = 1/2 pole.  1 - 2 * alpha is
    # -inf for a huge alpha, which is kept.
    with np.errstate(over="ignore"):
        alphas = alphas[np.abs(1.0 - 2.0 * alphas) >= 1e-12]
    return _Surface(kind, (len(alphas), len(cs)), (alphas, None, cs))


def surface_grid(
    kind: SurfaceKind,
    alpha_range: tuple[float, float, float],
    c_range: tuple[float, float, float],
    beta_range: tuple[float, float, float] | None = None,
) -> np.ndarray:
    """Tabulate one of the three parameter-space surfaces.

    Returns a float64 array with one row per grid point: columns
    (alpha, beta, c), plus an indicator column of 0.0/1.0 for DOMINANCE.
    Rows run in nested-loop order, alpha slowest and c fastest.

    BIAS_FREE emits, per (alpha, c) node, both beta roots of bias1 = 0 as
    rows (alpha, beta, c).  AOE emits the hyperbola point
    beta = (1 - c/(1 - 2*alpha)) / 2 per node, skipping the alpha = 1/2
    pole.  DOMINANCE walks (alpha, beta, c) nodes and appends an indicator
    that the family member beats all three classical baselines at once; it
    alone takes beta_range, and any other kind given one raises
    InvalidInputError.  Grids of more than _GRID_BUDGET rows raise
    TooLargeError before any row is built.
    """
    grid = _surface(kind, alpha_range, c_range, beta_range)
    block = grid.block(0, grid.rows)
    return np.column_stack([
        column if values is None else values[column]
        for values, column in zip(grid.columns, block)
    ])
