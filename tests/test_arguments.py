"""Every public entry point that takes a real scalar, a size or a spec refuses
a value of the wrong kind with an EstimationError, never a bare TypeError,
ValueError, AttributeError or ZeroDivisionError.

The estimator kinds' fields and MomentTargets' fields are swept, with exact
messages, in tests/test_estimators.py and tests/test_synthetic.py."""
import math

import pytest

from rpratio.errors import EstimationError
from rpratio.estimators import SampleSummary
from rpratio.population import Population, SamplingDesign, SummaryStats
from rpratio.sampling import confidence_interval, plan_sample_size
from rpratio.simulation import SimConfig, exhaustive_oracle
from rpratio.theory import (
    Baseline,
    SurfaceKind,
    aoe_bias1,
    aoe_parameters,
    biasfree_betas,
    dominates,
    mse1_grad,
    surface_grid,
)

POP = Population(y=[1.0, 2.0, 4.0, 3.0], x=[2.0, 3.0, 5.0, 4.0])
ST = SummaryStats.from_moments(mean_y=2.0, mean_x=4.0, sd_y=1.0, sd_x=2.0, r=0.5)
DESIGN = SamplingDesign(n=10, N=100)


def _alpha_axis(start, stop, step):
    """surface_grid over the alpha range (start, stop, step)."""
    return surface_grid(SurfaceKind.AOE, (start, stop, step), (0.0, 1.0, 0.5))


# (callable, its valid keyword arguments, the arguments swept); each case
# replaces one swept argument.
ENTRY_POINTS = {
    "from_moments": (
        SummaryStats.from_moments,
        dict(mean_y=2.0, mean_x=4.0, sd_y=1.0, sd_x=2.0, r=0.5),
        ["mean_y", "mean_x", "sd_y", "sd_x", "r"],
    ),
    "SampleSummary": (
        SampleSummary, dict(ybar=1.0, xbar=1.0, Xbar=1.0), ["ybar", "xbar", "Xbar"],
    ),
    "plan_sample_size": (
        plan_sample_size,
        dict(sigma2=1.0, margin=0.1, confidence=0.9, N=100),
        ["sigma2", "margin", "confidence"],
    ),
    "confidence_interval": (
        confidence_interval,
        dict(point=1.0, sd_y=0.5, n=10, N=100, confidence=0.95),
        ["point", "sd_y", "confidence"],
    ),
    "SamplingDesign": (SamplingDesign, dict(n=10, N=100), ["n", "N"]),
    "Population": (Population, dict(y=[1.0, 2.0], x=[2.0, 1.0]), ["y", "x"]),
    "exhaustive_oracle": (exhaustive_oracle, dict(pop=POP, n=2, spec=None), ["spec"]),
    "SimConfig": (SimConfig, dict(reps=10, n=2, seed=1), ["reps", "n", "seed"]),
    "aoe_parameters": (aoe_parameters, dict(c=0.6), ["c"]),
    "aoe_bias1": (aoe_bias1, dict(beta=0.3, c=0.6, st=ST, d=DESIGN), ["beta", "c"]),
    "mse1_grad": (mse1_grad, dict(alpha=0.2, beta=0.3, st=ST, d=DESIGN), ["alpha", "beta"]),
    "dominates": (
        dominates, dict(over=Baseline.RATIO, alpha=0.2, beta=0.3, c=0.6),
        ["alpha", "beta", "c"],
    ),
    "biasfree_betas": (biasfree_betas, dict(alpha=0.2, c=0.6), ["alpha", "c"]),
    "surface_grid": (
        _alpha_axis, dict(start=0.0, stop=1.0, step=0.5), ["start", "stop", "step"],
    ),
}
BAD_VALUES = ["0.5", None, True, 1j, math.nan]


def _cases():
    for entry, (_, _, names) in ENTRY_POINTS.items():
        for name in names:
            for bad in BAD_VALUES:
                yield pytest.param(entry, name, bad, id=f"{entry}-{name}-{bad!r}")


@pytest.mark.parametrize("entry, name, bad", _cases())
def test_a_bad_argument_raises_an_estimation_error(entry, name, bad):
    func, kwargs, _ = ENTRY_POINTS[entry]
    with pytest.raises(EstimationError):
        func(**{**kwargs, name: bad})


def test_a_bool_size_is_refused():
    with pytest.raises(EstimationError, match="^n must be an integer, got True$"):
        SamplingDesign(n=True, N=100)


def test_bool_and_string_cells_are_refused():
    with pytest.raises(EstimationError, match="^population values must be real numbers$"):
        Population(y=["1", "2"], x=[True, False])


@pytest.mark.parametrize(
    "bounds, message",
    [
        ((0, 1), "alpha range needs start, stop and step"),
        ((0, 1, 0.5, 2), "alpha range needs start, stop and step"),
        (None, "alpha range needs start, stop and step"),
        ((0, "a", 1), "alpha stop must be a real number, got 'a'"),
        ((0, 1, None), "alpha step must be a real number, got None"),
        (("0", 1, 0.5), "alpha start must be a real number, got '0'"),
        ((0, 1, math.inf), "alpha step must be finite, got inf"),
    ],
    ids=repr,
)
def test_malformed_grid_bounds_name_the_axis_and_part(bounds, message):
    with pytest.raises(EstimationError) as err:
        surface_grid(SurfaceKind.AOE, bounds, (0.0, 1.0, 0.5))
    assert str(err.value) == message
