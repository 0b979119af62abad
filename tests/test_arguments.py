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
from rpratio.simulation import exhaustive_oracle

POP = Population(y=[1.0, 2.0, 4.0, 3.0], x=[2.0, 3.0, 5.0, 4.0])

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
}
BAD_VALUES = ["0.5", None, True, 1j, math.nan]


def _cases():
    for entry, (_, _, names) in ENTRY_POINTS.items():
        for name in names:
            for bad in BAD_VALUES:
                # A bool is an int to operator.index, so n=True reads as the
                # valid size 1; test_a_bool_size_reads_as_one pins that.
                if (entry, name, bad) != ("SamplingDesign", "n", True):
                    yield pytest.param(entry, name, bad, id=f"{entry}-{name}-{bad!r}")


@pytest.mark.parametrize("entry, name, bad", _cases())
def test_a_bad_argument_raises_an_estimation_error(entry, name, bad):
    func, kwargs, _ = ENTRY_POINTS[entry]
    with pytest.raises(EstimationError):
        func(**{**kwargs, name: bad})


def test_a_bool_size_reads_as_one():
    assert SamplingDesign(n=True, N=100) == SamplingDesign(n=1, N=100)
