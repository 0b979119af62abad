"""Shared fixtures.

The benchmark moments below (a daily water-quality-style series with a
strongly correlated auxiliary variable) recur throughout the suite; many
pinned expectations were derived from them with an independent
high-precision scalar script before the package was written.
"""
import numpy as np
import pytest

from rpratio.population import Population, SummaryStats
from rpratio.sampling import SamplingDesign

BENCH_MEAN_Y = 0.5832
BENCH_MEAN_X = 0.6277
BENCH_SD_Y = 0.4480
BENCH_SD_X = 0.7222
BENCH_R = 0.9125
# r * cv_y / cv_x computed from the four-decimal moments above.
BENCH_C = 0.6092394485832234


@pytest.fixture(scope="session")
def bench_stats() -> SummaryStats:
    return SummaryStats.from_moments(
        mean_y=BENCH_MEAN_Y,
        mean_x=BENCH_MEAN_X,
        sd_y=BENCH_SD_Y,
        sd_x=BENCH_SD_X,
        r=BENCH_R,
    )


@pytest.fixture(scope="session")
def bench_design():
    return SamplingDesign(112, 365)


@pytest.fixture(scope="session")
def tiny_pop() -> Population:
    """N=6 population for enumeration-vs-Monte-Carlo agreement."""
    return Population(
        y=np.array([1.2, 2.1, 2.9, 4.3, 5.0, 6.1]),
        x=np.array([2.0, 3.1, 4.2, 4.9, 6.2, 7.0]),
    )


@pytest.fixture(scope="session")
def low_cv_pop() -> Population:
    """N=8 population tuned to keep the auxiliary deviations small enough
    that the first-order expansion tracks the exact design moments;
    summarize gives r ~ 0.7496 and c ~ 0.51346."""
    return Population(
        y=np.array([1.07, 1.00, 1.13, 1.06, 1.19, 1.12, 1.25, 1.18]),
        x=np.array([0.51, 0.53, 0.55, 0.58, 0.61, 0.63, 0.65, 0.69]),
    )
