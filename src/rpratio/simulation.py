"""Deterministic Monte Carlo comparison of estimators plus an exact oracle.

run_simulation draws SRSWOR replications with one PRNG stream per
replication, so the output is a pure function of (population, config).  It
opens no file: the result carries the per-replication estimate matrix, and
write_estimates_csv turns a result into the per-replication CSV dump.
exhaustive_oracle trades randomness for enumeration: it walks every one of
the C(N, n) subsets and returns exact design moments, which is what the
Monte Carlo results are tested against on small populations.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, SingularDenominatorError, TooLargeError
from .estimators import EstimatorSpec, Product, Ratio, SampleMean, estimator_token
from .population import Population, format_csv_rows, make_design
from .sampling import confidence_interval, quartiles, srswor

__all__ = [
    "SimConfig",
    "EstimatorReport",
    "RankingTable",
    "SimResult",
    "ExactMoments",
    "run_simulation",
    "exhaustive_oracle",
    "write_estimates_csv",
]

PRNG_NAME = "splitmix64"
_ENUMERATION_BUDGET = 1_000_000
_GATHER_BYTES = 256 * 1024
# Most rows one dump chunk formats.  A chunk's table and cell strings are
# what the dump adds to peak RSS.  For 20 000 replications of nine
# estimators (180 000 rows) the process peaked at 91.4 MB with all rows in
# one chunk and 49.4 MB with 2^15-row chunks; 4096 rows keep it at the
# 42.8 MB of a per-row writer.
_DUMP_CHUNK_ROWS = 4096
# Most replications one run holds estimates for; the benchmark runs 20 000.
_REPS_BUDGET = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    reps: int
    n: int
    seed: int
    confidence: float = 0.90
    estimators: tuple[EstimatorSpec, ...] = (SampleMean(), Ratio(), Product())

    def __post_init__(self):
        if self.reps < 1:
            raise InvalidInputError(f"reps must be at least 1, got {self.reps}")
        if self.reps > _REPS_BUDGET:
            raise TooLargeError(
                f"{self.reps} replications exceed the {_REPS_BUDGET} replication budget"
            )
        if not self.estimators:
            raise InvalidInputError("estimator list must not be empty")
        labels = [estimator_token(s) for s in self.estimators]
        if len(set(labels)) != len(labels):
            raise InvalidInputError(f"duplicate estimators in {labels}")


@dataclass(frozen=True)
class EstimatorReport:
    """Aggregates over the non-singular replications of one estimator.

    coverage, neg_bias_rate and pos_bias_rate partition those replications
    by the fixed-width interval around the true mean.  Moment-shape fields
    are None when they are undefined (no spread, or no valid draws)."""

    label: str
    coverage: float
    neg_bias_rate: float
    pos_bias_rate: float
    q1: float | None
    median: float | None
    q3: float | None
    mse_empirical: float | None
    re_vs_sample_mean: float | None
    skewness: float | None
    kurtosis: float | None
    singular_count: int


@dataclass(frozen=True)
class RankingTable:
    """How often each closeness ordering (best first) occurred.

    Orders are tuples of estimator labels; ties in |estimate - Ybar| keep
    the configured estimator order.  Replications where any estimator was
    singular are excluded and counted instead."""

    counts: dict[tuple[str, ...], int]
    excluded_draws: int


@dataclass(frozen=True)
class SimResult:
    reports: tuple[EstimatorReport, ...]
    ranking: RankingTable
    meta: dict = field(default_factory=dict)
    # Volatile by nature, so kept out of meta: the serialized report must be
    # byte-identical across reruns.
    wall_time_s: float = 0.0
    # (reps, k) estimates, nan where singular, and the singular mask.
    estimates: np.ndarray | None = field(default=None, compare=False)
    singular: np.ndarray | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ExactMoments:
    expectation: float
    bias: float
    mse: float


def _shape(devs: np.ndarray) -> tuple[float | None, float | None]:
    m2 = float(np.mean(devs * devs))
    if m2 == 0.0:
        return None, None
    m3 = float(np.mean(devs**3))
    m4 = float(np.mean(devs**4))
    try:
        return m3 / m2**1.5, m4 / (m2 * m2)
    except OverflowError:  # m2**1.5 beyond double range
        return math.nan, math.nan


def run_simulation(pop: Population, cfg: SimConfig) -> SimResult:
    """Compare the configured estimators over cfg.reps SRSWOR replications.

    Per replication r the indices come from stream r of the seeded
    generator; every estimator sees the same draw.  The sample means are
    gathered block by block, and each estimator is then evaluated once over
    the arrays of all replications.  The plain sample mean is always the
    efficiency baseline, whether or not it appears in cfg.estimators.
    Raises InvalidInputError naming an estimator whose non-singular
    estimates, or the moments of their deviations, overflow a double.
    """
    started = time.perf_counter()
    N = pop.size
    make_design(cfg.n, N)
    # Moments are computed directly rather than through summarize() so that
    # degenerate populations (constant y) still simulate; the interval width
    # is then simply zero.
    true_mean = float(pop.y.mean())
    mean_x = float(pop.x.mean())
    dy = pop.y - true_mean
    sd_y = math.sqrt(float(dy @ dy) / (N - 1))
    ci = confidence_interval(true_mean, sd_y, cfg.n, N, cfg.confidence)
    half_width = ci.half_width

    specs = cfg.estimators
    labels = [estimator_token(s) for s in specs]
    reps = cfg.reps
    base = np.empty(reps)
    xbars = np.empty(reps)

    # Replications per gather: their int64 indices fill _GATHER_BYTES.
    block = max(1, _GATHER_BYTES // (8 * cfg.n))
    for first in range(0, reps, block):
        rows = range(first, min(first + block, reps))
        idx = np.array([srswor(N, cfg.n, cfg.seed, stream=rep) for rep in rows])
        # Row means reduce along contiguous rows, so each equals the
        # per-draw pop.y[idx[r]].mean() bit for bit.
        base[rows.start:rows.stop] = pop.y[idx].mean(axis=1)
        xbars[rows.start:rows.stop] = pop.x[idx].mean(axis=1)

    est = np.empty((reps, len(specs)))
    singular = np.empty((reps, len(specs)), dtype=bool)
    for j, spec in enumerate(specs):
        est[:, j], singular[:, j] = spec.evaluate(base, xbars, mean_x)
    base_mse = float(np.mean((base - true_mean) ** 2))

    reports = []
    for j, label in enumerate(labels):
        vals = est[~singular[:, j], j]
        n_singular = reps - vals.size
        if vals.size == 0:  # zero rates; every moment-shape field undefined
            reports.append(EstimatorReport(label, 0.0, 0.0, 0.0, *[None] * 7, n_singular))
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            devs = vals - true_mean
            mse = float(np.mean(devs * devs))
            skew, kurt = _shape(devs - devs.mean())
        re = base_mse / mse if mse > 0.0 else None
        if not all(math.isfinite(v) for v in (mse, re, skew, kurt) if v is not None):
            raise InvalidInputError(
                f"estimator {label}: its estimates or their moments overflow double precision"
            )
        coverage = float(np.mean(np.abs(devs) <= half_width))
        neg = float(np.mean(vals < true_mean - half_width))
        pos = float(np.mean(vals > true_mean + half_width))
        q1, med, q3 = quartiles(vals)
        reports.append(EstimatorReport(
            label, coverage, neg, pos, q1, med, q3, mse, re, skew, kurt, n_singular
        ))

    clean = ~singular.any(axis=1)
    order = np.argsort(np.abs(est - true_mean), axis=1, kind="stable")
    orders, counts = np.unique(order[clean], axis=0, return_counts=True)
    ranking = RankingTable(
        counts={
            tuple(labels[j] for j in row): count
            for row, count in zip(orders.tolist(), counts.tolist())
        },
        excluded_draws=reps - int(clean.sum()),
    )

    meta = {
        "prng": PRNG_NAME,
        "seed": cfg.seed,
        "reps": reps,
        "n": cfg.n,
        "population_size": N,
        "confidence": cfg.confidence,
        "half_width": half_width,
        "true_mean_y": true_mean,
        "estimators": labels,
    }
    return SimResult(
        tuple(reports), ranking, meta, time.perf_counter() - started, est, singular
    )


def write_estimates_csv(path, result: SimResult) -> None:
    """One row per (replication, estimator) of a result; singular draws
    carry nan.

    The rows are written a chunk of replications at a time, each chunk as a
    float table of rep, estimator index, estimate and covered that
    format_csv_rows turns into text."""
    labels = result.meta["estimators"]
    true_mean, half_width = result.meta["true_mean_y"], result.meta["half_width"]
    est, singular = result.estimates, result.singular
    k = len(labels)
    formats = [_int_text, lambda j: labels[int(j)], repr, _int_text]
    chunk = max(1, _DUMP_CHUNK_ROWS // k)
    with open(path, "w", newline="") as fh:
        fh.write("rep,estimator,estimate,covered\n")
        for first in range(0, est.shape[0], chunk):
            stop = min(first + chunk, est.shape[0])
            table = np.empty((stop - first, k, 4))
            table[:, :, 0] = np.arange(first, stop)[:, None]
            table[:, :, 1] = np.arange(k)
            table[:, :, 2] = np.where(singular[first:stop], np.nan, est[first:stop])
            with np.errstate(over="ignore"):
                table[:, :, 3] = np.abs(table[:, :, 2] - true_mean) <= half_width
            fh.write(format_csv_rows(table.reshape(-1, 4), formats))


def _int_text(value: float) -> str:
    return str(int(value))


def _subset_means(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Means of values over each row of idx, summed one column at a time
    from zero, which is the order of Python's sum() over each subset."""
    total = np.zeros(len(idx))
    for column in idx.T:
        total += values[column]
    return total / idx.shape[1]


def exhaustive_oracle(pop: Population, n: int, spec: EstimatorSpec) -> ExactMoments:
    """Exact design expectation, bias and MSE by enumerating all C(N, n)
    subsets with equal weight.  Refuses budgets beyond 10^6 subsets."""
    N = pop.size
    make_design(n, N)
    total = math.comb(N, n)
    if total > _ENUMERATION_BUDGET:
        raise TooLargeError(
            f"C({N}, {n}) = {total} subsets exceeds the {_ENUMERATION_BUDGET} budget"
        )
    Xbar = float(pop.x.mean())
    Ybar = float(pop.y.mean())
    subsets = itertools.combinations(range(N), n)
    chunk = max(1, _GATHER_BYTES // (8 * n))
    values: list[float] = []
    while block := list(itertools.islice(subsets, chunk)):
        idx = np.array(block)
        ybar, xbar = _subset_means(pop.y, idx), _subset_means(pop.x, idx)
        est, singular = spec.evaluate(ybar, xbar, Xbar)
        if singular.any():
            subset = block[int(np.argmax(singular))]
            raise SingularDenominatorError(
                f"{estimator_token(spec)} is singular on the subset of units {subset}"
            )
        values += est.tolist()
    expectation = math.fsum(values) / total
    mse = math.fsum((v - Ybar) ** 2 for v in values) / total
    return ExactMoments(expectation=expectation, bias=expectation - Ybar, mse=mse)
