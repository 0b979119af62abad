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
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, SingularDenominatorError, TooLargeError
from .estimators import EstimatorSpec, Product, Ratio, SampleMean, estimator_token
from .population import Population, format_csv_rows, make_design
from .sampling import _integer, confidence_interval, quartiles, srswor

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
# estimators (180 000 rows) the process peaked at 91.0 MB with all rows in
# one chunk and 50.7 MB with 2^15-row chunks; 4096 rows keep it at the
# 45.7 MB that run_simulation reaches without a dump.
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
        for name in ("reps", "n", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
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
    the configured estimator order.  The keys come in lexicographic order
    of the orders read as estimator positions in the configuration.
    Replications where any estimator was singular are excluded and
    counted instead."""

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
    """Skewness and kurtosis of centred deviations: None when every
    deviation is 0, nan when their fourth moment overflows a double.

    Both are scale-free, so they are computed on the deviations scaled by
    the power of two 2^-e that brings the largest into [0.5, 1): tiny
    deviations then lose no precision, and where no moment under- or
    overflowed unscaled the scaling is exact and changes no bit."""
    peak = float(np.max(np.abs(devs)))
    if peak == 0.0:
        return None, None
    e = math.frexp(peak)[1]
    devs = np.ldexp(devs, -e)
    m2 = float(np.mean(devs * devs))
    m3 = float(np.mean(devs**3))
    m4 = float(np.mean(devs**4))
    try:
        math.ldexp(m4, 4 * e)
    except OverflowError:
        return math.nan, math.nan
    return m3 / m2**1.5, m4 / (m2 * m2)


def _mean_y(pop: Population) -> float:
    """The population mean of y; on a constant column its value, which the
    summed mean can miss by rounding (ten 0.3s average 0.29999999999999993)."""
    return float(pop.y[0]) if np.ptp(pop.y) == 0.0 else float(pop.y.mean())


def _require_double(label: str, *values: float | None, zero_mse: bool = False) -> None:
    """Raise InvalidInputError naming estimator label when one of the values
    (None skipped) is beyond double precision: not finite, or nonzero but
    below the smallest normal double, where fewer than 53 bits remain.
    zero_mse says that an MSE of 0.0 came from nonzero deviations, whose
    squares all underflowed, and raises the same underflow error."""
    for v in values:
        if v is None:
            continue
        if not math.isfinite(v):
            raise InvalidInputError(
                f"estimator {label}: its estimates or their moments overflow double precision"
            )
        if 0.0 < abs(v) < sys.float_info.min:
            zero_mse = True
            break
    if zero_mse:
        raise InvalidInputError(
            f"estimator {label}: the moments of its deviations underflow double precision"
        )


def run_simulation(pop: Population, cfg: SimConfig) -> SimResult:
    """Compare the configured estimators over cfg.reps SRSWOR replications.

    Per replication r the indices come from stream r of the seeded
    generator; every estimator sees the same draw.  The sample means are
    gathered block by block, and each estimator is then evaluated once over
    the arrays of all replications.  The plain sample mean is always the
    efficiency baseline, whether or not it appears in cfg.estimators.
    Raises InvalidInputError naming an estimator whose non-singular
    estimates, or the moments of their deviations, overflow a double, or
    whose moments underflow one, an MSE of 0.0 from nonzero deviations
    included.
    """
    started = time.perf_counter()
    N = pop.size
    make_design(cfg.n, N)
    # Moments are computed directly rather than through summarize() so that
    # degenerate populations (constant y) still simulate; the interval width
    # is then exactly zero.
    true_mean = _mean_y(pop)
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
        _require_double(label, mse, re, skew, kurt, zero_mse=mse == 0.0 and devs.any())
        coverage = float(np.mean(np.abs(devs) <= half_width))
        neg = float(np.mean(devs < -half_width))
        pos = float(np.mean(devs > half_width))
        q1, med, q3 = quartiles(vals)
        reports.append(EstimatorReport(
            label, coverage, neg, pos, q1, med, q3, mse, re, skew, kurt, n_singular
        ))

    clean = ~singular.any(axis=1)
    order = np.argsort(np.abs(est - true_mean), axis=1, kind="stable")
    ranking = RankingTable(
        counts={
            tuple(labels[j] for j in row): count
            for row, count in _count_rows(order[clean]).items()
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


def _count_rows(rows: np.ndarray) -> dict[tuple[int, ...], int]:
    """How often each distinct row of a 2-D int array occurs, keyed by the
    row as a tuple and in lexicographic order of the rows, as
    np.unique(rows, axis=0, return_counts=True) gives them: the rows are
    sorted by one lexsort, and each run of equal rows starts where a
    sorted row differs from the one before it."""
    rows = rows[np.lexsort(rows.T[::-1])]
    starts = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=starts[1:])
    starts = np.flatnonzero(starts)
    counts = np.diff(starts, append=len(rows))
    return dict(zip(map(tuple, rows[starts].tolist()), counts.tolist()))


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
    subsets with equal weight.  Refuses budgets beyond 10^6 subsets, and
    raises InvalidInputError naming the estimator when a moment is beyond
    double precision, as run_simulation does."""
    N = pop.size
    make_design(n, N)
    total = math.comb(N, n)
    if total > _ENUMERATION_BUDGET:
        raise TooLargeError(
            f"C({N}, {n}) = {total} subsets exceeds the {_ENUMERATION_BUDGET} budget"
        )
    Xbar = float(pop.x.mean())
    Ybar = _mean_y(pop)
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
    try:
        expectation = math.fsum(values) / total
        mse = math.fsum((v - Ybar) ** 2 for v in values) / total
    except (OverflowError, ValueError):  # a sum or square overflowed, or inf - inf
        expectation = mse = math.nan
    bias = expectation - Ybar
    _require_double(
        estimator_token(spec), expectation, bias, mse,
        zero_mse=mse == 0.0 and any(v != Ybar for v in values),
    )
    return ExactMoments(expectation=expectation, bias=bias, mse=mse)
