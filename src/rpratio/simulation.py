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
from .population import Population, _column_moments, write_csv
from .sampling import _BLOCK_BYTES, SamplingDesign, _integer, confidence_interval, quartiles, srswor

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
# Most replications one run holds estimates for; the benchmark runs 20 000.
# A run holds the (reps, k) estimate matrix, the two sample-mean arrays and
# the ranking's one-byte codes, and otherwise only per-column and per-block
# temporaries: its traced peak is ~2.30 times the matrix (50 000 reps of
# all nine kinds, at the rpr kind's evaluation).
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
    counted instead.  The orders are ranked a block of replications at a
    time and tallied as small unsigned codes of those positions."""

    counts: dict[tuple[str, ...], int]
    excluded_draws: int


@dataclass(frozen=True)
class SimResult:
    reports: tuple[EstimatorReport, ...]
    ranking: RankingTable
    meta: dict = field(default_factory=dict)
    # Volatile by nature, so kept out of meta and out of equality: the
    # serialized report must be byte-identical across reruns.
    wall_time_s: float = field(default=0.0, compare=False)
    # (reps, k) estimates, nan exactly where a draw was singular.
    estimates: np.ndarray | None = field(default=None, compare=False)


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


def _sample_means(pop: Population, samples, count: int, n: int):
    """The y and x means of the count size-n index samples that the iterator
    samples yields, gathered in blocks whose int64 indices fill _BLOCK_BYTES.
    Row means reduce along contiguous rows, so each is pop.y[sample].mean() to the bit."""
    ybar, xbar = np.empty(count), np.empty(count)
    block = max(1, _BLOCK_BYTES // (8 * n))
    for first in range(0, count, block):
        idx = np.array(list(itertools.islice(samples, block)))
        ybar[first:first + len(idx)] = pop.y[idx].mean(axis=1)
        xbar[first:first + len(idx)] = pop.x[idx].mean(axis=1)
    return ybar, xbar


def _require_double(label: str, devs: np.ndarray, mse: float, *others: float | None) -> None:
    """Raise InvalidInputError naming estimator label when mse or one of the
    others (None skipped), in that order, is not finite or is nonzero but
    below the smallest normal double, where fewer than 53 bits remain; or
    when mse is 0.0 although devs, nonzero where an estimate misses the
    true mean, is not all zero, because every square underflowed."""
    underflow = False
    for v in (mse, *others):
        if v is None:
            continue
        if not math.isfinite(v):
            raise InvalidInputError(
                f"estimator {label}: its estimates or their moments overflow double precision"
            )
        if 0.0 < abs(v) < sys.float_info.min:
            underflow = True
            break
    if underflow or (mse == 0.0 and devs.any()):
        raise InvalidInputError(
            f"estimator {label}: the moments of its deviations underflow double precision"
        )


def run_simulation(pop: Population, cfg: SimConfig) -> SimResult:
    """Compare the configured estimators over cfg.reps SRSWOR replications.

    Per replication r the indices come from stream r of the seeded
    generator; every estimator sees the same draw.  The sample means are
    gathered block by block.  Each estimator in turn is then evaluated once
    over the arrays of all replications, into its column of the estimate
    matrix, and summarized.  The plain sample mean is always the efficiency
    baseline, whether or not it appears in cfg.estimators.
    Raises InvalidInputError naming an estimator whose non-singular
    estimates, or the moments of their deviations, overflow a double, or
    whose moments underflow one, an MSE of 0.0 from nonzero deviations
    included.
    """
    started = time.perf_counter()
    N = pop.size
    # Not summarize(): a constant y still simulates, with a zero-width interval.
    true_mean, _, var_y = _column_moments(pop.y, "y")
    mean_x = _column_moments(pop.x, "x")[0]
    ci = confidence_interval(true_mean, math.sqrt(var_y), cfg.n, N, cfg.confidence)
    half_width = ci.half_width

    specs = cfg.estimators
    labels = [estimator_token(s) for s in specs]
    reps = cfg.reps
    draws = (srswor(N, cfg.n, cfg.seed, stream=rep) for rep in range(reps))
    base, xbars = _sample_means(pop, draws, reps, cfg.n)

    est = np.empty((reps, len(specs)))
    base_mse = float(np.mean((base - true_mean) ** 2))
    reports = []
    for j, (spec, label) in enumerate(zip(specs, labels)):
        est[:, j], singular = spec.evaluate(base, xbars, mean_x)
        vals = est[~singular, j]
        n_singular = reps - vals.size
        if vals.size == 0:  # zero rates; every moment-shape field undefined
            reports.append(EstimatorReport(label, 0.0, 0.0, 0.0, *[None] * 7, n_singular))
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            devs = vals - true_mean
            mse = float(np.mean(devs * devs))
            skew, kurt = _shape(devs - devs.mean())
        re = base_mse / mse if mse > 0.0 else None
        _require_double(label, devs, mse, re, skew, kurt)
        coverage = float(np.mean(np.abs(devs) <= half_width))
        neg = float(np.mean(devs < -half_width))
        pos = float(np.mean(devs > half_width))
        q1, med, q3 = quartiles(vals)
        reports.append(EstimatorReport(
            label, coverage, neg, pos, q1, med, q3, mse, re, skew, kurt, n_singular
        ))

    orders = _closeness_orders(est, true_mean)
    counts = {tuple(labels[j] for j in row): count for row, count in _count_rows(orders).items()}
    ranking = RankingTable(counts, excluded_draws=reps - len(orders))

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
    return SimResult(tuple(reports), ranking, meta, time.perf_counter() - started, est)


def _closeness_orders(est: np.ndarray, true_mean: float) -> np.ndarray:
    """The estimator positions of each row of est that holds no nan (no
    singular draw), closest to true_mean first with ties in column order:
    the rows of np.argsort(np.abs(est - true_mean), axis=1, kind="stable")
    without a nan.  They are ranked in blocks of rows whose floats fill
    _BLOCK_BYTES and held as the smallest unsigned codes that fit (uint8 up
    to 256 estimators), so no temporary spans every replication."""
    k = est.shape[1]
    orders = np.empty(est.shape, dtype=np.min_scalar_type(k - 1))
    block = max(1, _BLOCK_BYTES // (8 * k))
    done = 0
    for first in range(0, len(est), block):
        rows = est[first:first + block]
        rows = rows[~np.isnan(rows).any(axis=1)]
        orders[done:done + len(rows)] = np.argsort(np.abs(rows - true_mean), axis=1, kind="stable")
        done += len(rows)
    return orders[:done]


def _count_rows(rows: np.ndarray) -> dict[tuple[int, ...], int]:
    """How often each distinct row of a 2-D integer array (the ranking
    passes uint8 or uint16 codes) occurs, keyed by the row as a tuple of
    ints and in lexicographic order of the rows, as
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
    """One row per (replication, estimator) of a result, written by
    write_csv with each estimate as the result holds it, so singular draws
    read nan, 0.  InvalidInputError, before the file is opened, when the
    result holds no estimates."""
    if result.estimates is None:
        raise InvalidInputError("the result holds no per-replication estimates to write")
    labels = result.meta["estimators"]
    true_mean, half_width = result.meta["true_mean_y"], result.meta["half_width"]
    k = len(labels)
    est = result.estimates.reshape(-1)

    def block(start, stop):
        rep, j = np.divmod(np.arange(start, stop), k)
        estimate = est[start:stop]
        with np.errstate(over="ignore"):
            covered = np.abs(estimate - true_mean) <= half_width
        return [rep, j, estimate, covered.astype(np.intp)]

    columns = [None, labels, None, [0, 1]]
    with open(path, "w", newline="") as fh:
        write_csv(fh, "rep,estimator,estimate,covered", len(est), columns, block)


def exhaustive_oracle(pop: Population, n: int, spec: EstimatorSpec) -> ExactMoments:
    """Exact design expectation, bias and MSE by enumerating all C(N, n)
    subsets with equal weight, their means gathered as run_simulation's are.
    Refuses budgets beyond 10^6 subsets, whose estimates it holds (~40 MB),
    and raises InvalidInputError naming the estimator when a moment is beyond
    double precision, as run_simulation does."""
    label = estimator_token(spec)
    N = pop.size
    SamplingDesign(n, N)
    total = math.comb(N, n)
    if total > _ENUMERATION_BUDGET:
        raise TooLargeError(
            f"C({N}, {n}) = {total} subsets exceeds the {_ENUMERATION_BUDGET} budget"
        )
    Ybar, Xbar = _column_moments(pop.y, "y")[0], _column_moments(pop.x, "x")[0]
    subsets = itertools.combinations(range(N), n)
    est, singular = spec.evaluate(*_sample_means(pop, subsets, total, n), Xbar)
    if singular.any():
        first = int(np.argmax(singular))
        subset = next(itertools.islice(itertools.combinations(range(N), n), first, None))
        raise SingularDenominatorError(
            f"{label} is singular on the subset of units {subset}"
        )
    try:
        expectation = math.fsum(map(float, est)) / total
        mse = math.fsum((v - Ybar) ** 2 for v in map(float, est)) / total
    except (OverflowError, ValueError):  # a sum or square overflowed, or inf - inf
        expectation = mse = math.nan
    bias = expectation - Ybar
    _require_double(label, est != Ybar, mse, expectation, bias)
    return ExactMoments(expectation=expectation, bias=bias, mse=mse)
