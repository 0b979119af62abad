"""Sample-size planning, confidence intervals, and reproducible SRSWOR draws.

The normal quantile is computed in-package (rational initial guess plus one
Halley step against math.erfc) so nothing on the numeric path depends on a
statistics library.  Index draws come from a small counter-style generator
with explicit (seed, stream) keying: replication r of a simulation uses
stream r, which makes every draw a pure function of its key and therefore
reproducible bit for bit on any platform or thread schedule.  srswor keys
the stream states directly and computes the swap targets of one stream, or
of a block of streams, as one array against a cached, read-only per-(N, n)
plan of length n.  A stream in which some output may be rejected is drawn
by SplitMix64.below itself.  A call that continues the last run of
streams reads ahead: it draws the next block of streams in lockstep, on a
narrow index matrix with one column per stream, and keeps the samples
for the calls that follow, so consecutive streams cost a
fraction of a lone one, and each call still returns one stream's draw.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    EmptyDataError,
    InvalidDesignError,
    InvalidInputError,
    OutOfRangeError,
)

__all__ = [
    "SamplePlan",
    "ConfidenceInterval",
    "z_quantile",
    "plan_sample_size",
    "confidence_interval",
    "SplitMix64",
    "srswor",
    "quartiles",
]

# Rational approximation for the standard normal quantile (P. Acklam).
# |relative error| < 1.15e-9 on its own; the Halley step below pushes the
# absolute error under 1e-12 across (0, 1).
_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_D = (
    7.784695709041462e-03, 3.224671290700398e-01,
    2.445134137142996e+00, 3.754408661907416e+00,
)
_P_LOW = 0.02425


def _norm_ppf(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        raise OutOfRangeError(f"probability {p!r} outside (0, 1)")
    if p > 0.5:
        # 1 - p is exact for p >= 1/2, and both the erfc residual and the
        # tail polynomial are at their best in the lower half.
        return -_norm_ppf(1.0 - p)
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )
    else:
        q = p - 0.5
        s = q * q
        x = (((((_A[0] * s + _A[1]) * s + _A[2]) * s + _A[3]) * s + _A[4]) * s + _A[5]) * q / (
            ((((_B[0] * s + _B[1]) * s + _B[2]) * s + _B[3]) * s + _B[4]) * s + 1.0
        )
    # One Halley refinement against the exact CDF.
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def z_quantile(confidence: float) -> float:
    """Two-sided normal critical value: Phi^-1((1 + confidence) / 2)."""
    if not 0.0 < confidence < 1.0:
        raise OutOfRangeError(f"confidence {confidence!r} outside (0, 1)")
    return _norm_ppf(0.5 * (1.0 + confidence))


@dataclass(frozen=True)
class SamplePlan:
    """n0 ignores the finite population; n folds N back in harmonically."""

    n0: int
    n: int
    d: float
    confidence: float
    z: float


def plan_sample_size(
    sigma2: float, margin: float, confidence: float, N: int
) -> SamplePlan:
    """Smallest n with z * sqrt(sigma2 / n) below ``margin``, corrected for
    sampling n of N without replacement.

    Both stages round up: n0 = ceil(z^2 sigma2 / margin^2) and
    n = ceil(1 / (1/n0 + 1/N)) with the integer n0 in the harmonic step.
    """
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        raise InvalidInputError(f"sigma2 must be positive, got {sigma2!r}")
    if not (math.isfinite(margin) and margin > 0.0):
        raise InvalidInputError(f"margin must be positive, got {margin!r}")
    N = int(N)
    if N < 2:
        raise InvalidInputError(f"population size must be at least 2, got {N}")
    z = z_quantile(confidence)
    try:
        n0 = max(1, math.ceil(z * z * sigma2 / (margin * margin)))
    except (ZeroDivisionError, OverflowError, ValueError):
        # margin^2 underflowed to 0, or a square or the quotient overflowed.
        # The scaled form squares no input; it runs only here, so every n0
        # the direct form yields is kept bit for bit.
        k = z / margin
        try:
            n0 = max(1, math.ceil(k * (k * sigma2)))
        except (OverflowError, ValueError):
            raise InvalidInputError(
                f"sigma2 = {sigma2!r} and margin = {margin!r}: z^2 * sigma2 / margin^2 "
                "overflows double precision"
            ) from None
    n = math.ceil(1.0 / (1.0 / n0 + 1.0 / N))
    return SamplePlan(n0=n0, n=n, d=margin, confidence=confidence, z=z)


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float
    half_width: float


def confidence_interval(
    point: float, sd_y: float, n: int, N: int, confidence: float
) -> ConfidenceInterval:
    """Normal interval around a point estimate under SRSWOR:

        point +- z * sqrt(sd_y^2 / n) * sqrt((N - n) / (N - 1))
    """
    if not 1 <= n < N:
        raise InvalidDesignError(f"need 1 <= n < N, got n={n}, N={N}")
    if not (math.isfinite(sd_y) and sd_y >= 0.0):
        raise InvalidInputError(f"sd_y must be nonnegative, got {sd_y!r}")
    z = z_quantile(confidence)
    half = z * (sd_y / math.sqrt(n)) * math.sqrt((N - n) / (N - 1.0))
    return ConfidenceInterval(lo=point - half, hi=point + half, half_width=half)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64 avalanche finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 keyed by (seed, stream).

    Output i equals _mix64(s0 + (i + 1) * GOLDEN) with
    s0 = _mix64(_mix64(seed) + stream), i.e. the whole stream is a pure
    function of the key, which is what makes replay and parallel use safe.
    """

    def __init__(self, seed: int, stream: int = 0):
        self._state = _mix64(_mix64(seed & _MASK64) + (stream & _MASK64))

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free via rejection."""
        if bound <= 0:
            raise InvalidInputError(f"bound must be positive, got {bound}")
        threshold = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next64()
            if u < threshold:
                return u % bound


_GOLDEN_U64 = np.uint64(_GOLDEN)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
# Most bytes of either large array of one read-ahead block: the
# (pop_size, count) uint16 index matrix and the (count, n) uint64 swap
# targets, so count = _BLOCK_BYTES // max(2 * pop_size, 8 * n): 292
# streams at N = 365, n = 112 and 359 at n = 8.  No block is drawn below 2
# streams, which also keeps N <= 65 536, so every index fits in uint16.
# Peak RSS of one 10 000-rep simulate process: 40.2 MB at N = 365,
# n = 112, and 40.3 MB at N = 256, n = 250, where sizing by the index
# matrix alone (512 streams) peaked at 41.6 MB.
_BLOCK_BYTES = 256 * 1024
# The streams srswor drew last: ((pop_size, n, seed mod 2^64), first stream
# mod 2^64, read-only (count, n) sorted samples), or None.  Every row is a
# pure function of its key, so a stale or lost entry costs a redraw and
# never changes a result; it is read once per call and replaced whole.
_read_ahead = None


def _mix64_lanes(z: np.ndarray) -> np.ndarray:
    """_mix64 applied element-wise to a uint64 array, in place (arithmetic
    wraps).  The three shifted copies share one temporary."""
    t = np.right_shift(z, _S30)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, _M1, out=z)
    np.right_shift(z, _S27, out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, _M2, out=z)
    np.right_shift(z, _S31, out=t)
    np.bitwise_xor(z, t, out=z)
    return z


@lru_cache(maxsize=8)
def _swap_plan(pop_size: int, n: int):
    """Read-only uint64 arrays for _below_run, all of length n: the bounds
    pop_size - i, the counter steps GOLDEN * (1, ..., n) and the offsets i;
    and, as a uint64 scalar, the largest output that every bound accepts.

    Output u is accepted for bound b iff u < 2^64 - 2^64 % b, that is
    u <= ~(2^64 % b), and 2^64 % b is computed as (2^64 - b) % b.  For a
    power of two b it is 0, so every output is accepted.  Only O(n) arrays
    are held, never an object of size pop_size.
    """
    offsets = np.arange(n, dtype=np.uint64)
    bounds = np.uint64(pop_size) - offsets
    min_limit = (~((np.uint64(0) - bounds) % bounds)).min()
    steps = (offsets + np.uint64(1)) * _GOLDEN_U64
    for a in (bounds, steps, offsets):
        a.flags.writeable = False
    return bounds, steps, offsets, min_limit


def _below_run(states: np.ndarray, pop_size: int, n: int) -> np.ndarray:
    """The Fisher-Yates swap targets of a uint64 array of generator states,
    as a (len(states), n) uint64 array: row r holds i +
    SplitMix64.below(pop_size - i) for i = 0, ..., n - 1 in turn, from a
    generator whose state is states[r].

    Output k of a stream is _mix64(state + k * GOLDEN), so the runs of
    draws that reject nothing are one array expression.  One reduction per
    row checks acceptance: when no output of a row exceeds the largest
    output that every bound accepts, every output is accepted.  Any other
    row (srswor meets one with probability below n * pop_size / 2^64) is
    drawn again, one SplitMix64.below call at a time, from a generator
    placed at its state.
    """
    bounds, steps, offsets, min_limit = _swap_plan(pop_size, n)
    u = _mix64_lanes(np.add.outer(states, steps))
    redraw = np.flatnonzero(np.maximum.reduce(u, axis=1) > min_limit)
    u %= bounds
    u += offsets
    for r in redraw:
        rng = SplitMix64(0)
        rng._state = int(states[r])
        u[r] = [i + rng.below(pop_size - i) for i in range(n)]
    return u


def _draw_one(pop_size: int, n: int, start: int) -> np.ndarray:
    """The sorted sample of the stream whose state is _mix64(start), as a
    (1, n) array.  Its swaps run one by one on an index list: at N = 365
    and n = 112 that takes a quarter of the time of n column swaps on a
    one-row index matrix."""
    idx = list(range(pop_size))
    states = np.array([_mix64(start)], dtype=np.uint64)
    for i, j in enumerate(_below_run(states, pop_size, n)[0].tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    sample = np.fromiter(idx[:n], dtype=np.int64, count=n)
    sample.sort()
    return sample[None]


def _draw_block(pop_size: int, n: int, start: int, count: int) -> np.ndarray:
    """The sorted samples of the streams whose states are _mix64(start + r)
    for r = 0, ..., count - 1 (mod 2^64), one per row of a (count, n) int64
    array, drawn in lockstep on a (pop_size, count) uint16 index matrix
    whose column r is stream r's index list: swap i exchanges row i, a
    contiguous view, with the element at each stream's target, addressed
    by its flat offset target * count + r.  Row i is final after swap i,
    so rows 0, ..., n - 1, transposed and sorted per stream, are the
    samples.  srswor's block size keeps pop_size <= 2^16."""
    states = _mix64_lanes(np.arange(count, dtype=np.uint64) + np.uint64(start & _MASK64))
    # Targets are below 2^16, so their uint64 bits read as int64 offsets.
    at = np.ascontiguousarray(_below_run(states, pop_size, n).T).view(np.int64)
    at *= count
    at += np.arange(count)
    idx = np.empty((pop_size, count), dtype=np.uint16)
    idx[:] = np.arange(pop_size, dtype=np.uint16)[:, None]
    flat = idx.reshape(-1)
    for i, at_j in enumerate(at):
        row = idx[i]
        held = flat[at_j]
        flat[at_j] = row
        row[:] = held
    rows = np.ascontiguousarray(idx[:n].T)
    rows.sort(axis=1)
    return rows.astype(np.int64)


def srswor(pop_size: int, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """Draw a simple random sample of n distinct indices from range(pop_size).

    Partial Fisher-Yates over the indices: swap i exchanges position i
    with i + SplitMix64(seed, stream).below(pop_size - i), and the result
    is returned sorted ascending.  Identical (pop_size, n, seed, stream)
    give identical draws.

    The stream's state _mix64(_mix64(seed) + stream) is computed directly
    and its n swap targets come as one array from _below_run.  A call for
    the stream right after the last run of streams drawn for the same
    (pop_size, n, seed) reads ahead: it draws the next block of streams at
    once, as many as keep both the uint16 index matrix and the uint64 swap
    targets within _BLOCK_BYTES (at least 2, so pop_size <= 65 536), and
    the following calls return copies of its rows.  Any other call draws
    its one stream with the swaps run on an index list.  A simulation,
    which asks for streams 0, 1, 2, ... in turn, thus draws nearly all of
    them in blocks while still making one call per replication.
    """
    global _read_ahead
    pop_size = int(pop_size)
    n = int(n)
    if not 1 <= n <= pop_size:
        raise InvalidDesignError(f"need 1 <= n <= pop_size, got n={n}, pop_size={pop_size}")
    key = (pop_size, n, seed & _MASK64)
    stream &= _MASK64
    count = 1
    memo = _read_ahead
    if memo is not None and memo[0] == key:
        _, first, rows = memo
        k = (stream - first) & _MASK64
        if k < len(rows):
            return rows[k].copy()
        if k == len(rows):
            count = _BLOCK_BYTES // max(2 * pop_size, 8 * n)
    start = _mix64(seed & _MASK64) + stream
    rows = _draw_block(pop_size, n, start, count) if count > 1 else _draw_one(pop_size, n, start)
    rows.flags.writeable = False
    _read_ahead = (key, stream, rows)
    return rows[0].copy()


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) with linear interpolation between order statistics
    (fractional position p * (len - 1) from the sorted values)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyDataError("quartiles of an empty collection")
    if not np.isfinite(arr).all():
        raise InvalidInputError("quartiles need finite values")
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return float(q1), float(med), float(q3)
