"""Designs, sample-size planning, confidence intervals, and reproducible SRSWOR draws.

The normal quantile is computed in-package (rational initial guess plus one
Halley step against math.erfc) so nothing on the numeric path depends on a
statistics library.  Index draws come from a small counter-style generator
with explicit (seed, stream) keying: replication r of a simulation uses
stream r, which makes every draw a pure function of its key and therefore
reproducible bit for bit on any platform or thread schedule.  srswor keys
the stream states directly and computes the swap targets of a block of
streams as one array, from length-n bounds and counter steps built afresh
for each block.  A stream in which some output may be rejected is drawn
by SplitMix64.below itself.  A call for a stream outside the block drawn
last draws the block that starts at it, in lockstep on an index matrix
as narrow as N allows, and keeps the samples for the calls that follow,
so consecutive streams cost a fraction of a lone one, and each call
still returns one stream's draw.  Those samples are the only state kept
between calls.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, TooLargeError

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
        raise InvalidInputError(f"probability {p!r} outside (0, 1)")
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
    if not (isinstance(confidence, numbers.Real) and 0.0 < confidence < 1.0):
        raise InvalidInputError(f"confidence {confidence!r} outside (0, 1)")
    p = 0.5 * (1.0 + confidence)
    # p rounds to 1.0 within 2^-53 of 1, where the upper tail is exact.
    return _norm_ppf(p) if p < 1.0 else -_norm_ppf(0.5 * (1.0 - confidence))


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
    sigma2, margin = _real(sigma2, "sigma2"), _real(margin, "margin")
    if sigma2 <= 0.0:
        raise InvalidInputError(f"sigma2 must be positive, got {sigma2!r}")
    if margin <= 0.0:
        raise InvalidInputError(f"margin must be positive, got {margin!r}")
    N = _integer(N, "N")
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
class SamplingDesign:
    """Without-replacement design drawing n of N units; requires 1 <= n < N,
    with n and N integers or numpy integers, stored as int."""

    n: int
    N: int

    def __post_init__(self):
        n, N = _integer(self.n, "n"), _integer(self.N, "N")
        if not 1 <= n < N:
            raise InvalidInputError(f"need 1 <= n < N, got n={n}, N={N}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)

    @property
    def f(self) -> float:
        return self.n / self.N

    @property
    def fpc_rate(self) -> float:
        """(1 - f) / n, the factor multiplying every first-order moment."""
        return (1.0 - self.f) / self.n


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

    The factor is exact for sd_y on the N divisor (sigma): sd_y^2 / n *
    (N - n) / (N - 1) is then the SRSWOR variance of the sample mean.  An
    sd_y on the N - 1 divisor (S_y) gives N / (N - 1) times that variance.
    """
    d = SamplingDesign(n, N)
    point, sd_y = _real(point, "point"), _real(sd_y, "sd_y")
    if sd_y < 0.0:
        raise InvalidInputError(f"sd_y must be nonnegative, got {sd_y!r}")
    z = z_quantile(confidence)
    half = z * (sd_y / math.sqrt(d.n)) * math.sqrt((d.N - d.n) / (d.N - 1.0))
    return ConfidenceInterval(lo=point - half, hi=point + half, half_width=half)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64 avalanche finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _integer(value, name: str) -> int:
    """value, an integer or numpy integer other than a bool, as an int;
    anything else, a float with an integral value included, raises
    InvalidInputError."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """value, a real number or numpy real other than a bool, as a finite
    float.  A string, None, a complex or a bool raises InvalidInputError
    "<name> must be a real number"; nan, an infinity or an int beyond the
    double range raises InvalidInputError "<name> must be finite"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the double range
        pass
    raise InvalidInputError(f"{name} must be finite, got {value!r}")


class SplitMix64:
    """SplitMix64 keyed by (seed, stream).

    Output i equals _mix64(s0 + (i + 1) * GOLDEN) with
    s0 = _mix64(_mix64(seed) + stream), i.e. the whole stream is a pure
    function of the key, which is what makes replay and parallel use safe.
    """

    def __init__(self, seed: int, stream: int = 0):
        self._state = _mix64(_mix64(_integer(seed, "seed")) + _integer(stream, "stream"))

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
# Most bytes of a block's largest array, here, in simulation's gather and
# ranking and in population.write_csv.  A CSV block of 2^15 four-column rows
# page-faulted; on 2 vCPUs 2^12 / 2^13 / 2^14 rows gave surface_region
# 0.25 / 0.22 / 0.24 and simulate_wide 1.16 / 1.19 / 1.26 reference units.
# Here either of a read-ahead block's: the (pop_size, count)
# index matrix, of the narrowest unsigned type that holds pop_size - 1, and
# the (count, n) uint64 swap targets, so count =
# max(1, _BLOCK_BYTES // max(itemsize * pop_size, 8 * n)): 292 streams at
# N = 365, n = 112, 359 at n = 8, and 1 at every N > 65 536.
# Peak RSS of one 10 000-rep simulate process: 40.2 MB at N = 365,
# n = 112, and 40.3 MB at N = 256, n = 250, where sizing by a uint16 index
# matrix alone (512 streams) peaked at 41.6 MB.
_BLOCK_BYTES = 256 * 1024
# Most units srswor draws from, and generate_population makes; the
# benchmark population has 365.
_UNIT_BUDGET = 10_000_000
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
    offsets = np.arange(n, dtype=np.uint64)
    bounds = np.uint64(pop_size) - offsets
    # Output u is accepted for bound b iff u <= ~(2^64 % b), with 2^64 % b
    # = (2^64 - b) % b, which is 0 for a power of two.
    min_limit = (~((np.uint64(0) - bounds) % bounds)).min()
    u = _mix64_lanes(np.add.outer(states, (offsets + np.uint64(1)) * _GOLDEN_U64))
    redraw = np.flatnonzero(np.maximum.reduce(u, axis=1) > min_limit)
    u %= bounds
    u += offsets
    for r in redraw:
        rng = SplitMix64(0)
        rng._state = int(states[r])
        u[r] = [i + rng.below(pop_size - i) for i in range(n)]
    return u


def _draw_block(pop_size: int, n: int, start: int, count: int) -> np.ndarray:
    """The sorted samples of the streams whose states are _mix64(start + r)
    for r = 0, ..., count - 1 (mod 2^64), one per row of a (count, n) int64
    array, drawn in lockstep on a (pop_size, count) index matrix of the
    narrowest unsigned type that holds pop_size - 1, whose column r is
    stream r's index list: swap i exchanges row i, a contiguous view, with
    the element at each stream's target, addressed by its flat offset
    target * count + r.  Row i is final after swap i, so rows 0, ...,
    n - 1, transposed and sorted per stream, are the samples."""
    states = _mix64_lanes(np.arange(count, dtype=np.uint64) + np.uint64(start & _MASK64))
    # Targets are below pop_size, so their uint64 bits read as int64 offsets.
    at = np.ascontiguousarray(_below_run(states, pop_size, n).T).view(np.int64)
    at *= count
    at += np.arange(count)
    dtype = np.min_scalar_type(pop_size - 1)
    idx = np.empty((pop_size, count), dtype=dtype)
    idx[:] = np.arange(pop_size, dtype=dtype)[:, None]
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
    and its n swap targets come as one array from _below_run.  A call for a
    stream outside the block of streams drawn last draws the block that
    starts at that stream, for the same (pop_size, n, seed): as many
    streams as keep both the index matrix and the uint64 swap targets
    within _BLOCK_BYTES, at least one, and the following calls for its
    streams return copies of its rows.  A simulation, which asks for
    streams 0, 1, 2, ... in turn, thus draws them in blocks while still
    making one call per replication.  seed and stream may be any integers,
    numpy integers included; they are taken mod 2^64.  pop_size and n must
    be integers or numpy integers too: a fractional size is refused, not
    truncated.  A pop_size above 10^7 raises TooLargeError before anything
    is allocated.
    """
    global _read_ahead
    # One try around the four conversions keeps a call cheap; _integer
    # names the argument that is not an integer, passing over a bool,
    # which operator.index took as 0 or 1.
    try:
        pop_size, n = operator.index(pop_size), operator.index(n)
        seed, stream = operator.index(seed) & _MASK64, operator.index(stream) & _MASK64
    except TypeError:
        for name, value in [("pop_size", pop_size), ("n", n), ("seed", seed), ("stream", stream)]:
            if not isinstance(value, bool):
                _integer(value, name)
        raise
    if not 1 <= n <= pop_size:
        raise InvalidInputError(f"need 1 <= n <= pop_size, got n={n}, pop_size={pop_size}")
    key = (pop_size, n, seed)
    memo = _read_ahead
    if memo is not None and memo[0] == key:
        _, first, rows = memo
        k = (stream - first) & _MASK64
        if k < len(rows):
            return rows[k].copy()
    if pop_size > _UNIT_BUDGET:
        raise TooLargeError(f"pop_size {pop_size} exceeds the {_UNIT_BUDGET} unit budget")
    itemsize = np.min_scalar_type(pop_size - 1).itemsize
    count = max(1, _BLOCK_BYTES // max(itemsize * pop_size, 8 * n))
    rows = _draw_block(pop_size, n, _mix64(seed) + stream, count)
    rows.flags.writeable = False
    _read_ahead = (key, stream, rows)
    return rows[0].copy()


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) with linear interpolation between order statistics
    (fractional position p * (len - 1) from the sorted values).

    np.percentile interpolates between order statistics a and b as
    a + (b - a) * t, and b - a overflows when they are huge and of opposite
    signs.  Such a quartile is a * (1 - t) + b * t, whose terms cannot."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise InvalidInputError("quartiles of an empty collection")
    if not np.isfinite(arr).all():
        raise InvalidInputError("quartiles need finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.percentile(arr, [25.0, 50.0, 75.0])
        if not np.isfinite(q).all():
            arr = np.sort(arr)
            t, lo = np.modf(np.array([0.25, 0.5, 0.75]) * (len(arr) - 1))
            lo = lo.astype(np.intp)
            q = np.where(np.isfinite(q), q, arr[lo] * (1.0 - t) + arr[lo + 1] * t)
    q1, med, q3 = q
    return float(q1), float(med), float(q3)
