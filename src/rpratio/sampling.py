"""Sample-size planning, confidence intervals, and reproducible SRSWOR draws.

The normal quantile is computed in-package (rational initial guess plus one
Halley step against math.erfc) so nothing on the numeric path depends on a
statistics library.  Index draws come from a small counter-style generator
with explicit (seed, stream) keying: replication r of a simulation uses
stream r, which makes every draw a pure function of its key and therefore
reproducible bit for bit on any platform or thread schedule.  srswor keys
the stream state directly and computes a draw's swap targets as one array
against a cached, read-only per-(N, n) plan of length n, which also holds
the mixer's constants as arrays so that every ufunc call of the array
mixer takes operands of one shape.
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
# The mixer's shifts and multipliers, in the order _mix64_lanes takes them.
_MIX_CONSTANTS = (30, 27, 31, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _mix64_lanes(z: np.ndarray, mix) -> np.ndarray:
    """_mix64 applied element-wise to a uint64 array, in place (arithmetic
    wraps).  mix holds the shifts 30, 27, 31 and the two multipliers as
    uint64 arrays of z's shape: ufuncs over same-shape arrays skip the
    scalar conversion that each call with a numpy scalar pays.  The three
    shifted copies share one temporary."""
    s30, s27, s31, m1, m2 = mix
    t = np.right_shift(z, s30)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, m1, out=z)
    np.right_shift(z, s27, out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, m2, out=z)
    np.right_shift(z, s31, out=t)
    np.bitwise_xor(z, t, out=z)
    return z


@lru_cache(maxsize=8)
def _swap_plan(pop_size: int, n: int):
    """Read-only uint64 arrays for _below_run, all of length n: the bounds
    pop_size - i, the largest output accepted for each, the counter steps
    GOLDEN * (1, ..., n) and the offsets i; as a uint64 scalar, the
    smallest of those largest accepted outputs; and the mixer's constants
    for _mix64_lanes, each repeated n times.

    Output u is accepted for bound b iff u < 2^64 - 2^64 % b, that is
    u <= ~(2^64 % b), and 2^64 % b is computed as (2^64 - b) % b.  For a
    power of two b it is 0, so every output is accepted.  Only O(n) arrays
    are held, never an object of size pop_size.
    """
    offsets = np.arange(n, dtype=np.uint64)
    bounds = np.uint64(pop_size) - offsets
    limits = ~((np.uint64(0) - bounds) % bounds)
    steps = (offsets + np.uint64(1)) * _GOLDEN_U64
    mix = tuple(np.full(n, c, dtype=np.uint64) for c in _MIX_CONSTANTS)
    for a in (bounds, limits, steps, offsets, *mix):
        a.flags.writeable = False
    return bounds, limits, steps, offsets, limits.min(), mix


def _below_run(state: int, pop_size: int, n: int) -> list[int]:
    """The Fisher-Yates swap targets i + SplitMix64.below(pop_size - i) for
    i = 0, ..., n - 1 in turn, from a generator whose state is `state`.

    Output k of a stream is _mix64(state + k * GOLDEN), so a whole run of
    draws is one array expression.  One reduction checks acceptance: when
    no output exceeds the smallest limit, every output is accepted.
    Otherwise the first rejected output is found, the draws before it are
    kept, and the run resumes just after it, shifting every later draw by
    one counter.
    """
    bounds, limits, steps, offsets, min_limit, mix = _swap_plan(pop_size, n)
    u = _mix64_lanes(np.add(steps, state), mix)
    if np.maximum.reduce(u) <= min_limit:
        u %= bounds
        u += offsets
        return u.tolist()
    out: list[int] = []
    done = 0
    while True:
        rejected = np.flatnonzero(u > limits[done:])
        take = int(rejected[0]) if rejected.size else n - done
        stop = done + take
        out += (u[:take] % bounds[done:stop] + offsets[done:stop]).tolist()
        if stop == n:
            return out
        state = (state + (take + 1) * _GOLDEN) & _MASK64
        done = stop
        u = _mix64_lanes(np.add(steps[:n - done], state), [c[:n - done] for c in mix])


def srswor(pop_size: int, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """Draw a simple random sample of n distinct indices from range(pop_size).

    Partial Fisher-Yates over an index list: swap i exchanges position i
    with i + SplitMix64(seed, stream).below(pop_size - i).  The stream's
    state _mix64(_mix64(seed) + stream) is computed directly, and the n
    swap targets come as one array from _below_run; only the swaps run one
    by one.  The result is returned sorted ascending.  Identical
    (pop_size, n, seed, stream) give identical draws.
    """
    pop_size = int(pop_size)
    n = int(n)
    if not 1 <= n <= pop_size:
        raise InvalidDesignError(f"need 1 <= n <= pop_size, got n={n}, pop_size={pop_size}")
    state = _mix64(_mix64(seed & _MASK64) + (stream & _MASK64))
    idx = list(range(pop_size))
    for i, j in enumerate(_below_run(state, pop_size, n)):
        idx[i], idx[j] = idx[j], idx[i]
    sample = np.fromiter(idx[:n], dtype=np.int64, count=n)
    sample.sort()
    return sample


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
