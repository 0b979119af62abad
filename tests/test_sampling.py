"""Normal quantile, sample-size planning, intervals, and the index PRNG."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rpratio.errors import (
    EmptyDataError,
    InvalidDesignError,
    InvalidInputError,
    OutOfRangeError,
    TooLargeError,
)
from rpratio.sampling import (
    SamplePlan,
    SplitMix64,
    confidence_interval,
    plan_sample_size,
    quartiles,
    srswor,
    z_quantile,
)
from rpratio import sampling
from rpratio.sampling import _below_run, _mix64, _mix64_lanes, _norm_ppf


class TestNormalQuantile:
    def test_matches_scipy_across_both_tails(self):
        grid = [
            1e-9, 1e-6, 1e-3, 0.02, 0.02425, 0.1, 0.3, 0.5,
            0.7, 0.9, 0.97575, 0.98, 0.999, 1 - 1e-6, 1 - 1e-9,
        ]
        for p in grid:
            assert _norm_ppf(p) == pytest.approx(
                scipy.special.ndtri(p), abs=5e-12
            )

    def test_pinned_critical_values(self):
        assert z_quantile(0.90) == pytest.approx(1.6448536269514726, abs=1e-12)
        assert z_quantile(0.95) == pytest.approx(1.959963984540054, abs=1e-12)
        # 95.44997% two-sided corresponds to z = 2 (to the printed digits).
        assert z_quantile(0.9544997) == pytest.approx(2.0, abs=1e-3)

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.45):
            assert _norm_ppf(p) == pytest.approx(-_norm_ppf(1 - p), abs=1e-12)

    def test_confidence_next_below_one(self):
        # 0.5 * (1 + c) rounds to 1.0 for c = 1 - 2^-53; the upper tail
        # (1 - c) / 2 = 2^-54 is exact and gives z.
        c = 1.0 - 2.0**-53
        assert z_quantile(c) == 8.292361075813595
        assert z_quantile(c) == pytest.approx(-scipy.special.ndtri(2.0**-54), abs=5e-12)
        assert z_quantile(1.0 - 2.0**-52) < z_quantile(c)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.0001, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(OutOfRangeError):
            z_quantile(bad)

    @given(
        lo=st.floats(min_value=0.01, max_value=0.98),
        gap=st.floats(min_value=1e-4, max_value=0.019),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_confidence(self, lo, gap):
        assert z_quantile(lo) < z_quantile(lo + gap)


class TestPlanSampleSize:
    def test_worked_example(self):
        plan = plan_sample_size(0.2006, 0.0583, 0.90, 365)
        assert plan == SamplePlan(
            n0=160, n=112, d=0.0583, confidence=0.90, z=plan.z
        )
        assert plan.z == pytest.approx(1.6448536269514726, abs=1e-12)

    def test_huge_margin_floors_at_one(self):
        plan = plan_sample_size(0.01, 50.0, 0.90, 365)
        assert plan.n0 == 1 and plan.n == 1

    def test_large_population_keeps_n0(self):
        plan = plan_sample_size(0.2006, 0.0583, 0.90, 10**9)
        assert plan.n0 == 160 and plan.n == 160

    def test_near_census_lands_on_population_size(self):
        # A precision demand far beyond what N supports: the harmonic
        # correction approaches N from below and the ceiling returns the
        # census n = N.  SamplingDesign still refuses n = N; planning does
        # not, because a census does satisfy the demand.
        plan = plan_sample_size(1e12, 1e-3, 0.99, 365)
        assert plan.n == 365

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma2=0.0, margin=0.1, confidence=0.9, N=50),
            dict(sigma2=-1.0, margin=0.1, confidence=0.9, N=50),
            dict(sigma2=math.inf, margin=0.1, confidence=0.9, N=50),
            dict(sigma2=1.0, margin=0.0, confidence=0.9, N=50),
            dict(sigma2=1.0, margin=-0.5, confidence=0.9, N=50),
            dict(sigma2=1.0, margin=0.1, confidence=0.9, N=1),
        ],
    )
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(InvalidInputError):
            plan_sample_size(**kwargs)

    def test_rejects_bad_confidence(self):
        with pytest.raises(OutOfRangeError):
            plan_sample_size(1.0, 0.1, 1.5, 50)

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint64])
    def test_numpy_integer_population_size(self, kind):
        plan = plan_sample_size(0.2006, 0.0583, 0.90, kind(365))
        assert plan == plan_sample_size(0.2006, 0.0583, 0.90, 365)
        assert type(plan.n) is int

    @pytest.mark.parametrize(
        "N", [365.5, 365.0, np.float64(365), "365"],
        ids=["fractional", "integral-float", "numpy-float", "string"],
    )
    def test_non_integer_population_size_is_named(self, N):
        with pytest.raises(InvalidInputError, match="^N must be an integer"):
            plan_sample_size(0.2006, 0.0583, 0.90, N)

    @pytest.mark.parametrize(
        "sigma2, margin",
        [
            (1.0, 1e-300),  # margin^2 underflows to 0
            (1.0, 1e-302),  # what --margin-percent 1e-300 --mean 1 gives
            (1e300, 1e-10),  # sigma2 / margin^2 overflows
        ],
    )
    def test_n0_beyond_double_precision_names_inputs(self, sigma2, margin):
        with pytest.raises(InvalidInputError, match="double precision") as info:
            plan_sample_size(sigma2, margin, 0.9, 100)
        assert f"sigma2 = {sigma2!r}" in str(info.value)
        assert f"margin = {margin!r}" in str(info.value)

    def test_squares_overflow_but_n0_is_one(self):
        # Both z^2 * sigma2 and margin^2 overflow; the scaled form does not.
        plan = plan_sample_size(1e308, 1e200, 0.9, 100)
        assert (plan.n0, plan.n) == (1, 1)

    def test_direct_form_kept_where_it_succeeds(self):
        # The quotient lands on 6 up to rounding: the direct form rounds it
        # to 6, the scaled form just above it, to 7.  The scaled form runs
        # only where the direct form raises, so n0 stays 6.
        sigma2, margin = 0.007537613180498119, 0.0583
        plan = plan_sample_size(sigma2, margin, 0.9, 10**9)
        k = plan.z / margin
        assert math.ceil(k * (k * sigma2)) == 7
        assert plan.n0 == math.ceil(plan.z * plan.z * sigma2 / (margin * margin)) == 6

    def test_scaled_form_gives_huge_finite_n0(self):
        # z^2 * sigma2 overflows while margin^2 does not; the true n0 is
        # about 2.7e288, beyond the direct form but within double range.
        plan = plan_sample_size(1e308, 1e10, 0.9, 100)
        k = plan.z / 1e10
        assert plan.n0 == math.ceil(k * (k * 1e308))
        assert 2.7e288 < plan.n0 < 2.71e288
        assert plan.n == 100

    @given(
        sigma2=st.floats(min_value=1e-3, max_value=1e3),
        margin=st.floats(min_value=1e-3, max_value=10.0),
        confidence=st.floats(min_value=0.5, max_value=0.999),
        N=st.integers(min_value=2, max_value=10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, sigma2, margin, confidence, N):
        plan = plan_sample_size(sigma2, margin, confidence, N)
        assert plan.n0 >= 1
        assert 1 <= plan.n <= min(plan.n0, N)
        assert plan.d == margin and plan.confidence == confidence
        # Tightening the margin can only demand more.
        tighter = plan_sample_size(sigma2, margin / 2, confidence, N)
        assert tighter.n0 >= plan.n0
        assert tighter.n >= plan.n


class TestConfidenceInterval:
    def test_worked_example_half_width(self):
        ci = confidence_interval(0.5832, math.sqrt(0.2006), 112, 365, 0.90)
        assert ci.half_width == pytest.approx(0.05803544, rel=1e-6)
        assert ci.half_width == pytest.approx(0.0580, abs=5e-4)
        assert ci.lo == pytest.approx(0.5832 - ci.half_width)
        assert ci.hi == pytest.approx(0.5832 + ci.half_width)

    def test_zero_spread(self):
        ci = confidence_interval(2.0, 0.0, 5, 20, 0.95)
        assert ci.half_width == 0.0 and ci.lo == ci.hi == 2.0

    def test_almost_census(self):
        z = z_quantile(0.90)
        ci = confidence_interval(1.0, 3.0, 9, 10, 0.90)
        assert ci.half_width == pytest.approx(z * 3.0 / 9.0, rel=1e-12)

    def test_monotone_in_n(self):
        widths = [
            confidence_interval(0.0, 1.0, n, 100, 0.95).half_width
            for n in (5, 20, 60, 99)
        ]
        assert widths == sorted(widths, reverse=True)

    def test_monotone_in_confidence(self):
        a = confidence_interval(0.0, 1.0, 10, 50, 0.80).half_width
        b = confidence_interval(0.0, 1.0, 10, 50, 0.99).half_width
        assert a < b

    @pytest.mark.parametrize(
        "name, sizes", [("n", (3.5, 10)), ("N", (3, 10.0)), ("n", ("3", 10))]
    )
    def test_non_integer_sizes_are_named(self, name, sizes):
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
            confidence_interval(1.0, 1.0, *sizes, 0.9)

    def test_numpy_integer_sizes(self):
        ci = confidence_interval(1.0, 1.0, np.int64(3), np.uint16(10), 0.9)
        assert ci == confidence_interval(1.0, 1.0, 3, 10, 0.9)

    def test_rejects_bad_designs(self):
        with pytest.raises(InvalidDesignError):
            confidence_interval(0.0, 1.0, 0, 10, 0.9)
        with pytest.raises(InvalidDesignError):
            confidence_interval(0.0, 1.0, 10, 10, 0.9)
        with pytest.raises(InvalidInputError):
            confidence_interval(0.0, -1.0, 5, 10, 0.9)


class TestSplitMix64:
    def test_core_recurrence_matches_published_vector(self):
        # First three outputs of the reference SplitMix64 recurrence with
        # raw state 1234567 (the widely circulated cross-library vector).
        rng = SplitMix64(0)
        rng._state = 1234567
        assert [rng.next64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_keyed_streams_are_reproducible_and_distinct(self):
        first = SplitMix64(42, stream=7)
        a = [first.next64() for _ in range(4)]
        replay = SplitMix64(42, stream=7)
        assert [replay.next64() for _ in range(4)] == a
        other = SplitMix64(42, stream=8)
        assert [other.next64() for _ in range(4)] != a
        reseeded = SplitMix64(43, stream=7)
        assert [reseeded.next64() for _ in range(4)] != a

    def test_below_bounds_and_errors(self):
        rng = SplitMix64(1)
        draws = [rng.below(13) for _ in range(500)]
        assert all(0 <= d < 13 for d in draws)
        assert set(draws) == set(range(13))
        with pytest.raises(InvalidInputError):
            rng.below(0)
        with pytest.raises(InvalidInputError):
            rng.below(-4)


class TestSrswor:
    def test_shape_order_and_dtype(self):
        s = srswor(100, 10, seed=3, stream=5)
        assert s.dtype == np.int64
        assert len(s) == 10
        assert (np.diff(s) > 0).all()
        assert s.min() >= 0 and s.max() < 100

    def test_deterministic_per_key(self):
        a = srswor(50, 7, seed=11, stream=2)
        b = srswor(50, 7, seed=11, stream=2)
        assert (a == b).all()
        c = srswor(50, 7, seed=11, stream=3)
        assert not (a == c).all()

    def test_census_draw(self):
        s = srswor(6, 6, seed=0)
        assert (s == np.arange(6)).all()

    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidDesignError):
            srswor(10, 0, seed=1)
        with pytest.raises(InvalidDesignError):
            srswor(10, 11, seed=1)

    def test_uniform_over_subsets(self):
        # 6 choose 3 = 20 equally likely subsets; chi-square over the 20
        # cells with 60000 draws.  Threshold 45.31 is the 0.9995 quantile
        # of chi2(19), so a correct generator fails with p ~ 5e-4; the
        # seed is fixed so the test is deterministic either way.
        from collections import Counter

        reps = 60000
        counts = Counter(
            tuple(srswor(6, 3, seed=2024, stream=i)) for i in range(reps)
        )
        assert len(counts) == 20
        expected = reps / 20.0
        chi2 = sum((k - expected) ** 2 / expected for k in counts.values())
        assert chi2 < scipy.stats.chi2.ppf(0.9995, 19)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint64])
    def test_numpy_integer_keys(self, kind):
        # -7 and 2^64 - 7 are the same key mod 2^64.
        seven = kind(2**64 - 7) if kind is np.uint64 else kind(-7)
        for seed, stream in [(kind(1), 5), (1, kind(5)), (kind(1), kind(5)), (seven, seven)]:
            want = _reference_srswor(365, 8, int(seed), int(stream))
            np.testing.assert_array_equal(srswor(365, 8, seed, stream), want)
            rng, ref = SplitMix64(seed, stream), SplitMix64(int(seed), int(stream))
            assert [rng.next64() for _ in range(3)] == [ref.next64() for _ in range(3)]

    @pytest.mark.parametrize(
        "name, key", [("seed", (1.0, 0)), ("stream", (1, 2.5)), ("stream", (1, "3"))]
    )
    def test_non_integer_keys_are_named(self, name, key):
        with pytest.raises(InvalidInputError, match=name):
            srswor(365, 8, *key)
        with pytest.raises(InvalidInputError, match=name):
            SplitMix64(*key)

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint16])
    def test_numpy_integer_sizes(self, kind):
        for pop_size, n in [(kind(365), 8), (365, kind(8)), (kind(365), kind(8))]:
            np.testing.assert_array_equal(
                srswor(pop_size, n, 1, 3), _reference_srswor(365, 8, 1, 3)
            )

    @pytest.mark.parametrize(
        "name, sizes",
        [("pop_size", (365.9, 8)), ("n", (365, 8.7)), ("pop_size", (365.0, 8)),
         ("n", (365, np.float64(8))), ("pop_size", ("365", 8))],
        ids=["fractional-N", "fractional-n", "integral-float", "numpy-float", "string"],
    )
    def test_non_integer_sizes_are_named(self, name, sizes):
        # A fractional size is refused, never truncated to the draw of
        # the integer below it.
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
            srswor(*sizes, 1, 0)

    def test_a_bool_beside_a_bad_size_is_not_named(self):
        # srswor reads True as 1, so the error names the string.
        with pytest.raises(InvalidInputError, match="^n must be an integer, got '3'$"):
            srswor(True, "3", 1)

    def test_population_over_budget_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError, match="^pop_size 1000000000000 exceeds"):
                srswor(10**12, 3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        with pytest.raises(TooLargeError, match="unit budget"):
            srswor(np.int64(sampling._UNIT_BUDGET + 1), 3, 1)

    def test_marginal_inclusion_rates(self):
        reps = 60000
        hits = np.zeros(6)
        for i in range(reps):
            hits[srswor(6, 3, seed=77, stream=i)] += 1
        rates = hits / reps
        assert rates == pytest.approx([0.5] * 6, abs=0.01)


def _reference_srswor(pop_size, n, seed, stream):
    """Partial Fisher-Yates driven one SplitMix64.below call at a time."""
    rng = SplitMix64(seed, stream)
    idx = list(range(pop_size))
    for i in range(n):
        j = i + rng.below(pop_size - i)
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(sorted(idx[:n]), dtype=np.int64)


def _reference_rows(pop_size, n, seed, first_stream, count):
    return np.array(
        [_reference_srswor(pop_size, n, seed, first_stream + r) for r in range(count)],
        dtype=np.int64,
    ).reshape(count, n)


def _srswor_rows(pop_size, n, seed, first_stream, count):
    return np.array(
        [srswor(pop_size, n, seed, stream=first_stream + r) for r in range(count)],
        dtype=np.int64,
    ).reshape(count, n)


class TestSrsworMatchesReference:
    """srswor computes its bounded draws as one array; every draw must equal
    the one-call-at-a-time Fisher-Yates over SplitMix64.below."""

    @pytest.mark.parametrize(
        "pop_size, n, seed, first_stream, count",
        [
            (365, 112, 1234, 0, 1500),  # acceptance design
            (365, 8, 1234, 0, 1500),
            (365, 8, 7, 9001, 801),  # offset start
            (64, 64, 3, 0, 40),  # every bound a power of two, down to 1
            (64, 5, 3, 17, 40),
            (365, 365, 11, 0, 30),  # n == N
            (365, 1, 11, 0, 200),  # n == 1
            (2, 1, 5, 0, 50),  # N == 2
            (2, 2, 5, 0, 10),
            (50, 7, -987654321, 0, 60),  # negative seed
            (50, 7, 42, -25, 60),  # negative streams, crossing zero
            (50, 7, 2**70 + 3, 2**64 - 30, 60),  # keys wrap modulo 2^64
            (40_000, 25, 99, 3, 20),  # population past the int16 range
            (100_000, 20, 99, 3, 8),  # past uint16: one stream per block
        ],
    )
    def test_draws_match_reference(self, pop_size, n, seed, first_stream, count):
        np.testing.assert_array_equal(
            _srswor_rows(pop_size, n, seed, first_stream, count),
            _reference_rows(pop_size, n, seed, first_stream, count),
        )

    @given(
        data=st.data(),
        pop_size=st.integers(min_value=1, max_value=80),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        first_stream=st.integers(min_value=-(2**66), max_value=2**66),
        count=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_property(self, data, pop_size, seed, first_stream, count):
        n = data.draw(st.integers(min_value=1, max_value=pop_size))
        np.testing.assert_array_equal(
            _srswor_rows(pop_size, n, seed, first_stream, count),
            _reference_rows(pop_size, n, seed, first_stream, count),
        )

    def test_row_means_bit_identical_past_pairwise_block(self):
        # numpy sums more than 128 elements pairwise; the row-wise reduction
        # of a (rows, n) gather must split each row exactly as the 1-D one.
        y = np.random.default_rng(5).lognormal(size=1000)
        n = 300
        idx = _srswor_rows(1000, n, 8, 0, 64)
        means = y[idx].mean(axis=1)
        for r in range(64):
            one = float(y[srswor(1000, n, 8, stream=r)].mean())
            assert means[r].tobytes() == np.float64(one).tobytes()


@pytest.fixture
def draws(monkeypatch):
    """Empties srswor's read-ahead memo and lists the size (streams) of
    every block it draws."""
    blocks = []
    draw_block = sampling._draw_block

    def counted_block(pop_size, n, start, count):
        blocks.append(count)
        return draw_block(pop_size, n, start, count)

    monkeypatch.setattr(sampling, "_read_ahead", None)
    monkeypatch.setattr(sampling, "_draw_block", counted_block)
    return blocks


def _itemsize(pop_size):
    # The narrowest unsigned type that holds every index below pop_size.
    return next(b for b in (1, 2, 4, 8) if pop_size <= 2 ** (8 * b))


def _block_size(pop_size, n):
    # The larger of the index matrix and the uint64 swap targets fills
    # 256 KiB, or one stream's alone is larger.
    return max(1, sampling._BLOCK_BYTES // max(_itemsize(pop_size) * pop_size, 8 * n))


class TestReadAhead:
    """Every call for a stream outside the block drawn last draws the block
    that starts there; every access order must give the reference draws."""

    @staticmethod
    def _check(pop_size, n, keys):
        # srswor is called in the order of keys; all rows are compared at once.
        got = np.array([srswor(pop_size, n, seed, stream) for seed, stream in keys])
        want = [_reference_srswor(pop_size, n, seed, stream) for seed, stream in keys]
        np.testing.assert_array_equal(got, np.array(want))
        return got

    @pytest.mark.parametrize("first", [0, 5, 2**64 - 100, 2**65 - 50, -300, -40])
    def test_consecutive_runs_cross_block_edges(self, draws, first):
        # Offsets past 2^64 wrap modulo 2^64; negative streams cross zero.
        count = 2 * _block_size(365, 112) + 7
        self._check(365, 112, [(1234, first + r) for r in range(count)])
        assert draws == [292] * 3

    def test_descending_order_draws_a_block_per_call(self, draws):
        # Each stream lies before the block drawn last.
        self._check(365, 8, [(7, s) for s in range(150, -50, -1)])
        assert draws == [359] * 200

    def test_random_order_draws_a_block_per_call(self, draws):
        streams = np.random.default_rng(3).integers(-(2**62), 2**62, size=200).tolist()
        assert all(not 0 <= b - a < 359 for a, b in zip(streams, streams[1:]))
        self._check(365, 8, [(7, s) for s in streams])
        assert draws == [359] * 200

    def test_two_seeds_interleaved(self, draws):
        keys = [(seed, r) for r in range(100) for seed in (1, 2)]
        keys += [(2, r) for r in range(100, 500)] + [(1, r) for r in range(100, 500)]
        self._check(365, 112, keys)
        # Switching seeds makes every interleaved call draw a block.  The
        # last one drew seed 2's streams 99-390, so its run continues from
        # there and needs one more block; seed 1's streams 100-499 take 2.
        assert len(draws) == 200 + 1 + 2

    @pytest.mark.parametrize(
        "pop_size, n, count",
        [(256, 64, 512), (257, 64, 510), (65536, 1024, 2), (65537, 1024, 1)],
    )
    def test_index_dtype_edges(self, draws, pop_size, n, count):
        # The largest index, pop_size - 1, just fits in uint8 at 256 and in
        # uint16 at 65 536, and needs the next type at 257 and 65 537, which
        # doubles the bytes per index.  Seed 23 puts it in some sample.
        streams = 8 if pop_size < 2**16 else 24
        assert _block_size(pop_size, n) == count
        got = self._check(pop_size, n, [(23, s) for s in range(streams)])
        assert (got == pop_size - 1).any()
        assert draws == [count] * math.ceil(streams / count)

    @pytest.mark.parametrize("pop_size, n", [(50, 50), (365, 365), (365, 1), (2, 1), (2, 2)])
    def test_edge_sizes(self, draws, pop_size, n):
        self._check(pop_size, n, [(11, s) for s in range(-3, _block_size(pop_size, n) + 2)])
        assert draws == [_block_size(pop_size, n)] * 2

    def test_returned_samples_are_copies(self, draws):
        for stream in (0, 1, 2, 1, 0):
            sample = srswor(365, 112, 4, stream)
            assert sample.flags.writeable
            sample[:] = -1
        self._check(365, 112, [(4, s) for s in (0, 1, 2, 1, 0)])

    def test_consecutive_calls_draw_in_blocks(self, draws):
        for stream in range(10_000):
            srswor(365, 112, 1234, stream)
        assert _block_size(365, 112) == 292
        assert len(draws) == math.ceil(10_000 / 292)

    def test_near_census_crosses_block_edges(self, draws):
        # At n close to N the swap targets, not the index matrix, size the
        # block: 131 streams at N = 256, n = 250.
        assert _block_size(256, 250) == 131
        self._check(256, 250, [(5, s) for s in range(-2, 2 * 131 + 3)])
        assert draws == [131] * 3

    @pytest.mark.parametrize(
        "pop_size, n",
        [
            (365, 112), (365, 8), (256, 250), (365, 365), (2, 1), (65536, 3), (4096, 4096),
            (100_000, 3),  # one stream's uint32 index matrix alone exceeds _BLOCK_BYTES
        ],
    )
    def test_block_arrays_fit_the_budget(self, draws, monkeypatch, pop_size, n):
        # The index matrix holds count * pop_size indices of _itemsize bytes
        # and the swap targets count * n uint64.  Each fits in the bound:
        # _BLOCK_BYTES, or one stream's index matrix where that alone is
        # larger and the block holds one stream.  The whole draw,
        # temporaries and the length-n plan of bounds and counter steps
        # included, stays within four times the bound.
        count = _block_size(pop_size, n)
        matrix = pop_size * _itemsize(pop_size)
        bound = max(sampling._BLOCK_BYTES, matrix)
        assert (count == 1) == (pop_size > 2**16)
        assert count * matrix <= bound
        tracemalloc.start()
        try:
            rows = sampling._draw_block(pop_size, n, 77, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * bound
        assert rows.shape == (count, n) and rows.dtype == np.int64
        below_run, targets = sampling._below_run, []

        def spy(*args):
            out = below_run(*args)
            targets.append((out.shape, out.nbytes))
            return out

        monkeypatch.setattr(sampling, "_below_run", spy)
        sampling._draw_block(pop_size, n, 77, count)
        ((shape, nbytes),) = targets
        assert shape == (count, n) and nbytes <= sampling._BLOCK_BYTES
        # srswor's samples are int64 from a new block and from the memo,
        # which holds stream 1 unless the block holds one stream.
        before = len(draws)
        assert [srswor(pop_size, n, 77, s).dtype for s in (0, 1)] == [np.int64] * 2
        assert len(draws) == before + (1 if count > 1 else 2)


class TestBelowRun:
    """The array-wise run of swap targets against SplitMix64.below."""

    @pytest.mark.parametrize(
        "pop_size, n",
        [
            (2**63 + 60, 60),  # about half of all outputs rejected
            (2**64 - 1, 40),
            (2**63 + 1, 1),
            (3 * 2**61 + 7, 30),
            (2**63, 20),  # first bound a power of two
            (365, 112),
            (64, 64),
            (1, 1),
        ],
    )
    def test_matches_scalar_below(self, pop_size, n):
        for stream in range(-20, 80):
            start, want = _reference_targets(2024, stream, pop_size, n)
            assert _one_run(start, pop_size, n) == want

    def test_rejections_happen_at_huge_bound(self):
        # A draw that was rejected advanced the generator more than once.
        extra = 0
        for stream in range(100):
            rng = SplitMix64(1, stream=stream)
            start = rng._state
            assert _one_run(start, 2**63 + 40, 40) == [
                i + rng.below(2**63 + 40 - i) for i in range(40)
            ]
            steps = ((rng._state - start) * pow(0x9E3779B97F4A7C15, -1, 2**64)) % 2**64
            extra += steps - 40
        assert extra > 1000

    @given(
        pop_size=st.integers(min_value=2**62, max_value=2**64 - 1),
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=-(2**64), max_value=2**64),
        stream=st.integers(min_value=-(2**64), max_value=2**64),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_below_at_huge_bounds(self, pop_size, n, seed, stream):
        start, want = _reference_targets(seed, stream, pop_size, n)
        assert _one_run(start, pop_size, n) == want

    def test_every_acceptance_path_is_taken(self, monkeypatch):
        # Bounds 2^63 + k reject about half of all outputs, the bounds below
        # 2^63 almost none: the smallest limit sits near 2^63, far under the
        # others.  A run whose outputs all lie at or below it is one array
        # expression; any other run is drawn by SplitMix64.below, which is
        # counted here to see which path _below_run took.  Every run must
        # match the scalar draws.
        calls = []
        below = SplitMix64.below

        def counted_below(rng, bound):
            calls.append(bound)
            return below(rng, bound)

        monkeypatch.setattr(SplitMix64, "below", counted_below)
        paths = set()
        for pop_size, n in [(2**63 + 1, 2), (2**63 + 1, 24), (2**63 + 4, 24)]:
            limits = [2**64 - 2**64 % (pop_size - i) - 1 for i in range(n)]
            for stream in range(300):
                start, want = _reference_targets(99, stream, pop_size, n)
                rng = SplitMix64(99, stream)
                raw = [rng.next64() for _ in range(n)]
                rejected = [k for k, (u, lim) in enumerate(zip(raw, limits)) if u > lim]
                if rejected:
                    path = "first lane rejected" if rejected[0] == 0 else "rejected mid-run"
                elif max(raw) > min(limits):
                    path = "above the smallest limit, none rejected"
                else:
                    path = "array"
                calls.clear()
                assert _one_run(start, pop_size, n) == want
                assert calls == ([] if path == "array" else [pop_size - i for i in range(n)])
                paths.add(path)
        assert paths == {
            "array",
            "first lane rejected",
            "rejected mid-run",
            "above the smallest limit, none rejected",
        }

    @pytest.mark.parametrize("pop_size, n", [(2**63 + 1, 2), (2**63 + 4, 3)])
    def test_block_mixes_accepted_and_fallback_rows(self, pop_size, n):
        # One call over the states of 300 streams: the rows above the
        # smallest limit are drawn by SplitMix64.below, each from its own
        # state, and the others stay array rows.
        starts, wants, above = [], [], []
        limit = min(2**64 - 2**64 % (pop_size - i) - 1 for i in range(n))
        for stream in range(300):
            start, want = _reference_targets(99, stream, pop_size, n)
            rng = SplitMix64(99, stream)
            above.append(max(rng.next64() for _ in range(n)) > limit)
            starts.append(start)
            wants.append(want)
        assert 0 < sum(above) < len(above)
        got = _below_run(np.array(starts, dtype=np.uint64), pop_size, n)
        assert got.shape == (300, n) and got.dtype == np.uint64
        assert got.tolist() == wants


_GOLDEN = 0x9E3779B97F4A7C15


class TestMix64Lanes:
    """The array mixer against the scalar SplitMix64 finalizer."""

    def test_matches_scalar_at_edge_values(self):
        values = [0, 1, 2**63, 2**64 - 1] + [k * _GOLDEN % 2**64 for k in range(1, 60)]
        got = _mix64_lanes(np.array(values, dtype=np.uint64))
        assert got.tolist() == [_mix64(v) for v in values]

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_property(self, values):
        z = np.array(values, dtype=np.uint64)
        assert _mix64_lanes(z) is z
        assert z.tolist() == [_mix64(v) for v in values]


def _one_run(start, pop_size, n):
    """_below_run's targets for the one generator whose state is start."""
    return _below_run(np.array([start], dtype=np.uint64), pop_size, n)[0].tolist()


def _reference_targets(seed, stream, pop_size, n):
    """The start state of stream (seed, stream) and its swap targets
    i + below(pop_size - i), one SplitMix64.below call at a time."""
    rng = SplitMix64(seed, stream)
    start = rng._state
    return start, [i + rng.below(pop_size - i) for i in range(n)]


class TestQuartiles:
    def test_linear_interpolation_convention(self):
        assert quartiles([1, 2, 3, 4, 5]) == (2.0, 3.0, 4.0)
        assert quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)
        assert quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_order_invariance(self):
        assert quartiles([5, 1, 4, 2, 3]) == quartiles([1, 2, 3, 4, 5])

    @pytest.mark.parametrize(
        "values, want",
        [
            ([-1e308, 1e308, 1e308, 1e308], (5e307, 1e308, 1e308)),
            ([-1e308, -1e308, 1e308, 1e308, 1e308], (-1e308, 1e308, 1e308)),
            ([-1e308, 1e308], (-5e307, 0.0, 5e307)),
        ],
    )
    def test_opposite_huge_values_stay_finite(self, values, want):
        # b - a overflows between these order statistics.
        assert quartiles(values) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize(
        "values",
        [[0.0, 5e-324], [5e-324, 1e-323, 1.5e-323], [-5e-324, 0.0, 0.0, 1e-323], [1e308, 1.7e308]],
    )
    def test_finite_percentiles_keep_their_bits(self, values):
        # [0, 5e-324]: a convex combination would give a median of 0.0.
        want = np.percentile(values, [25.0, 50.0, 75.0])
        assert list(map(repr, quartiles(values))) == list(map(repr, want.tolist()))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=9))
    @settings(max_examples=500, deadline=None)
    def test_finite_values_give_ordered_finite_quartiles(self, values):
        q1, med, q3 = quartiles(values)
        assert min(values) <= q1 <= med <= q3 <= max(values)

    def test_errors(self):
        with pytest.raises(EmptyDataError):
            quartiles([])
        with pytest.raises(InvalidInputError):
            quartiles([1.0, math.nan])
