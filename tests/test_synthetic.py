"""Synthetic population generation: exact moments, determinism, feasibility."""
import dataclasses
import math
import re

import numpy as np
import pytest

from rpratio.errors import InvalidInputError, TooLargeError
from rpratio.population import summarize
from rpratio.synthetic import MomentTargets, _lognormal_sigma, _unit, generate_population

BENCH_TARGETS = MomentTargets(
    size=365, mean_y=0.5832, mean_x=0.6277, cv_y=0.7681, cv_x=1.1504, r=0.9125
)


class TestExactMoments:
    def test_targets_hit_exactly(self):
        pop = generate_population(BENCH_TARGETS, seed=20260823)
        stx = summarize(pop)
        assert pop.size == 365
        # The affine matching step lands these to rounding error, far
        # inside the advertised 0.1% tolerance.
        assert stx.mean_y == pytest.approx(0.5832, rel=1e-12)
        assert stx.mean_x == pytest.approx(0.6277, rel=1e-12)
        assert stx.cv_y == pytest.approx(0.7681, rel=1e-12)
        assert stx.cv_x == pytest.approx(1.1504, rel=1e-12)
        assert stx.r == pytest.approx(0.9125, abs=1e-12)
        assert stx.c == pytest.approx(0.9125 * 0.7681 / 1.1504, rel=1e-10)

    def test_positive_and_finite(self):
        pop = generate_population(BENCH_TARGETS, seed=4)
        assert np.isfinite(pop.y).all() and np.isfinite(pop.x).all()
        assert (pop.y > 0).all() and (pop.x > 0).all()

    def test_zero_correlation(self):
        targets = MomentTargets(
            size=60, mean_y=2.0, mean_x=3.0, cv_y=0.4, cv_x=0.5, r=0.0
        )
        stx = summarize(generate_population(targets, seed=11))
        assert stx.r == pytest.approx(0.0, abs=1e-10)

    def test_negative_correlation(self):
        targets = MomentTargets(
            size=80, mean_y=1.5, mean_x=2.5, cv_y=0.3, cv_x=0.4, r=-0.6
        )
        stx = summarize(generate_population(targets, seed=5))
        assert stx.r == pytest.approx(-0.6, abs=1e-12)

    def test_cv_y_above_cv_x(self):
        # The higher-CV base then drives y, and the mixed direction x.
        targets = MomentTargets(size=200, mean_y=2.0, mean_x=1.5, cv_y=0.6, cv_x=0.2, r=0.7)
        stx = summarize(generate_population(targets, seed=3))
        assert stx.mean_y == pytest.approx(2.0, rel=1e-12)
        assert stx.mean_x == pytest.approx(1.5, rel=1e-12)
        assert stx.cv_y == pytest.approx(0.6, rel=1e-12)
        assert stx.cv_x == pytest.approx(0.2, rel=1e-12)
        assert stx.r == pytest.approx(0.7, abs=1e-12)

    def test_equal_cv_targets(self):
        targets = MomentTargets(
            size=40, mean_y=1.0, mean_x=1.0, cv_y=0.5, cv_x=0.5, r=0.7
        )
        stx = summarize(generate_population(targets, seed=9))
        assert stx.cv_y == pytest.approx(0.5, rel=1e-12)
        assert stx.cv_x == pytest.approx(0.5, rel=1e-12)


class TestDeterminism:
    def test_same_seed_same_population(self):
        a = generate_population(BENCH_TARGETS, seed=123)
        b = generate_population(BENCH_TARGETS, seed=123)
        assert (a.y == b.y).all() and (a.x == b.x).all()

    def test_different_seeds_differ(self):
        a = generate_population(BENCH_TARGETS, seed=123)
        b = generate_population(BENCH_TARGETS, seed=124)
        assert not (a.y == b.y).all()


class TestTargetsValidation:
    def test_size_has_one_name(self):
        assert BENCH_TARGETS.size == 365
        assert not hasattr(BENCH_TARGETS, "N")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size=2, mean_y=1.0, mean_x=1.0, cv_y=0.5, cv_x=0.5, r=0.5),
            dict(size=10, mean_y=0.0, mean_x=1.0, cv_y=0.5, cv_x=0.5, r=0.5),
            dict(size=10, mean_y=1.0, mean_x=-2.0, cv_y=0.5, cv_x=0.5, r=0.5),
            dict(size=10, mean_y=1.0, mean_x=1.0, cv_y=0.0, cv_x=0.5, r=0.5),
            dict(size=10, mean_y=1.0, mean_x=1.0, cv_y=0.5, cv_x=-0.1, r=0.5),
            dict(size=10, mean_y=1.0, mean_x=1.0, cv_y=0.5, cv_x=0.5, r=1.0),
            dict(size=10, mean_y=1.0, mean_x=1.0, cv_y=0.5, cv_x=0.5, r=-1.5),
        ],
    )
    def test_rejects_bad_targets(self, kwargs):
        with pytest.raises(InvalidInputError):
            MomentTargets(**kwargs)

    @pytest.mark.parametrize("size", [10.5, 10.0, np.float64(10), "10"], ids=repr)
    def test_non_integer_size_is_named(self, size):
        with pytest.raises(InvalidInputError, match="^size must be an integer"):
            MomentTargets(size=size, mean_y=1.0, mean_x=1.0, cv_y=0.5, cv_x=0.5, r=0.5)

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint16])
    def test_numpy_integer_size_and_seed(self, kind):
        targets = MomentTargets(size=kind(10), mean_y=1.0, mean_x=1.0, cv_y=0.5, cv_x=0.5, r=0.5)
        assert type(targets.size) is int
        pop = generate_population(targets, kind(3))
        want = generate_population(dataclasses.replace(targets, size=10), 3)
        np.testing.assert_array_equal(pop.y, want.y)
        np.testing.assert_array_equal(pop.x, want.x)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("name", ["mean_y", "mean_x", "cv_y", "cv_x", "r"])
    def test_non_finite_target_is_named(self, name, value):
        kwargs = dict(size=10, mean_y=1.0, mean_x=1.0, cv_y=0.5, cv_x=0.5, r=0.5)
        kwargs[name] = value
        with pytest.raises(InvalidInputError, match=f"^{name} must be finite, got {value!r}$"):
            MomentTargets(**kwargs)

    @pytest.mark.parametrize("value", ["1", "0.5", None, True, 1j], ids=repr)
    @pytest.mark.parametrize("name", ["mean_y", "mean_x", "cv_y", "cv_x", "r"])
    def test_non_number_target_is_named(self, name, value):
        kwargs = dict(size=10, mean_y=1.0, mean_x=1.0, cv_y=0.5, cv_x=0.5, r=0.5)
        kwargs[name] = value
        with pytest.raises(InvalidInputError) as err:
            MomentTargets(**kwargs)
        assert str(err.value) == f"{name} must be a real number, got {value!r}"

    def test_numpy_and_integer_targets_are_stored_as_float(self):
        targets = MomentTargets(
            size=10, mean_y=np.float32(1.5), mean_x=np.int64(2), cv_y=0.5, cv_x=np.float64(0.5), r=0
        )
        assert targets == MomentTargets(size=10, mean_y=1.5, mean_x=2.0, cv_y=0.5, cv_x=0.5, r=0.0)
        for name in ("mean_y", "mean_x", "cv_y", "cv_x", "r"):
            assert type(getattr(targets, name)) is float

    def test_rejects_size_over_budget(self):
        with pytest.raises(TooLargeError, match="budget"):
            MomentTargets(size=10**15, mean_y=1.0, mean_x=1.0, cv_y=0.5, cv_x=0.5, r=0.5)


# The message of targets whose values cannot all be positive.
INFEASIBLE = r"^CV targets too large to keep all values positive at r=-0\.95 \(min x="


class TestFeasibility:
    def test_large_cv_with_strong_negative_r_is_infeasible(self):
        # The mixture has to point sharply away from the skewed direction,
        # which drags the standardized minimum below zero.
        targets = MomentTargets(
            size=50, mean_y=1.0, mean_x=1.0, cv_y=1.2, cv_x=1.2, r=-0.95
        )
        with pytest.raises(InvalidInputError, match=INFEASIBLE):
            generate_population(targets, seed=1)

    def test_error_is_not_retried_away(self):
        targets = MomentTargets(
            size=50, mean_y=1.0, mean_x=1.0, cv_y=1.2, cv_x=1.2, r=-0.95
        )
        for seed in (2, 3):
            with pytest.raises(InvalidInputError, match=INFEASIBLE):
                generate_population(targets, seed=seed)


class TestInputChecks:
    def test_negative_seed_is_named(self):
        with pytest.raises(InvalidInputError, match="seed must be non-negative, got -1"):
            generate_population(BENCH_TARGETS, seed=-1)

    @pytest.mark.parametrize("seed", [3.5, 3.0, np.float64(3), "3"], ids=repr)
    def test_non_integer_seed_is_named(self, seed):
        with pytest.raises(InvalidInputError, match="^seed must be an integer"):
            generate_population(BENCH_TARGETS, seed)

    @pytest.mark.parametrize(
        "v, cause", [(np.zeros(4), "constant column"), (np.full(4, -0.0), "collinear columns")]
    )
    def test_zero_direction_is_infeasible(self, v, cause):
        with pytest.raises(InvalidInputError, match=rf"^degenerate base draw \({cause}\)$"):
            _unit(v, cause)

    @pytest.mark.parametrize("cv_x", [1e300, 1e160, 1e308])
    def test_cv_whose_base_square_overflows_is_named(self, cv_x):
        targets = MomentTargets(size=10, mean_y=1.0, mean_x=1.0, cv_y=0.1, cv_x=cv_x, r=0.5)
        with pytest.raises(InvalidInputError, match=re.escape(f"coefficient of variation {cv_x!r} ")):
            generate_population(targets, seed=1)

    def test_largest_squarable_cv_passes_the_check(self):
        # (1.8 * cv)^2 is about 1e308 here, still finite.
        assert math.isfinite(_lognormal_sigma(1e154 / 1.8))
