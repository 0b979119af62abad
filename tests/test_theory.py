"""First-order bias/MSE formulas, optimal parameters, dominance, surfaces.

Numeric expectations marked "pinned" were computed with an independent
high-precision scalar script (50-digit arithmetic) before this package
existed; they are frozen here on purpose.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rpratio import theory
from rpratio.errors import (
    DegenerateMseError,
    InvalidInputError,
    PoleAtHalfError,
    TooLargeError,
)
from rpratio.estimators import (
    Product,
    Ratio,
    RatioProductRatio,
    Reddy,
    SahaiTransformed,
    SampleMean,
    SinghRatioProduct,
    SrivastavaPower,
    UnbiasedAOE,
)
from rpratio.population import SummaryStats
from rpratio.sampling import SamplingDesign
from rpratio.theory import (
    Baseline,
    Branch,
    SurfaceKind,
    aoe_bias1,
    aoe_parameters,
    biasfree_betas,
    dominates,
    family_theory,
    minimal_mse1,
    mse1_grad,
    relative_efficiency,
    _axis,
    _surface,
    surface_grid,
)

# Pinned optimal parameters for c = 0.6092 (MinusMinus sign choice).
ALPHA_STAR = -0.335071447449
BETA_STAR = 0.317620395877


def bias1(alpha, beta, stats, d):
    """First-order bias of the family member at (alpha, beta)."""
    return family_theory(RatioProductRatio(alpha, beta), stats, d).bias1


def mse1(alpha, beta, stats, d):
    """First-order MSE of the family member at (alpha, beta)."""
    return family_theory(RatioProductRatio(alpha, beta), stats, d).mse1


@st.composite
def stats_strategy(draw, r_bound=0.95):
    mean_y = draw(st.floats(min_value=0.2, max_value=5.0))
    mean_x = draw(st.floats(min_value=0.2, max_value=5.0))
    cv_y = draw(st.floats(min_value=0.2, max_value=1.5))
    cv_x = draw(st.floats(min_value=0.2, max_value=1.5))
    r = draw(st.floats(min_value=-r_bound, max_value=r_bound))
    return SummaryStats.from_moments(
        mean_y, mean_x, cv_y * mean_y, cv_x * mean_x, r
    )


@st.composite
def design_strategy(draw):
    n = draw(st.integers(min_value=2, max_value=300))
    extra = draw(st.integers(min_value=1, max_value=500))
    return SamplingDesign(n, n + extra)


def stats_with_c(c: float, cv_x: float = 0.9, r_mag: float = 0.6) -> SummaryStats:
    """A valid population summary whose moment ratio equals ``c`` exactly."""
    if c == 0.0:
        return SummaryStats.from_moments(1.0, 1.0, 0.7, cv_x, 0.0)
    r = math.copysign(r_mag, c)
    cv_y = c * cv_x / r
    return SummaryStats.from_moments(1.0, 1.0, cv_y, cv_x, r)


def fd_grad(alpha, beta, stx, d, h=1e-6):
    da = (mse1(alpha + h, beta, stx, d) - mse1(alpha - h, beta, stx, d)) / (2 * h)
    db = (mse1(alpha, beta + h, stx, d) - mse1(alpha, beta - h, stx, d)) / (2 * h)
    return da, db


class TestBias:
    def test_beta_half_kills_bias(self, bench_stats, bench_design):
        for alpha in (-2.0, 0.0, 0.3, 0.5, 1.7):
            assert bias1(alpha, 0.5, bench_stats, bench_design) == 0.0

    def test_ratio_corner_value(self, bench_stats, bench_design):
        # pinned: fpc * (1 - c) * cv_x^2 * mean_y
        value = bias1(0.0, 0.0, bench_stats, bench_design)
        assert value == pytest.approx(0.0018670183, rel=1e-7)

    @given(
        alpha=st.floats(min_value=-3.0, max_value=4.0),
        c=st.floats(min_value=-2.0, max_value=2.0),
        stx=stats_strategy(),
    )
    @settings(max_examples=120, deadline=None)
    def test_biasfree_roots_zero_the_bias(self, alpha, c, stx):
        d = SamplingDesign(112, 365)
        stx = SummaryStats.from_moments(
            stx.mean_y, stx.mean_x, stx.sd_y, stx.sd_x, stx.r
        )
        trivial, sheet = biasfree_betas(alpha, stx.c)
        assert trivial == 0.5
        assert abs(bias1(alpha, trivial, stx, d)) == 0.0
        assert abs(bias1(alpha, sheet, stx, d)) <= 1e-12 * abs(stx.mean_y)

    def test_biasfree_sheet_value(self):
        assert biasfree_betas(0.0, 0.6092) == (0.5, pytest.approx(0.3908))
        assert biasfree_betas(0.5, 0.6092) == (0.5, pytest.approx(0.5))

    @given(
        alpha=st.floats(min_value=-2.0, max_value=3.0),
        beta=st.floats(min_value=-2.0, max_value=3.0),
        stx=stats_strategy(),
    )
    @settings(max_examples=120, deadline=None)
    def test_reflection_invariance(self, alpha, beta, stx):
        d = SamplingDesign(20, 100)
        b1 = bias1(alpha, beta, stx, d)
        b2 = bias1(1.0 - alpha, 1.0 - beta, stx, d)
        assert b2 == pytest.approx(b1, rel=1e-10, abs=1e-15)
        m1 = mse1(alpha, beta, stx, d)
        m2 = mse1(1.0 - alpha, 1.0 - beta, stx, d)
        assert m2 == pytest.approx(m1, rel=1e-10, abs=1e-15)


class TestMse:
    def test_center_equals_sample_mean_mse(self, bench_stats, bench_design):
        center = mse1(0.5, 0.5, bench_stats, bench_design)
        assert center == family_theory(SampleMean(), bench_stats, bench_design).mse1
        assert center == pytest.approx(0.001242126, rel=1e-6)

    def test_corner_equals_classical_ratio_exactly(self, bench_stats, bench_design):
        assert mse1(0.0, 0.0, bench_stats, bench_design) == family_theory(
            Ratio(), bench_stats, bench_design
        ).mse1
        assert mse1(1.0, 0.0, bench_stats, bench_design) == family_theory(
            Product(), bench_stats, bench_design
        ).mse1

    def test_hyperbola_attains_pinned_minimum(self, bench_stats, bench_design):
        minimum = minimal_mse1(bench_stats, bench_design)
        assert minimum == pytest.approx(0.00020786203, rel=1e-7)
        c = bench_stats.c
        for u in (0.3, -0.8, 1.6698):
            v = c / u
            alpha, beta = (1.0 - u) / 2.0, (1.0 - v) / 2.0
            value = mse1(alpha, beta, bench_stats, bench_design)
            assert value == pytest.approx(minimum, rel=1e-12)

    @given(
        stx=stats_strategy(),
        d=design_strategy(),
        alpha=st.floats(min_value=-3.0, max_value=4.0),
        beta=st.floats(min_value=-3.0, max_value=4.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_family_theory_keeps_the_closed_forms_bit_for_bit(self, stx, d, alpha, beta):
        base = d.fpc_rate * stx.mean_y**2
        w = (1.0 - 2.0 * alpha) * (1.0 - 2.0 * beta)
        assert mse1(alpha, beta, stx, d) == base * (
            stx.cv_y**2 + stx.cv_x**2 * w * (w - 2.0 * stx.c)
        )
        assert family_theory(SampleMean(), stx, d).mse1 == base * stx.cv_y**2
        assert family_theory(Ratio(), stx, d).mse1 == base * (
            stx.cv_y**2 + stx.cv_x**2 * (1.0 - 2.0 * stx.c)
        )
        assert family_theory(Product(), stx, d).mse1 == base * (
            stx.cv_y**2 + stx.cv_x**2 * (1.0 + 2.0 * stx.c)
        )

    def test_classical_ratio_product_coincide_at_c_zero(self):
        stx = stats_with_c(0.0)
        d = SamplingDesign(10, 50)
        lhs = family_theory(Ratio(), stx, d).mse1
        rhs = family_theory(Product(), stx, d).mse1
        assert lhs == rhs
        base = family_theory(SampleMean(), stx, d).mse1
        extra = d.fpc_rate * stx.mean_y**2 * stx.cv_x**2
        assert lhs == pytest.approx(base + extra, rel=1e-12)

    @given(
        alpha=st.floats(min_value=-4.0, max_value=5.0),
        beta=st.floats(min_value=-4.0, max_value=5.0),
        stx=stats_strategy(),
    )
    @settings(max_examples=200, deadline=None)
    def test_global_floor(self, alpha, beta, stx):
        d = SamplingDesign(112, 365)
        value = mse1(alpha, beta, stx, d)
        assert value >= minimal_mse1(stx, d) - 1e-12

    def test_saddle_has_both_directions(self, bench_stats, bench_design):
        # At radius 1e-3 around (1/2, 1/2): moving along the diagonal
        # (u = v = t) lowers the MSE for c > 0, while the anti-diagonal
        # (u = -v = t) raises it.  That is the saddle signature.
        center = mse1(0.5, 0.5, bench_stats, bench_design)
        t = 1e-3
        down = mse1(0.5 - t / 2, 0.5 - t / 2, bench_stats, bench_design)
        up = mse1(0.5 - t / 2, 0.5 + t / 2, bench_stats, bench_design)
        assert down < center < up


class TestGradient:
    def test_zero_at_center_and_on_hyperbola(self, bench_stats, bench_design):
        assert mse1_grad(0.5, 0.5, bench_stats, bench_design) == (0.0, 0.0)
        c = bench_stats.c
        scale = bench_design.fpc_rate * bench_stats.mean_y**2 * bench_stats.cv_x**2
        for u in (0.25, -1.1):
            v = c / u
            ga, gb = mse1_grad((1 - u) / 2, (1 - v) / 2, bench_stats, bench_design)
            assert abs(ga) <= 1e-12 * scale
            assert abs(gb) <= 1e-12 * scale

    def test_descends_toward_hyperbola(self, bench_stats, bench_design):
        # From the ratio corner (0, 0) with 0 < c < 1: u*v = 1 > c, so the
        # MSE falls as u*v shrinks; a small step against the gradient must
        # lower mse1.
        ga, gb = mse1_grad(0.0, 0.0, bench_stats, bench_design)
        before = mse1(0.0, 0.0, bench_stats, bench_design)
        step = 1e-3 / math.hypot(ga, gb)
        after = mse1(-step * ga, -step * gb, bench_stats, bench_design)
        assert after < before

    @given(
        alpha=st.floats(min_value=-3.0, max_value=4.0),
        beta=st.floats(min_value=-3.0, max_value=4.0),
        stx=stats_strategy(),
        d=design_strategy(),
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_central_differences(self, alpha, beta, stx, d):
        scale = d.fpc_rate * stx.mean_y**2 * stx.cv_x**2
        analytic = mse1_grad(alpha, beta, stx, d)
        numeric = fd_grad(alpha, beta, stx, d)
        for a, f in zip(analytic, numeric):
            # 1e-5 relative, with an absolute floor at the documented
            # roundoff limit of a central difference with step 1e-6.
            assert abs(a - f) <= 1e-5 * max(abs(a), abs(f)) + 1e-9 * scale


class TestOptimalParameters:
    def test_benchmark_solution(self):
        sol = aoe_parameters(0.6092, Branch.MINUS_MINUS)
        assert sol.alpha_star == pytest.approx(ALPHA_STAR, abs=1e-10)
        assert sol.beta_star == pytest.approx(BETA_STAR, abs=1e-10)
        assert sol.is_real
        assert sol.branch is Branch.MINUS_MINUS

    def test_plus_plus_is_point_reflection(self):
        a = aoe_parameters(0.6092, Branch.MINUS_MINUS)
        b = aoe_parameters(0.6092, Branch.PLUS_PLUS)
        assert b.alpha_star == pytest.approx(1.0 - a.alpha_star, abs=1e-14)
        assert b.beta_star == pytest.approx(1.0 - a.beta_star, abs=1e-14)

    def test_c_one_gives_ratio_estimator(self):
        sol = aoe_parameters(1.0, Branch.MINUS_MINUS)
        assert sol.alpha_star == pytest.approx(0.0, abs=1e-15)
        assert sol.beta_star == pytest.approx(0.0, abs=1e-15)

    def test_negative_c_keeps_constraint(self):
        # pinned: u = sqrt(1/3) and v = -sqrt(3), so beta_star = (1+sqrt(3))/2.
        sol = aoe_parameters(-1.0, Branch.MINUS_MINUS)
        assert sol.alpha_star == pytest.approx(0.2113248654, abs=1e-9)
        assert sol.beta_star == pytest.approx(1.3660254038, abs=1e-9)
        residual = (1 - 2 * sol.alpha_star) * (1 - 2 * sol.beta_star) - (-1.0)
        assert abs(residual) <= 1e-10

    def test_c_zero_degenerates_to_center(self):
        sol = aoe_parameters(0.0)
        assert (sol.alpha_star, sol.beta_star) == (0.5, 0.5)
        assert sol.is_real

    def test_pole_at_half(self):
        with pytest.raises(PoleAtHalfError):
            aoe_parameters(0.5)

    def test_complex_region_flagged(self):
        sol = aoe_parameters(0.25)
        assert not sol.is_real
        assert math.isnan(sol.alpha_star) and math.isnan(sol.beta_star)

    @given(
        c=st.floats(min_value=-5.0, max_value=0.0)
        | st.floats(min_value=0.5 + 1e-9, max_value=5.0),
        branch=st.sampled_from(list(Branch)),
    )
    @settings(max_examples=200, deadline=None)
    def test_constraint_residual(self, c, branch):
        sol = aoe_parameters(c, branch)
        assert sol.is_real
        residual = (1 - 2 * sol.alpha_star) * (1 - 2 * sol.beta_star) - c
        assert abs(residual) <= 1e-10


    @given(
        c=st.floats(min_value=-8e307, max_value=0.0, exclude_max=True)
        | st.floats(min_value=0.5, max_value=8e307, exclude_min=True),
        branch=st.sampled_from(list(Branch)),
    )
    @settings(max_examples=200, deadline=None)
    def test_unchanged_below_the_overflow_guard(self, c, branch):
        u = math.sqrt(c / (2.0 * c - 1.0))
        if branch is Branch.PLUS_PLUS:
            u = -u
        sol = aoe_parameters(c, branch)
        assert (sol.alpha_star, sol.beta_star) == ((1.0 - u) / 2.0, (1.0 - c / u) / 2.0)

    @given(
        c=st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)
        | st.floats(min_value=0.5, exclude_min=True, allow_infinity=False),
        branch=st.sampled_from(list(Branch)),
    )
    @example(c=-5e-324, branch=Branch.MINUS_MINUS)
    @example(c=0.5000000000000001, branch=Branch.MINUS_MINUS)
    @example(c=1.27e308, branch=Branch.PLUS_PLUS)
    @example(c=-1.7976931348623157e308, branch=Branch.MINUS_MINUS)
    @settings(max_examples=500, deadline=None)
    def test_equals_the_two_form_radicand(self, c, branch):
        # The reference: c / (2c - 1), or 1 / (2 - 1/c) where 2c - 1 overflows.
        twice = 2.0 * c - 1.0
        u = math.sqrt(c / twice if math.isfinite(twice) else 1.0 / (2.0 - 1.0 / c))
        if branch is Branch.PLUS_PLUS:
            u = -u
        if not math.isfinite(c / u):
            with pytest.raises(InvalidInputError):
                aoe_parameters(c, branch)
            return
        sol = aoe_parameters(c, branch)
        expected = ((1.0 - u) / 2.0, (1.0 - c / u) / 2.0)
        assert [v.hex() for v in (sol.alpha_star, sol.beta_star)] == [v.hex() for v in expected]

    @pytest.mark.parametrize("c", [1e308, -1e308, 9e307, -9e307])
    def test_huge_c_where_two_c_overflows(self, c):
        for branch in Branch:
            sol = aoe_parameters(c, branch)
            assert sol.is_real
            assert math.isfinite(sol.alpha_star) and math.isfinite(sol.beta_star)
            assert abs(1.0 - 2.0 * sol.alpha_star) == pytest.approx(math.sqrt(0.5))
            u = 1.0 - 2.0 * sol.alpha_star
            assert u * (1.0 - 2.0 * sol.beta_star) == pytest.approx(c, rel=1e-12)

    @pytest.mark.parametrize("c", [1.7e308, -1.7e308])
    def test_overflowing_beta_is_rejected(self, c):
        with pytest.raises(InvalidInputError):
            aoe_parameters(c)


class TestBiasAlongHyperbola:
    def test_zero_at_trivial_point(self):
        stx = stats_with_c(0.0)
        d = SamplingDesign(10, 40)
        assert aoe_bias1(0.5, 0.0, stx, d) == 0.0

    def test_vanishes_at_optimal_beta(self, bench_stats, bench_design):
        scale = bench_design.fpc_rate * bench_stats.cv_x**2 * bench_stats.mean_y
        sol = aoe_parameters(0.6092)
        at_star = aoe_bias1(sol.beta_star, 0.6092, bench_stats, bench_design)
        assert abs(at_star) <= 1e-12 * scale
        # The four-decimal beta leaves the rounding residue ~1.5e-5 * scale.
        at_rounded = aoe_bias1(0.3176, 0.6092, bench_stats, bench_design)
        assert abs(at_rounded) <= 2e-5 * scale
        assert at_rounded == pytest.approx(
            scale * (0.6092 * (1 - 2 * 0.6092) + (1 - 2 * 0.3176) ** 2) / 2,
            rel=1e-12,
        )

    def test_strictly_positive_inside_complex_region(self, bench_stats, bench_design):
        # c (1 - 2c) > 0 for 0 < c < 1/2, and the beta term only adds.
        for beta in (-1.0, 0.0, 0.25, 0.5, 0.9, 2.0):
            assert aoe_bias1(beta, 0.25, bench_stats, bench_design) > 0.0


class TestDominance:
    def test_interval_against_ratio_baseline(self):
        beta, c = 0.3176, 0.6092
        # pinned closed-form endpoints of the alpha interval
        left = beta / (2 * beta - 1)
        right = (beta + c - 1) / (2 * beta - 1)
        assert left == pytest.approx(-0.87061404, abs=1e-8)
        assert right == pytest.approx(0.20065789, abs=1e-8)
        eps = 1e-6
        assert not dominates(Baseline.RATIO, left - eps, beta, c)
        assert dominates(Baseline.RATIO, left + eps, beta, c)
        assert dominates(Baseline.RATIO, right - eps, beta, c)
        assert not dominates(Baseline.RATIO, right + eps, beta, c)

    def test_center_never_beats_sample_mean(self):
        assert not dominates(Baseline.SAMPLE_MEAN, 0.5, 0.5, 0.6092)
        assert not dominates(Baseline.SAMPLE_MEAN, 0.5, 0.5, 0.0)

    @given(
        alpha=st.floats(min_value=-2.0, max_value=3.0),
        beta=st.floats(min_value=-2.0, max_value=3.0),
        c=st.floats(min_value=-1.8, max_value=1.8),
        over=st.sampled_from(list(Baseline)),
    )
    @settings(max_examples=300, deadline=None)
    def test_flag_is_sign_of_mse_difference(self, alpha, beta, c, over):
        stx = stats_with_c(c)
        d = SamplingDesign(25, 80)
        spec = {
            Baseline.SAMPLE_MEAN: SampleMean(),
            Baseline.RATIO: Ratio(),
            Baseline.PRODUCT: Product(),
        }[over]
        diff = family_theory(spec, stx, d).mse1 - mse1(alpha, beta, stx, d)
        scale = d.fpc_rate * stx.mean_y**2 * stx.cv_x**2
        assume(abs(diff) > 1e-12 * scale)
        assert dominates(over, alpha, beta, c) == (diff > 0)


class TestRelativeEfficiency:
    def test_benchmark_table(self, bench_stats, bench_design):
        re = lambda den: 100.0 * relative_efficiency(
            SampleMean(), den, bench_stats, bench_design
        )
        assert re(Ratio()) == pytest.approx(196.1232, abs=5e-4)
        assert re(Product()) == pytest.approx(16.73153, abs=5e-5)
        assert re(UnbiasedAOE(bench_stats.c)) == pytest.approx(597.5724, abs=5e-4)

    def test_design_independence(self, bench_stats):
        a = relative_efficiency(SampleMean(), Ratio(), bench_stats, SamplingDesign(5, 17))
        b = relative_efficiency(SampleMean(), Ratio(), bench_stats, SamplingDesign(112, 365))
        assert a == pytest.approx(b, rel=1e-14)

    def test_degenerate_denominator(self):
        stx = SummaryStats.from_moments(1.0, 1.0, 1.0, 1.0, 1.0)
        d = SamplingDesign(4, 9)
        with pytest.raises(DegenerateMseError):
            relative_efficiency(SampleMean(), UnbiasedAOE(stx.c), stx, d)


class TestFamilyTheory:
    def test_rpr_spec_gives_the_family_closed_forms(self, bench_stats, bench_design):
        stats, d = bench_stats, bench_design
        for alpha, beta in [(0.1, 0.2), (-0.5, 0.9), (1.3, -0.4)]:
            out = family_theory(RatioProductRatio(alpha, beta), stats, d)
            u, v = 1.0 - 2.0 * alpha, 1.0 - 2.0 * beta
            assert out.bias1 == d.fpc_rate * stats.cv_x**2 * stats.mean_y * (
                (1.0 - alpha - beta) * v - u * v * stats.c
            )
            assert out.mse1 == d.fpc_rate * stats.mean_y**2 * (
                stats.cv_y**2 + stats.cv_x**2 * (u * v) * (u * v - 2.0 * stats.c)
            )

    @given(stx=stats_strategy())
    @settings(max_examples=120, deadline=None)
    def test_display_bias_formulas(self, stx):
        d = SamplingDesign(30, 120)
        c = stx.c
        scale = d.fpc_rate * stx.cv_x**2 * stx.mean_y
        cases = [
            (Ratio(), (1 - c)),
            (Product(), c),
            (SrivastavaPower(-c), c * (1 - c) / 2),
            (SahaiTransformed(c), c * (1 - 3 * c) / 2),
            (SinghRatioProduct((c + 1) / 2), (1 + 2 * c) * (1 - c) / 2),
            (Reddy(c), 0.0),
            (UnbiasedAOE(c), 0.0),
        ]
        for spec, factor in cases:
            out = family_theory(spec, stx, d)
            assert out.bias1 == pytest.approx(
                scale * factor, rel=1e-10, abs=1e-14 * abs(scale)
            )

    @given(stx=stats_strategy())
    @settings(max_examples=120, deadline=None)
    def test_tuned_members_share_minimal_mse(self, stx):
        d = SamplingDesign(30, 120)
        c = stx.c
        floor = minimal_mse1(stx, d)
        members = [
            SrivastavaPower(-c),
            Reddy(c),
            SahaiTransformed(c),
            SinghRatioProduct((c + 1) / 2),
            UnbiasedAOE(c),
        ]
        for spec in members:
            assert family_theory(spec, stx, d).mse1 == pytest.approx(floor, rel=1e-11)

    def test_transformed_member_negative_bias_at_benchmark(self, bench_stats, bench_design):
        out = family_theory(SahaiTransformed(0.6092), bench_stats, bench_design)
        assert out.bias1 < 0.0

    def test_reddy_unbiased_everywhere(self, bench_stats, bench_design):
        out = family_theory(Reddy(bench_stats.c), bench_stats, bench_design)
        assert out.bias1 == pytest.approx(0.0, abs=1e-18)


def reference_surface(kind, alpha_range, c_range, beta_range=None):
    """The row-by-row grid surface_grid must equal bit for bit: one Python
    loop per axis, one dominates/biasfree_betas call per row."""
    alphas, cs = (
        [s + t * i for i in range(n)]
        for s, t, n in (_axis(alpha_range, "alpha"), _axis(c_range, "c"))
    )
    rows = []
    if kind is SurfaceKind.BIAS_FREE:
        for a in alphas:
            for c in cs:
                trivial, sheet = biasfree_betas(a, c)
                rows.append((a, trivial, c))
                rows.append((a, sheet, c))
    elif kind is SurfaceKind.AOE:
        for a in alphas:
            u = 1.0 - 2.0 * a
            if abs(u) < 1e-12:
                continue
            for c in cs:
                rows.append((a, (1.0 - c / u) / 2.0, c))
    else:
        s, t, n = _axis(beta_range, "beta")
        for a in alphas:
            for b in [s + t * i for i in range(n)]:
                for c in cs:
                    flag = (
                        dominates(Baseline.SAMPLE_MEAN, a, b, c)
                        and dominates(Baseline.RATIO, a, b, c)
                        and dominates(Baseline.PRODUCT, a, b, c)
                    )
                    rows.append((a, b, c, int(flag)))
    width = 4 if kind is SurfaceKind.DOMINANCE else 3
    return np.array(rows, dtype=float).reshape(-1, width)


def assert_same_bits(got, want):
    assert got.dtype == np.float64
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def grid_range(draw, max_count=6):
    """An inclusive 'start:stop:step' range; the slack keeps the step from
    dividing the span, and count 1 gives a single-point axis."""
    start = draw(st.one_of(
        st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5]),
        st.floats(min_value=-3.0, max_value=3.0),
    ))
    step = draw(st.one_of(
        st.sampled_from([0.05, 0.1, 0.25, 0.3, 1.0]),
        st.floats(min_value=1e-3, max_value=2.0),
    ))
    count = draw(st.integers(min_value=1, max_value=max_count))
    slack = draw(st.sampled_from([0.0, 0.4, 0.9]))
    return start, start + step * (count - 1 + slack), step


class TestSurfaceGrid:
    @pytest.mark.parametrize(
        "kind, alpha, c, beta",
        [
            # alpha = -1 + 0.05 * 30 misses 1/2 by an ulp: still a pole.
            (SurfaceKind.AOE, (-1.0, 1.0, 0.05), (0.0, 2.0, 0.05), None),
            (SurfaceKind.AOE, (0.0, 1.0, 0.25), (-1.0, 1.0, 0.3), None),
            (SurfaceKind.AOE, (0.5, 0.5, 1.0), (0.0, 1.0, 0.5), None),
            (SurfaceKind.BIAS_FREE, (-1.0, 1.0, 0.05), (-1.0, 1.0, 0.05), None),
            (SurfaceKind.DOMINANCE, (-1.0, 1.0, 0.1), (0.0, 2.0, 0.15), (-1.0, 1.0, 0.1)),
            (SurfaceKind.DOMINANCE, (-0.34, -0.34, 1.0), (0.6092, 0.6092, 1.0), (0.32, 0.32, 1.0)),
        ],
    )
    def test_matches_reference(self, kind, alpha, c, beta):
        assert_same_bits(
            surface_grid(kind, alpha, c, beta), reference_surface(kind, alpha, c, beta)
        )

    @given(
        kind=st.sampled_from(list(SurfaceKind)),
        alpha=grid_range(),
        c=grid_range(),
        beta=grid_range(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_property(self, kind, alpha, c, beta):
        # Only the region surface takes a beta range.
        beta = beta if kind is SurfaceKind.DOMINANCE else None
        assert_same_bits(
            surface_grid(kind, alpha, c, beta), reference_surface(kind, alpha, c, beta)
        )

    def test_biasfree_sheet_at_alpha_half(self):
        rows = surface_grid(
            SurfaceKind.BIAS_FREE, (0.5, 0.5, 1.0), (-1.0, 1.0, 0.25)
        )
        assert len(rows) > 0
        for alpha, beta, c in rows:
            assert alpha == 0.5
            assert beta == pytest.approx(0.5, abs=1e-12)

    def test_biasfree_rows_zero_bias(self, bench_stats, bench_design):
        rows = surface_grid(
            SurfaceKind.BIAS_FREE, (-1.0, 1.0, 0.5), (0.6092, 0.6092, 1.0)
        )
        stx = bench_stats
        for alpha, beta, c in rows:
            local = SummaryStats.from_moments(
                stx.mean_y, stx.mean_x, stx.sd_y, stx.sd_x, c * stx.cv_x / stx.cv_y
            )
            assert abs(bias1(alpha, beta, local, bench_design)) <= 1e-12

    def test_aoe_rows_satisfy_constraint(self):
        rows = surface_grid(SurfaceKind.AOE, (-1.0, 1.0, 0.1), (0.6092, 0.6092, 1.0))
        for alpha, beta, c in rows:
            assert abs((1 - 2 * alpha) * (1 - 2 * beta) - c) <= 1e-12
        # The alpha = 1/2 pole never emits a row.
        assert all(abs(a - 0.5) > 1e-9 for a, _, _ in rows)

    def test_aoe_keeps_huge_alphas_without_a_warning(self):
        # 1 - 2 * alpha overflows to -inf, which is off the pole.
        rows = surface_grid(SurfaceKind.AOE, (0.0, 1e308, 2e307), (0.0, 1.0, 1.0))
        assert rows[::2, 0].tolist() == [0.0, 2e307, 4e307, 6e307, 8e307, 1e308]
        assert rows[:, 1].tolist() == [0.5, 0.0] + [0.5] * 10

    def test_range_whose_span_overflows_ends_at_its_stop(self):
        # stop - start overflows a double: the count comes from the halved
        # span, and a value whose start + i*step overflows is built halved.
        with np.errstate(all="raise"):
            region = surface_grid(
                SurfaceKind.DOMINANCE, (0.0, 1.0, 1.0), (0.0, 1.0, 1.0), (-1e308, 1e308, 5e307)
            )
            aoe = surface_grid(SurfaceKind.AOE, (-1e308, 1e308, 1e308), (0.0, 1.0, 1.0))
        assert region[:10:2, 1].tolist() == [-1e308, -5e307, 0.0, 5e307, 1e308]
        assert len(region) == 2 * 5 * 2
        assert aoe[::2, 0].tolist() == [-1e308, 0.0, 1e308]
        for c_range in [(0.0, 1.0, 1e-300), (-1e308, 1e308, 1e-300)]:
            with pytest.raises(TooLargeError, match="^c range exceeds"):
                surface_grid(SurfaceKind.AOE, (0.0, 1.0, 1.0), c_range)

    def test_dominance_empty_at_c_zero(self):
        rows = surface_grid(
            SurfaceKind.DOMINANCE,
            (-1.0, 2.0, 0.25),
            (0.0, 0.0, 1.0),
            (-1.0, 2.0, 0.25),
        )
        assert len(rows) > 0
        assert all(indicator == 0 for _, _, _, indicator in rows)

    def test_dominance_marks_benchmark_optimum(self):
        rows = surface_grid(
            SurfaceKind.DOMINANCE,
            (-0.34, -0.34, 1.0),
            (0.6092, 0.6092, 1.0),
            (0.32, 0.32, 1.0),
        )
        assert len(rows) == 1
        assert rows[0][3] == 1

    def test_inclusive_endpoints(self):
        rows = surface_grid(SurfaceKind.AOE, (0.0, 1.0, 0.25), (1.0, 1.0, 1.0))
        alphas = sorted({r[0] for r in rows})
        assert alphas == pytest.approx([0.0, 0.25, 0.75, 1.0])  # 0.5 is the pole

    def test_bad_ranges_rejected(self):
        with pytest.raises(InvalidInputError):
            surface_grid(SurfaceKind.AOE, (0.0, 1.0, -0.1), (0.0, 1.0, 0.5))
        with pytest.raises(InvalidInputError):
            surface_grid(SurfaceKind.AOE, (1.0, 0.0, 0.1), (0.0, 1.0, 0.5))
        with pytest.raises(InvalidInputError):
            surface_grid(
                SurfaceKind.DOMINANCE, (0.0, 1.0, 0.5), (0.0, 1.0, 0.5), None
            )

    @pytest.mark.parametrize("kind", [SurfaceKind.BIAS_FREE, SurfaceKind.AOE])
    def test_beta_range_is_refused_where_beta_is_computed(self, kind):
        with pytest.raises(
            InvalidInputError,
            match=f"^the {kind.value} surface computes its beta and takes no beta range$",
        ):
            surface_grid(kind, (0.0, 1.0, 0.5), (0.0, 1.0, 0.5), (0.0, 1.0, 0.5))

    def test_region_needs_a_beta_range(self):
        with pytest.raises(InvalidInputError, match="^the region surface needs a beta range$"):
            surface_grid(SurfaceKind.DOMINANCE, (0.0, 1.0, 0.5), (0.0, 1.0, 0.5))

    @pytest.mark.parametrize("beta", [None, (0.0, 1.0, 0.5)])
    def test_unknown_kind_is_named(self, beta):
        with pytest.raises(InvalidInputError, match="^unknown surface kind 'region'$"):
            surface_grid("region", (0.0, 1.0, 0.5), (0.0, 1.0, 0.5), beta)

    @pytest.mark.parametrize(
        "kind, alpha, c, beta",
        [
            (SurfaceKind.DOMINANCE, (0.0, 1.0, 1e-12), (0.6, 0.6, 1.0), (0.0, 1.0, 0.5)),
            (SurfaceKind.AOE, (0.0, 1e300, 1e-300), (0.6, 0.6, 1.0), None),
            (SurfaceKind.DOMINANCE, (0.0, 1.0, 1e-3), (0.0, 1.0, 1e-3), (0.0, 1.0, 0.1)),
            (SurfaceKind.BIAS_FREE, (0.0, 1.0, 2e-4), (0.0, 1.0, 1e-3), None),
        ],
    )
    def test_over_budget_grids_rejected_before_building(self, kind, alpha, c, beta):
        with pytest.raises(TooLargeError):
            surface_grid(kind, alpha, c, beta)


def reference_block(grid, start, stop):
    """Rows [start, stop) of a grid, evaluated row by row: each row's axis
    indices from np.unravel_index, its alpha, beta and c gathered, and the
    computed column from those gathered values."""
    alphas, betas, cs = grid.columns[:3]
    index = np.unravel_index(np.arange(start, stop), grid.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        if grid.kind is SurfaceKind.DOMINANCE:
            ia, ib, ic = index
            a, b, c = alphas[ia], betas[ib], cs[ic]
            flag = (
                dominates(Baseline.SAMPLE_MEAN, a, b, c)
                & dominates(Baseline.RATIO, a, b, c)
                & dominates(Baseline.PRODUCT, a, b, c)
            )
            return [ia, ib, ic, flag.astype(np.intp)]
        ia, ic = index[:2]
        a, c = alphas[ia], cs[ic]
        if grid.kind is SurfaceKind.BIAS_FREE:
            trivial, sheet = biasfree_betas(a, c)
            return [ia, np.where(index[2] == 0, trivial, sheet), ic]
        return [ia, (1.0 - c / (1.0 - 2.0 * a)) / 2.0, ic]


def assert_same_columns(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


@st.composite
def block_axis(draw):
    """A small surface axis: a fixed range (signed zeros, the alpha = 1/2
    pole hit exactly or missed by an ulp, values whose products overflow)
    or a drawn one."""
    fixed = st.sampled_from([
        (-0.0, -0.0, 1.0),
        (-0.0, 1.0, 0.5),
        (0.0, 1.0, 0.25),
        (0.5, 0.5, 1.0),
        (-1.0, 1.0, 0.05),
        (-8e307, 8e307, 4e307),
        (1e300, 4e306, 1e306),
        (-1e200, 1e200, 1e200),
    ])
    return draw(st.one_of(fixed, grid_range(max_count=5)))


class TestSurfaceBlock:
    @given(
        kind=st.sampled_from(list(SurfaceKind)),
        alpha=block_axis(),
        c=block_axis(),
        beta=block_axis(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_block_matches_row_by_row_reference(self, kind, alpha, c, beta, data):
        grid = _surface(kind, alpha, c, beta if kind is SurfaceKind.DOMINANCE else None)
        blocks = [(0, grid.rows)]
        for _ in range(4):
            start = data.draw(st.integers(0, grid.rows))
            blocks.append((start, data.draw(st.integers(start, grid.rows))))
        for start, stop in blocks:
            assert_same_columns(grid.block(start, stop), reference_block(grid, start, stop))

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 41, 83, 5000, 8192])
    def test_consecutive_blocks_match_reference(self, size):
        grid = _surface(SurfaceKind.DOMINANCE, (-1.0, 1.0, 0.1), (0.0, 2.0, 0.05), (-1.0, 1.0, 0.1))
        for start in range(0, grid.rows, size):
            stop = min(start + size, grid.rows)
            assert_same_columns(grid.block(start, stop), reference_block(grid, start, stop))

    # 500 001 c values: a block of 2^13 rows that straddles two nodes must
    # not evaluate the whole c axis of either.
    LONG_C = (0.0, 500_000.0, 1.0)
    STRADDLE = (500_001 - 4096, 500_001 + 4096)

    def test_straddling_region_block_evaluates_its_rows_only(self, monkeypatch):
        grid = _surface(SurfaceKind.DOMINANCE, (0.0, 0.0, 1.0), self.LONG_C, (0.0, 1.0, 1.0))
        assert grid.shape == (1, 2, 500_001)
        start, stop = self.STRADDLE
        sizes = []

        def counting(over, alpha, beta, c):
            sizes.append(np.broadcast(alpha, beta, c).size)
            return dominates(over, alpha, beta, c)

        monkeypatch.setattr(theory, "dominates", counting)
        got = grid.block(start, stop)
        monkeypatch.undo()
        assert_same_columns(got, reference_block(grid, start, stop))
        assert sizes and max(sizes) <= 3 * (stop - start)

    def test_straddling_aoe_block_allocates_for_its_rows_only(self):
        grid = _surface(SurfaceKind.AOE, (0.0, 0.25, 0.25), self.LONG_C)
        assert grid.shape == (2, 500_001)
        start, stop = self.STRADDLE
        tracemalloc.start()
        try:
            got = grid.block(start, stop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_columns(got, reference_block(grid, start, stop))
        # Less than one array of 3 * (stop - start) doubles per column.
        assert peak <= len(got) * 3 * (stop - start) * 8
