"""Point-estimator identities, singularities, and token round-trips."""
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rpratio.errors import InvalidInputError, SingularDenominatorError
from rpratio.estimators import (
    ESTIMATOR_KINDS,
    Product,
    Ratio,
    RatioProductRatio,
    Reddy,
    SahaiTransformed,
    SampleMean,
    SampleSummary,
    SinghRatioProduct,
    SrivastavaPower,
    UnbiasedAOE,
    _pow,
    _split_estimators,
    estimate,
    estimator_token,
    parse_estimator,
    symmetry_partner,
)
from rpratio.theory import aoe_parameters

S_DOUBLING = SampleSummary(ybar=2.0, xbar=4.0, Xbar=8.0)

# Sample summaries in the few-percent-deviation regime the expansion
# machinery is built for: xbar close to Xbar, positive values.
near_summaries = st.builds(
    SampleSummary,
    ybar=st.floats(min_value=0.1, max_value=10.0),
    xbar=st.floats(min_value=0.9, max_value=1.1),
    Xbar=st.just(1.0),
)

params = st.floats(min_value=-3.0, max_value=4.0, allow_nan=False)


class TestCornerIdentities:
    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1.0, 1.0)])
    def test_ratio_corners(self, alpha, beta):
        want = estimate(Ratio(), S_DOUBLING)
        assert want == 4.0
        assert estimate(RatioProductRatio(alpha, beta), S_DOUBLING) == pytest.approx(
            want, rel=1e-14
        )

    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (0.0, 1.0)])
    def test_product_corners(self, alpha, beta):
        want = estimate(Product(), S_DOUBLING)
        assert want == 1.0
        assert estimate(RatioProductRatio(alpha, beta), S_DOUBLING) == pytest.approx(
            want, rel=1e-14
        )

    def test_sample_mean_is_ybar(self):
        assert estimate(SampleMean(), S_DOUBLING) == 2.0


class TestFamilyIdentities:
    @given(alpha=params, s=near_summaries)
    @settings(max_examples=150, deadline=None)
    def test_beta_half_collapses_to_sample_mean(self, alpha, s):
        value = estimate(RatioProductRatio(alpha, 0.5), s)
        assert value == pytest.approx(s.ybar, rel=1e-12)

    @given(alpha=params, beta=params, s=near_summaries)
    @settings(max_examples=200, deadline=None)
    def test_point_reflection_invariance(self, alpha, beta, s):
        spec = RatioProductRatio(alpha, beta)
        partner = RatioProductRatio(*symmetry_partner(alpha, beta))
        try:
            a = estimate(spec, s)
        except SingularDenominatorError:
            assume(False)
        b = estimate(partner, s)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12)

    @given(
        lam=st.floats(min_value=0.01, max_value=50.0),
        alpha=params,
        beta=params,
        s=near_summaries,
    )
    @settings(max_examples=150, deadline=None)
    def test_scale_equivariance_in_y(self, lam, alpha, beta, s):
        spec = RatioProductRatio(alpha, beta)
        scaled = SampleSummary(ybar=lam * s.ybar, xbar=s.xbar, Xbar=s.Xbar)
        try:
            a = estimate(spec, s)
        except SingularDenominatorError:
            assume(False)
        assert estimate(spec, scaled) == pytest.approx(lam * a, rel=1e-12, abs=1e-12)

    def test_symmetry_partner_values(self):
        assert symmetry_partner(0.0, 0.0) == (1.0, 1.0)
        assert symmetry_partner(0.5, 0.5) == (0.5, 0.5)
        a, b = symmetry_partner(-0.3349, 0.3176)
        assert a == pytest.approx(1.3349)
        assert b == pytest.approx(0.6824)


ALL_SPECS = [
    SampleMean(),
    Ratio(),
    Product(),
    RatioProductRatio(-0.3349, 0.3176),
    UnbiasedAOE(0.6092),
    SrivastavaPower(-0.6092),
    Reddy(0.6092),
    SahaiTransformed(0.6092),
    SinghRatioProduct(0.8046),
]


class TestAnchor:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=estimator_token)
    def test_every_estimator_returns_ybar_when_xbar_hits_Xbar(self, spec):
        s = SampleSummary(ybar=0.5832, xbar=0.6277, Xbar=0.6277)
        assert estimate(spec, s) == pytest.approx(s.ybar, rel=1e-14)


class TestOptimalClosedForm:
    """The closed form at moment ratio c versus the two-parameter family."""

    S_BENCH = SampleSummary(ybar=0.58, xbar=0.60, Xbar=0.6277)

    def test_unrounded_parameters_reproduce_closed_form_exactly(self):
        sol = aoe_parameters(0.6092)
        lhs = estimate(RatioProductRatio(sol.alpha_star, sol.beta_star), self.S_BENCH)
        rhs = estimate(UnbiasedAOE(0.6092), self.S_BENCH)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_four_decimal_parameters_agree_to_rounding_scale(self):
        # Rounding (alpha, beta) to 4 decimals moves the hyperbola product
        # off c by ~5.7e-5, which shows up as a relative gap of about
        # 5.7e-5 * |xbar - Xbar| / Xbar; here that is ~2.5e-6.
        lhs = estimate(RatioProductRatio(-0.3349, 0.3176), self.S_BENCH)
        rhs = estimate(UnbiasedAOE(0.6092), self.S_BENCH)
        assert lhs == pytest.approx(rhs, rel=5e-6)

    @given(
        c=st.floats(min_value=-2.0, max_value=-0.05) | st.floats(min_value=0.55, max_value=2.0),
        s=st.builds(
            SampleSummary,
            ybar=st.floats(min_value=0.1, max_value=10.0),
            xbar=st.floats(min_value=0.7, max_value=1.3),
            Xbar=st.just(1.0),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_holds_across_admissible_c(self, c, s):
        sol = aoe_parameters(c)
        lhs = estimate(RatioProductRatio(sol.alpha_star, sol.beta_star), s)
        rhs = estimate(UnbiasedAOE(c), s)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestSingularities:
    def test_family_bracket_denominator(self):
        s = SampleSummary(ybar=1.0, xbar=-8.0, Xbar=8.0)
        with pytest.raises(SingularDenominatorError) as err:
            estimate(RatioProductRatio(0.3, 0.5), s)
        assert err.value.denominator == 0.0

    def test_ratio_needs_nonzero_xbar(self):
        s = SampleSummary(ybar=1.0, xbar=0.0, Xbar=2.0)
        with pytest.raises(SingularDenominatorError):
            estimate(Ratio(), s)
        with pytest.raises(SingularDenominatorError):
            estimate(SinghRatioProduct(0.3), s)

    def test_singh_product_corner_tolerates_zero_xbar(self):
        s = SampleSummary(ybar=1.0, xbar=0.0, Xbar=2.0)
        assert estimate(SinghRatioProduct(0.0), s) == 0.0

    def test_reddy_denominator(self):
        # Xbar + k (xbar - Xbar) = 2 + 1*(0 - 2) = 0
        s = SampleSummary(ybar=1.0, xbar=0.0, Xbar=2.0)
        with pytest.raises(SingularDenominatorError):
            estimate(Reddy(1.0), s)

    def test_power_transform_leaves_domain(self):
        s = SampleSummary(ybar=1.0, xbar=-1.0, Xbar=1.0)
        with pytest.raises(SingularDenominatorError):
            estimate(SrivastavaPower(0.5), s)
        with pytest.raises(SingularDenominatorError):
            estimate(SahaiTransformed(0.5), s)

    def test_product_never_singular(self):
        s = SampleSummary(ybar=1.0, xbar=0.0, Xbar=2.0)
        assert estimate(Product(), s) == 0.0


class TestSampleSummaryValidation:
    def test_zero_Xbar_rejected(self):
        with pytest.raises(InvalidInputError):
            SampleSummary(ybar=1.0, xbar=1.0, Xbar=0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            SampleSummary(ybar=math.nan, xbar=1.0, Xbar=1.0)
        with pytest.raises(InvalidInputError):
            SampleSummary(ybar=1.0, xbar=math.inf, Xbar=1.0)


PARAMETERIZED_KINDS = [k for k in ESTIMATOR_KINDS.values() if fields(k)]


class TestNonFiniteParameters:
    @pytest.mark.parametrize("kind", PARAMETERIZED_KINDS, ids=lambda k: k.name)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    def test_every_field_of_every_kind_must_be_finite(self, kind, bad):
        for f in fields(kind):
            args = {g.name: 0.25 for g in fields(kind)}
            args[f.name] = bad
            with pytest.raises(InvalidInputError) as err:
                kind(**args)
            assert str(err.value) == (
                f"estimator {kind.name}: {f.name} must be finite, got {bad!r}"
            )

    def test_numpy_floats_are_accepted(self):
        assert Reddy(np.float64(0.5)) == Reddy(0.5)

    @pytest.mark.parametrize("kind", PARAMETERIZED_KINDS, ids=lambda k: k.name)
    @pytest.mark.parametrize("bad", ["0.5", None, True, 1j], ids=repr)
    def test_every_field_of_every_kind_must_be_a_real_number(self, kind, bad):
        for f in fields(kind):
            args = {g.name: 0.25 for g in fields(kind)}
            args[f.name] = bad
            with pytest.raises(InvalidInputError) as err:
                kind(**args)
            assert str(err.value) == (
                f"estimator {kind.name}: {f.name} must be a real number, got {bad!r}"
            )

    @pytest.mark.parametrize("kind", PARAMETERIZED_KINDS, ids=lambda k: k.name)
    def test_numpy_and_integer_parameters_are_stored_as_float(self, kind):
        values = [np.float32(0.5), np.int64(2), 1][: len(fields(kind))]
        spec = kind(*values)
        assert spec == kind(*(float(v) for v in values))
        assert all(type(getattr(spec, f.name)) is float for f in fields(kind))

    def test_integer_beyond_double_range_is_named(self):
        with pytest.raises(InvalidInputError) as err:
            Reddy(10**400)
        assert str(err.value) == f"estimator reddy: k must be finite, got {10**400!r}"


class TestTokens:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=estimator_token)
    def test_round_trip(self, spec):
        assert parse_estimator(estimator_token(spec)) == spec

    def test_parse_accepts_whitespace(self):
        assert parse_estimator("  mean ") == SampleMean()

    def test_parse_family_pair(self):
        spec = parse_estimator("rpr:-0.3349,0.3176")
        assert spec == RatioProductRatio(-0.3349, 0.3176)

    @pytest.mark.parametrize(
        "token",
        ["median", "rpr:1.0", "rpr:a,b", "aoe:", "aoe:xyz", "ratio:1", "", "mean:1"],
    )
    def test_bad_tokens_rejected(self, token):
        with pytest.raises(InvalidInputError):
            parse_estimator(token)

    def test_error_lists_valid_forms(self):
        with pytest.raises(InvalidInputError) as err:
            parse_estimator("bogus")
        assert str(err.value) == (
            "unknown estimator token 'bogus'; valid forms: mean, ratio, product, "
            "rpr:<alpha>,<beta>, aoe:<c>, srivastava:<k>, reddy:<k>, sahai:<k>, "
            "singh:<k>"
        )


def _nonzero(value):
    if value == 0.0:
        raise ZeroDivisionError
    return value


def reference_estimate(spec, yb, xb, Xb):
    """The scalar formulas, one branch per kind: the value, or None on a
    singular draw (a zero divisor, including a family bracket that
    underflows to zero, or math.pow leaving its domain)."""
    try:
        match spec:
            case SampleMean():
                return yb
            case Ratio():
                return yb * Xb / _nonzero(xb)
            case Product():
                return yb * xb / Xb
            case RatioProductRatio(alpha=a, beta=b):
                d1 = _nonzero(b * xb + (1.0 - b) * Xb)
                d2 = _nonzero((1.0 - b) * xb + b * Xb)
                bracket = d2 / d1
                return a * bracket * yb + (1.0 - a) * yb / bracket
            case UnbiasedAOE(c=c):
                t = 2.0 * c * c - c - 1.0
                gap = Xb - xb
                den = _nonzero(4.0 * Xb * xb - t * gap * gap)
                num = 2.0 * (c + 1.0) * Xb * Xb - 2.0 * (c - 1.0) * xb * xb + t * gap * gap
                return num / den * yb
            case SrivastavaPower(k=k):
                return yb * math.pow(xb / Xb, k)
            case Reddy(k=k):
                return yb * Xb / _nonzero(Xb + k * (xb - Xb))
            case SahaiTransformed(k=k):
                return yb * (2.0 - math.pow(xb / Xb, k))
            case SinghRatioProduct(k=k):
                if k == 0.0:
                    return yb * xb / Xb
                return yb * (k * Xb / _nonzero(xb) + (1.0 - k) * xb / Xb)
    except (ZeroDivisionError, ValueError, OverflowError):
        return None
    raise AssertionError(f"no reference for {spec!r}")


finite = st.floats(allow_nan=False, allow_infinity=False)
kind_params = st.sampled_from([0.0, 0.5, 1.0, -0.5, 2.0, -0.6, 5000.0, -5000.0]) | st.floats(
    min_value=-10.0, max_value=10.0
)
any_spec = st.sampled_from(list(ESTIMATOR_KINDS.values())).flatmap(
    lambda kind: st.builds(kind, *(kind_params for _ in fields(kind)))
)


class TestEstimatorListSplitting:
    def test_rpr_comma_survives_anywhere(self):
        assert _split_estimators("mean,ratio,product") == [
            "mean", "ratio", "product",
        ]
        assert _split_estimators("mean,rpr:-0.3,0.4,ratio") == [
            "mean", "rpr:-0.3,0.4", "ratio",
        ]
        assert _split_estimators("rpr:0.1,0.2,rpr:0.3,0.4") == [
            "rpr:0.1,0.2", "rpr:0.3,0.4",
        ]
        assert _split_estimators(" mean , aoe:0.6 ") == ["mean", "aoe:0.6"]

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("bogus:1,mean", ["bogus:1", "mean"]),
            ("rpr,mean", ["rpr", "mean"]),
            ("rpr:0.5", ["rpr:0.5"]),
            ("rpr:,0.5", ["rpr:,0.5"]),
            ("rpr:0.5,,0.6", ["rpr:0.5,", "0.6"]),
            ("ratio:1,2", ["ratio:1", "2"]),
            ("mean,,ratio", ["mean", "ratio"]),
            ("rpr:0.1,rpr:0.2,0.3", ["rpr:0.1,rpr:0.2", "0.3"]),
        ],
    )
    def test_each_kind_takes_as_many_pieces_as_it_has_fields(self, text, tokens):
        assert _split_estimators(text) == tokens

    @given(specs=st.lists(any_spec, min_size=1, max_size=6), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_joined_tokens_split_back_into_their_specs(self, specs, data):
        pieces = ",".join(estimator_token(spec) for spec in specs).split(",")
        pad = st.sampled_from(["", " ", "  "])
        text = ",".join(data.draw(pad) + piece + data.draw(pad) for piece in pieces)
        assert [parse_estimator(t) for t in _split_estimators(text)] == specs


@st.composite
def mean_arrays(draw):
    """Paired sample-mean arrays and an Xbar, with the special points that
    zero a denominator or push a power base out of its domain."""
    Xbar = draw(finite.filter(lambda v: v != 0.0))
    special = st.sampled_from([0.0, -0.0, Xbar, -Xbar, Xbar / 2.0, 1e300, -1e-300])
    pairs = draw(st.lists(st.tuples(finite, finite | special), min_size=1, max_size=12))
    ybar, xbar = zip(*pairs)
    return np.array(ybar), np.array(xbar), Xbar


def same_float(a: float, b: float) -> bool:
    return repr(float(a)) == repr(float(b))


class TestArrayEvaluator:
    @given(spec=any_spec, means=mean_arrays())
    @settings(max_examples=600, deadline=None)
    def test_matches_scalar_reference_bit_for_bit(self, spec, means):
        ybar, xbar, Xbar = means
        values, singular = spec.evaluate(ybar, xbar, Xbar)
        for i, (yb, xb) in enumerate(zip(ybar.tolist(), xbar.tolist())):
            want = reference_estimate(spec, yb, xb, Xbar)
            assert bool(singular[i]) == (want is None), (yb, xb)
            if want is None:
                assert math.isnan(values[i])
            else:
                assert same_float(values[i], want), (yb, xb, values[i], want)

    @given(means=mean_arrays())
    @settings(max_examples=300, deadline=None)
    def test_singh_at_zero_is_the_product_estimator(self, means):
        values, singular = SinghRatioProduct(0.0).evaluate(*means)
        want, want_singular = Product().evaluate(*means)
        assert values.tobytes() == want.tobytes()
        assert singular.tolist() == want_singular.tolist()

    @pytest.mark.parametrize(
        "spec, xbar",
        [
            (Ratio(), 0.0),
            (Ratio(), -0.0),
            (SinghRatioProduct(0.3), 0.0),
            (RatioProductRatio(0.3, 0.5), -2.0),    # beta*xbar + (1-beta)*Xbar
            (RatioProductRatio(0.3, 0.0), 0.0),     # (1-beta)*xbar + beta*Xbar
            (UnbiasedAOE(1.0), 0.0),                # 2c^2 - c - 1 = 0
            (Reddy(1.0), 0.0),
            (SrivastavaPower(-0.6), 0.0),           # 0 ** negative
            (SrivastavaPower(0.5), -1.0),           # negative ** fractional
            (SahaiTransformed(0.5), -1.0),
            (SrivastavaPower(5000.0), 4.0),         # 2 ** 5000 overflows
            (SahaiTransformed(5000.0), 4.0),
        ],
        ids=repr,
    )
    def test_singular_draws(self, spec, xbar):
        values, singular = spec.evaluate([1.0, 1.0], [xbar, 2.0], 2.0)
        assert singular.tolist() == [True, False]
        assert math.isnan(values[0]) and values[1] == 1.0
        assert reference_estimate(spec, 1.0, xbar, 2.0) is None
        with pytest.raises(SingularDenominatorError):
            estimate(spec, SampleSummary(1.0, xbar, 2.0))

    def test_power_overflow_keeps_the_base(self):
        with pytest.raises(SingularDenominatorError) as err:
            estimate(SrivastavaPower(5000.0), SampleSummary(1.0, 4.0, 2.0))
        assert err.value.denominator == 2.0

    def test_rejects_non_finite_means(self):
        with pytest.raises(InvalidInputError):
            Ratio().evaluate([1.0, math.inf], [1.0, 1.0], 1.0)
        with pytest.raises(InvalidInputError):
            Ratio().evaluate([1.0], [1.0], 0.0)


class TestPowerStreaming:
    """The streamed powers against math.pow taken one base at a time
    through _pow, bit for bit, with and without a failing base."""

    EXPONENTS = [-2.0, -0.6, 0.6, 3.0]

    @staticmethod
    def bases(k, bad=None):
        # Inside the domain of k: base 0 only for k > 0, negative bases
        # only for a whole k.  A bad base goes near the end.
        bases = np.random.default_rng(7).uniform(-3.0, 3.0, size=5000)
        bases[:3] = [0.0 if k > 0 else 1.5, -2.0, 1.0]
        if k != int(k):
            bases = np.abs(bases)
        if bad is not None:
            bases[4990] = bad
        return bases

    @staticmethod
    def check(spec, bases):
        want = np.array([_pow(b, spec.k) for b in bases.tolist()])
        values, singular = spec._power(bases, 1.0)
        assert values.dtype == float and values.shape == bases.shape
        assert (values.view(np.uint64) == want.view(np.uint64)).all()
        assert (singular == np.isnan(want)).all()
        return singular

    @pytest.mark.parametrize("k", EXPONENTS)
    @pytest.mark.parametrize("kind", [SrivastavaPower, SahaiTransformed])
    def test_matches_per_element_pow(self, kind, k):
        assert not self.check(kind(k), self.bases(k)).any()

    @pytest.mark.parametrize(
        "bad, k, error",
        [
            (0.0, -2.0, ValueError),        # 0 ** negative
            (0.0, -0.6, ValueError),
            (-0.5, 0.6, ValueError),        # negative ** fractional
            (-0.5, -0.6, ValueError),
            (1e200, 3.0, OverflowError),    # the power overflows
        ],
    )
    @pytest.mark.parametrize("kind", [SrivastavaPower, SahaiTransformed])
    def test_failing_base_late_in_the_array(self, kind, bad, k, error):
        with pytest.raises(error):
            math.pow(bad, k)
        singular = self.check(kind(k), self.bases(k, bad))
        assert np.flatnonzero(singular).tolist() == [4990]

    @pytest.mark.parametrize("kind", [SrivastavaPower, SahaiTransformed])
    def test_empty_and_single_draw(self, kind):
        values, singular = kind(-0.6).evaluate([], [], 2.0)
        assert values.shape == singular.shape == (0,)
        assert values.dtype == float and singular.dtype == bool
        power = _pow(0.7 / 2.0, -0.6)
        want = 1.5 * power if kind is SrivastavaPower else 1.5 * (2.0 - power)
        assert same_float(estimate(kind(-0.6), SampleSummary(1.5, 0.7, 2.0)), want)
        with pytest.raises(SingularDenominatorError):
            estimate(kind(-0.6), SampleSummary(1.5, 0.0, 2.0))


DELTA = 1e-4
STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def check_coefficients(spec) -> bool:
    """Whether coefficients() gives w = -h'(1) and q = h''(1)/2 to 1e-6,
    relative to max(1, |.|), where h(z) = spec.evaluate(1, z, 1) and the
    derivatives come from 5-point stencils of step DELTA.  False when h is
    singular or not finite at a stencil point, where no check is made."""
    h, singular = spec.evaluate(np.ones(5), 1.0 + DELTA * STENCIL, 1.0)
    if singular.any() or not np.isfinite(h).all():
        return False
    m2, m1, h0, p1, p2 = h.tolist()
    slope = (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * DELTA)
    curve = (-m2 + 16.0 * m1 - 30.0 * h0 + 16.0 * p1 - p2) / (12.0 * DELTA * DELTA)
    w, q = spec.coefficients()
    assert abs(w + slope) <= 1e-6 * max(1.0, abs(w)), (spec, w, -slope)
    assert abs(q - curve / 2.0) <= 1e-6 * max(1.0, abs(q)), (spec, q, curve / 2.0)
    return True


class TestCoefficients:
    """coefficients() against numeric derivatives of each kind's evaluator:
    with ybar = Xbar = 1, an estimator is 1 - w*e + q*e^2 + ... at xbar = 1 + e."""

    @pytest.mark.parametrize("kind", list(ESTIMATOR_KINDS.values()), ids=list(ESTIMATOR_KINDS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_match_stencil_derivatives(self, kind, data):
        values = st.floats(min_value=-2.5, max_value=2.5)
        spec = kind(*(data.draw(values, label=f.name) for f in fields(kind)))
        assume(check_coefficients(spec))

    def test_an_off_q_is_caught(self):
        class OffQ(Reddy):
            def coefficients(self):
                w, q = super().coefficients()
                return w, q + 1e-3

        assert check_coefficients(Reddy(0.6))
        with pytest.raises(AssertionError):
            check_coefficients(OffQ(0.6))
