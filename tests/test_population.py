"""Population container, summaries, CSV loading, and design constants."""
import io
import math
import sys
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpratio.errors import (
    DegenerateVarianceError,
    InvalidDesignError,
    InvalidInputError,
    ParseError,
    ZeroMeanError,
)
import rpratio
from rpratio.population import (
    Population,
    SummaryStats,
    _column_moments,
    _csv_column,
    _csv_texts,
    _mean,
    load_population_csv,
    summarize,
    write_csv,
)
from rpratio.sampling import SamplingDesign, confidence_interval
from rpratio.theory import SurfaceKind, surface_grid

finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestPopulation:
    def test_holds_copies_and_freezes_them(self):
        y = np.array([1.0, 2.0, 3.0])
        x = np.array([3.0, 2.0, 1.0])
        pop = Population(y=y, x=x)
        y[0] = 99.0
        assert pop.y[0] == 1.0
        with pytest.raises(ValueError):
            pop.y[0] = 5.0

    def test_size_has_one_name(self):
        pop = Population(y=np.ones(4) + np.arange(4), x=np.arange(4.0))
        assert pop.size == 4
        assert not hasattr(pop, "N")

    def test_accepts_plain_sequences(self):
        pop = Population(y=[1.0, 2.0], x=[2.0, 1.0])
        assert isinstance(pop.y, np.ndarray)

    @pytest.mark.parametrize(
        "y, x",
        [
            ([1.0, 2.0], [1.0, 2.0, 3.0]),
            ([1.0], [1.0]),
            ([1.0, float("nan")], [1.0, 2.0]),
            ([1.0, float("inf")], [1.0, 2.0]),
            (["a", "b"], [1.0, 2.0]),
            ([1j, 2.0], [1.0, 2.0]),
        ],
    )
    def test_rejects_bad_columns(self, y, x):
        with pytest.raises(InvalidInputError):
            Population(y=y, x=x)

    @pytest.mark.parametrize(
        "column", [[1, True], (2.0, False), [1.0, np.True_]], ids=["int", "tuple", "numpy-bool"]
    )
    def test_bools_inside_a_list_column_are_refused(self, column):
        for kwargs in (dict(y=column, x=[1.0, 2.0]), dict(y=[1.0, 2.0], x=column)):
            with pytest.raises(InvalidInputError, match="^population values must be real numbers$"):
                Population(**kwargs)

    def test_rejects_two_dimensional(self):
        with pytest.raises(InvalidInputError):
            Population(y=np.ones((2, 2)), x=np.ones((2, 2)))


class TestSummarize:
    def test_hand_computed_anticorrelated_triple(self):
        # y=(1,2,3), x=(3,2,1): means 2 and 2, variances 1 and 1 on the
        # N-1 divisor, covariance -1, hence r = -1 and c = -1.
        pop = Population(y=[1.0, 2.0, 3.0], x=[3.0, 2.0, 1.0])
        stx = summarize(pop)
        assert stx.mean_y == 2.0
        assert stx.mean_x == 2.0
        assert stx.var_y == 1.0
        assert stx.var_x == 1.0
        assert stx.cov_xy == -1.0
        assert stx.r == -1.0
        assert stx.cv_y == 0.5
        assert stx.cv_x == 0.5
        assert stx.c == -1.0
        assert stx.sd_y == 1.0

    def test_identical_columns(self):
        v = [1.0, 2.0, 4.0, 8.0]
        stx = summarize(Population(y=v, x=v))
        assert stx.r == 1.0
        assert stx.c == pytest.approx(1.0, rel=1e-14)

    def test_zero_mean_rejected(self):
        with pytest.raises(ZeroMeanError):
            summarize(Population(y=[-1.0, 1.0], x=[1.0, 2.0]))
        with pytest.raises(ZeroMeanError):
            summarize(Population(y=[1.0, 2.0], x=[-1.0, 1.0]))

    def test_constant_column_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            summarize(Population(y=[2.0, 2.0, 2.0], x=[1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateVarianceError):
            summarize(Population(y=[1.0, 2.0, 3.0], x=[5.0, 5.0, 5.0]))

    def test_underflowing_variance_is_named(self):
        tiny, spread = [1e-320, 2e-320, 3e-320], [1.0, 2.0, 4.0]
        with pytest.raises(
            DegenerateVarianceError, match="^the variance of y underflows double precision$"
        ):
            summarize(Population(y=tiny, x=spread))
        with pytest.raises(
            DegenerateVarianceError, match="^the variance of x underflows double precision$"
        ):
            summarize(Population(y=spread, x=tiny))

    @pytest.mark.parametrize(
        "column, what", [([1e308, 1.5e308, 1.7e308], "mean"), ([1e160, -1e160, 2e160], "variance")]
    )
    @pytest.mark.parametrize("name", ["y", "x"])
    def test_overflowing_moments_are_named(self, column, what, name):
        pop = Population(**{"y": [1.0, 2.0, 4.0], "x": [1.0, 2.0, 4.0], name: column})
        with pytest.raises(
            InvalidInputError, match=f"^the {what} of {name} overflows double precision$"
        ):
            summarize(pop)

    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6),
                st.floats(min_value=-1e6, max_value=1e6),
            ),
            min_size=2,
            max_size=30,
        )
    )
    # Both variances are near 4.6e-300, so their product underflows and r
    # comes from the split square roots.
    @example(data=[(0.0, 3.0293728813812616e-150), (3.0293728813812616e-150, 0.0)])
    @settings(max_examples=150, deadline=None)
    def test_fields_equal_the_inline_derivation(self, data):
        y = np.array([p[0] for p in data])
        x = np.array([p[1] for p in data])
        try:
            stx = summarize(Population(y=y, x=x))
        except (ZeroMeanError, DegenerateVarianceError, InvalidInputError):
            return
        N = len(y)
        mean_y, mean_x = _mean(y), _mean(x)
        dy, dx = y - mean_y, x - mean_x
        var_y, var_x = float(dy @ dy) / (N - 1), float(dx @ dx) / (N - 1)
        cov_xy = float(dy @ dx) / (N - 1)
        # summarize's documented rule: one square root of the product unless
        # the product leaves the normal doubles, then the product of two.
        if sys.float_info.min <= var_y * var_x < math.inf:
            sd_product = math.sqrt(var_y * var_x)
        else:
            sd_product = math.sqrt(var_y) * math.sqrt(var_x)
        r = max(-1.0, min(1.0, cov_xy / sd_product))
        cv_y, cv_x = math.sqrt(var_y) / mean_y, math.sqrt(var_x) / mean_x
        expected = (mean_y, mean_x, var_y, var_x, cov_xy, r, cv_y, cv_x, r * cv_y / cv_x)
        assert [v.hex() for v in astuple(stx)] == [v.hex() for v in expected]

    @pytest.mark.parametrize("scale", [1e-85, 1e100], ids=["product-underflows", "product-overflows"])
    def test_r_of_identical_columns_whose_variance_product_leaves_doubles(self, scale):
        column = [scale, 2.0 * scale, 4.0 * scale]
        stx = summarize(Population(y=column, x=column))
        assert (stx.r, stx.c) == (1.0, 1.0)

    @given(
        data=st.lists(
            st.tuples(st.floats(min_value=1.0, max_value=10.0), st.floats(min_value=1.0, max_value=10.0)),
            min_size=2,
            max_size=12,
        ),
        scale_y=st.integers(min_value=-500, max_value=500),
        scale_x=st.integers(min_value=-500, max_value=500),
    )
    @settings(max_examples=300, deadline=None)
    def test_r_keeps_its_bits_where_the_variance_product_is_normal(self, data, scale_y, scale_x):
        # Powers of two scale each column exactly, so the product of the
        # variances ranges from far below to far above the normal doubles.
        y = np.ldexp([p[0] for p in data], scale_y)
        x = np.ldexp([p[1] for p in data], scale_x)
        try:
            stx = summarize(Population(y=y, x=x))
        except (DegenerateVarianceError, InvalidInputError):
            return
        var_y, var_x = _column_moments(y, "y")[2], _column_moments(x, "x")[2]
        if sys.float_info.min <= var_y * var_x < math.inf:
            r = max(-1.0, min(1.0, stx.cov_xy / math.sqrt(var_y * var_x)))
            assert stx.r.hex() == r.hex()
        elif min(var_y, var_x) >= sys.float_info.min:  # subnormal ones have lost digits
            unscaled = summarize(Population(y=np.ldexp(y, -scale_y), x=np.ldexp(x, -scale_x)))
            assert stx.r == pytest.approx(unscaled.r, rel=1e-12, abs=1e-12)

    def test_constant_column_with_inexact_mean_rejected(self):
        # The float mean of three copies of this value is not the value, so
        # the computed variance is rounding noise rather than zero.
        x = [21.866699846101177] * 3
        assert float(np.var(x)) != 0.0
        with pytest.raises(DegenerateVarianceError):
            summarize(Population(y=[1.0, 1.6385551241324805, 63.86669984610118], x=x))

    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=100.0),
                st.floats(min_value=0.5, max_value=100.0),
            ),
            min_size=3,
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, data, seed):
        y = np.array([p[0] for p in data])
        x = np.array([p[1] for p in data])
        if np.ptp(y) == 0.0 or np.ptp(x) == 0.0:
            return
        perm = np.random.default_rng(seed).permutation(len(y))
        a = summarize(Population(y=y, x=x))
        b = summarize(Population(y=y[perm], x=x[perm]))
        for name in ("mean_y", "mean_x", "var_y", "var_x", "cov_xy", "r", "c"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-9, abs=1e-12)

    @given(lam=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_scaling_y_leaves_shape_constants(self, lam):
        y = np.array([1.0, 2.0, 4.0, 5.5, 7.0])
        x = np.array([2.0, 2.5, 3.5, 5.0, 6.5])
        a = summarize(Population(y=y, x=x))
        b = summarize(Population(y=lam * y, x=x))
        assert b.mean_y == pytest.approx(lam * a.mean_y, rel=1e-12)
        assert b.sd_y == pytest.approx(lam * a.sd_y, rel=1e-12)
        assert b.cv_y == pytest.approx(a.cv_y, rel=1e-12)
        assert b.r == pytest.approx(a.r, rel=1e-12)
        assert b.c == pytest.approx(a.c, rel=1e-12)

    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=50.0),
                st.floats(min_value=0.1, max_value=50.0),
            ),
            min_size=2,
            max_size=25,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_r_bounded_and_c_identity(self, data):
        y = np.array([p[0] for p in data])
        x = np.array([p[1] for p in data])
        if np.ptp(y) == 0.0 or np.ptp(x) == 0.0:
            return
        stx = summarize(Population(y=y, x=x))
        assert -1.0 <= stx.r <= 1.0
        assert stx.c * stx.cv_x == pytest.approx(stx.r * stx.cv_y, abs=1e-14)


class TestColumnMoments:
    @given(
        column=st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([0.0, -0.0, 0.3, 1e-320, 1e160, 1.7e308]),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_inline_moments_bit_for_bit(self, column):
        values = np.array(column)
        with np.errstate(all="ignore"):
            mean = _mean(values)
            dev = values - mean
            var = float(dev @ dev) / (len(values) - 1)
        if not (math.isfinite(mean) and math.isfinite(var)):
            with pytest.raises(InvalidInputError, match="^the (mean|variance) of y overflows"):
                _column_moments(values, "y")
            return
        got_mean, got_dev, got_var = _column_moments(values, "y")
        assert (got_mean.hex(), got_var.hex()) == (mean.hex(), var.hex())
        assert got_dev.tobytes() == dev.tobytes()


class TestFromMoments:
    def test_round_trip_fields(self):
        stx = SummaryStats.from_moments(
            mean_y=2.0, mean_x=4.0, sd_y=1.0, sd_x=2.0, r=-0.5
        )
        assert stx.var_y == 1.0
        assert stx.var_x == 4.0
        assert stx.cov_xy == -1.0
        assert stx.cv_y == 0.5
        assert stx.cv_x == 0.5
        assert stx.c == -0.5

    @given(
        mean_y=st.floats(min_value=-1e100, max_value=1e100).filter(bool),
        mean_x=st.floats(min_value=-1e100, max_value=1e100).filter(bool),
        sd_y=st.floats(min_value=1e-100, max_value=1e100),
        sd_x=st.floats(min_value=1e-100, max_value=1e100),
        r=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_fields_equal_the_inline_derivation(self, mean_y, mean_x, sd_y, sd_x, r):
        try:
            stx = SummaryStats.from_moments(mean_y, mean_x, sd_y, sd_x, r)
        except InvalidInputError:  # a square overflows
            return
        cv_y, cv_x = sd_y / mean_y, sd_x / mean_x
        expected = (
            mean_y, mean_x, sd_y * sd_y, sd_x * sd_x, r * sd_y * sd_x, r,
            cv_y, cv_x, r * cv_y / cv_x,
        )
        assert [v.hex() for v in astuple(stx)] == [v.hex() for v in expected]

    def test_validation(self):
        with pytest.raises(ZeroMeanError):
            SummaryStats.from_moments(0.0, 1.0, 1.0, 1.0, 0.5)
        with pytest.raises(DegenerateVarianceError):
            SummaryStats.from_moments(1.0, 1.0, 0.0, 1.0, 0.5)
        with pytest.raises(InvalidInputError):
            SummaryStats.from_moments(1.0, 1.0, 1.0, 1.0, 1.5)


    @pytest.mark.parametrize("field", ["mean_y", "mean_x", "sd_y", "sd_x", "r"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_moments_rejected(self, field, bad):
        moments = {"mean_y": 2.0, "mean_x": 4.0, "sd_y": 1.0, "sd_x": 2.0, "r": 0.5}
        moments[field] = bad
        with pytest.raises(InvalidInputError, match=f"{field} must be finite"):
            SummaryStats.from_moments(**moments)

    @pytest.mark.parametrize(
        "moments, field",
        [
            (dict(mean_y=1.0, mean_x=1e-100, sd_y=1.0, sd_x=1e100, r=0.5), "cv_x"),
            (dict(mean_y=1e-200, mean_x=1.0, sd_y=1e200, sd_x=1.0, r=0.5), "cv_y"),
            (dict(mean_y=1e200, mean_x=1.0, sd_y=1e200, sd_x=1.0, r=0.5), "mean_y"),
            (dict(mean_y=1.0, mean_x=-1e155, sd_y=1.0, sd_x=1e155, r=0.5), "mean_x"),
        ],
    )
    def test_overflowing_squares_rejected(self, moments, field):
        with pytest.raises(InvalidInputError, match=f"{field} = .* too large"):
            SummaryStats.from_moments(**moments)

    def test_largest_squares_accepted(self):
        stx = SummaryStats.from_moments(1e154, 1.0, 1e154, 1e154, 0.5)
        assert stx.cv_x == 1e154


class TestSamplingDesign:
    def test_benchmark_design_constants(self):
        d = SamplingDesign(112, 365)
        assert d.f == pytest.approx(0.30685, abs=5e-6)
        assert d.fpc_rate == pytest.approx(0.0061888, abs=5e-8)
        assert d.f == 112 / 365
        assert d.fpc_rate == (1.0 - 112 / 365) / 112

    def test_smallest_design(self):
        d = SamplingDesign(1, 2)
        assert d.f == 0.5
        assert d.fpc_rate == 0.5

    @pytest.mark.parametrize("n, N", [(365, 365), (366, 365), (0, 10), (-1, 10)])
    def test_rejects_degenerate(self, n, N):
        with pytest.raises(InvalidDesignError):
            SamplingDesign(n, N)

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint16])
    def test_numpy_integer_sizes(self, kind):
        d = SamplingDesign(kind(112), kind(365))
        assert d == SamplingDesign(112, 365)
        assert type(d.n) is int and type(d.N) is int

    @pytest.mark.parametrize("n, N", [(200, 100), (365, 365), (0, 100), (-1, 10)])
    def test_direct_construction_checks_the_design(self, n, N):
        with pytest.raises(InvalidDesignError) as err:
            SamplingDesign(n, N)
        assert str(err.value) == f"need 1 <= n < N, got n={n}, N={N}"

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint16])
    def test_direct_construction_stores_numpy_sizes_as_int(self, kind):
        d = SamplingDesign(kind(112), kind(365))
        assert d == SamplingDesign(112, 365)
        assert type(d.n) is int and type(d.N) is int

    def test_the_design_lives_in_sampling(self):
        assert not hasattr(rpratio.population, "SamplingDesign")
        assert not hasattr(rpratio.population, "make_design")
        assert rpratio.SamplingDesign is rpratio.sampling.SamplingDesign

    @pytest.mark.parametrize("n", [0, 50, 51])
    def test_interval_and_design_refuse_alike(self, n):
        with pytest.raises(InvalidDesignError) as design:
            SamplingDesign(n, 50)
        with pytest.raises(InvalidDesignError) as interval:
            confidence_interval(1.0, 0.5, n, 50, 0.9)
        assert str(interval.value) == str(design.value) == f"need 1 <= n < N, got n={n}, N=50"

    @pytest.mark.parametrize(
        "name, n, N",
        [("n", 112.7, 365), ("n", 112.0, 365), ("N", 112, 365.0), ("N", 112, np.float64(365)),
         ("N", 112, "365")],
        ids=["fractional", "integral-float", "float", "numpy-float", "string"],
    )
    def test_non_integer_sizes_are_named(self, name, n, N):
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
            SamplingDesign(n, N)


class TestLoadCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "pop.csv"
        path.write_text(text)
        return path

    def test_reads_rows_in_order(self, tmp_path):
        path = self._write(tmp_path, "y,x\n1,3\n2,2\n3,1\n")
        pop = load_population_csv(path)
        assert pop.size == 3
        assert pop.y.tolist() == [1.0, 2.0, 3.0]
        assert pop.x.tolist() == [3.0, 2.0, 1.0]

    def test_header_must_match(self, tmp_path):
        path = self._write(tmp_path, "x,y\n1,2\n2,3\n")
        with pytest.raises(ParseError) as err:
            load_population_csv(path)
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "raw, line",
        [
            (b"y,x\n1,\xff\n2,3\n", 2),
            (b"y,\xff\n1,2\n2,3\n", 1),  # in the header
            (b"y,x\n1,2\n2,3,\xc3\n", 3),  # in a row with a third cell
            (b"y,x\n1,2\n2,3\n\xed\xa0\x80,4\n", 4),  # an encoded surrogate
        ],
    )
    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path, raw, line):
        path = tmp_path / "pop.csv"
        path.write_bytes(raw)
        with pytest.raises(ParseError) as err:
            load_population_csv(path)
        assert err.value.line == line
        assert "not valid UTF-8" in str(err.value)

    def test_extra_columns_rejected(self, tmp_path):
        path = self._write(tmp_path, "y,x\n1,2,9\n2,3\n")
        with pytest.raises(ParseError) as err:
            load_population_csv(path)
        assert err.value.line == 2

    def test_non_numeric_cell_carries_line_number(self, tmp_path):
        path = self._write(tmp_path, "y,x\n1,2\n2,3\nbad,4\n")
        with pytest.raises(ParseError) as err:
            load_population_csv(path)
        assert err.value.line == 4
        assert "bad" in str(err.value)

    def test_digit_separator_rejected(self, tmp_path):
        # The format is strict, so a cell float() would read as 1000 is not.
        path = self._write(tmp_path, "y,x\n1,2\n1_000,3\n")
        with pytest.raises(ParseError) as err:
            load_population_csv(path)
        assert err.value.line == 3
        assert "1_000" in str(err.value)

    @pytest.mark.parametrize(
        "cell",
        [
            " 1 ",  # float() strips surrounding whitespace
            "\u0662",  # Arabic-Indic two, which float() reads as 2.0
            "\uff11",  # fullwidth one
            "1 ",
            "\t1",
            "nan",
            "-inf",
            "infinity",
            "1e",
            "e5",
            ".",
            "+",
            "",
            "1.5.2",
            "0x10",
            "1,5",
            "--1",
        ],
    )
    def test_cell_outside_the_ascii_grammar_rejected(self, tmp_path, cell):
        path = tmp_path / "pop.csv"
        path.write_text(f'y,x\n1,2\n3,4\n"{cell}",5\n', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_population_csv(path)
        assert err.value.line == 4
        assert repr(cell) in str(err.value)

    @pytest.mark.parametrize(
        "cell, value",
        [("2", 2.0), ("-0.5", -0.5), ("+.5", 0.5), ("7.", 7.0), ("1e-05", 1e-05),
         ("-0.0", -0.0), ("1E+3", 1000.0), ("00012", 12.0)],
    )
    def test_ascii_decimal_forms_accepted(self, tmp_path, cell, value):
        path = self._write(tmp_path, f"y,x\n{cell},1\n3,4\n")
        y = load_population_csv(path).y[0]
        assert y.tobytes() == np.float64(value).tobytes()

    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=40
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_every_finite_float_repr_round_trips(self, tmp_path_factory, values):
        half = len(values) // 2
        rows = "".join(f"{y!r},{x!r}\n" for y, x in zip(values[:half], values[half:]))
        path = tmp_path_factory.mktemp("repr") / "pop.csv"
        path.write_text("y,x\n" + rows)
        pop = load_population_csv(path)
        assert pop.y.tobytes() == np.array(values[:half]).tobytes()
        assert pop.x.tobytes() == np.array(values[half:2 * half]).tobytes()

    def test_non_finite_cell_rejected(self, tmp_path):
        path = self._write(tmp_path, "y,x\n1,2\ninf,3\n")
        with pytest.raises(ParseError) as err:
            load_population_csv(path)
        assert err.value.line == 3

    def test_overflowing_cell_rejected(self, tmp_path):
        path = self._write(tmp_path, "y,x\n1,2\n3,4\n5,-1e400\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            load_population_csv(path)
        assert err.value.line == 4

    def test_header_only_is_too_short(self, tmp_path):
        path = self._write(tmp_path, "y,x\n")
        with pytest.raises(ParseError):
            load_population_csv(path)

    def test_single_row_is_too_short(self, tmp_path):
        path = self._write(tmp_path, "y,x\n1,2\n")
        with pytest.raises(ParseError):
            load_population_csv(path)

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ParseError) as err:
            load_population_csv(path)
        assert err.value.line == 1

    def test_round_trips_through_summary(self, tmp_path, bench_stats):
        # A tiny literal file whose stats are easy to eyeball.
        path = self._write(tmp_path, "y,x\n1.0,2.0\n2.0,4.0\n3.0,6.0\n")
        stx = summarize(load_population_csv(path))
        assert stx.r == 1.0
        assert math.isclose(stx.c, 1.0, rel_tol=1e-12)


LABELS = ["mean", "ratio", '"rpr:0.5,0.5"']
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf]


def _int_text(value: float) -> str:
    return str(int(value))


def _label_text(value: float) -> str:
    return LABELS[int(value)]


def naive_csv_rows(table: np.ndarray, formats) -> str:
    return "".join(
        ",".join(f(v) for f, v in zip(formats, row)) + "\n" for row in table.tolist()
    )


def csv_rows(table: np.ndarray, formats, known=(), block_rows=None) -> str:
    """write_csv's lines for a float table, without the header line.  Each
    column's format names the dtype it is passed as: a repr column passes
    its floats, an _int_text column its cells as int64, or for j in known
    as indices into the integers 0, 1, 2, and a _label_text column its
    cells as indices into LABELS.  block_rows, when given, replaces
    _CSV_BLOCK_ROWS."""
    columns = [
        LABELS if fmt is _label_text
        else list(range(len(LABELS))) if j in known
        else None
        for j, fmt in enumerate(formats)
    ]

    def block(start, stop):
        return [
            table[start:stop, j] if fmt is repr
            else table[start:stop, j].astype(np.int64 if values is None else np.intp)
            for j, (fmt, values) in enumerate(zip(formats, columns))
        ]

    fh = io.StringIO()
    with mock.patch.object(rpratio.population, "_CSV_BLOCK_ROWS", block_rows or 1 << 13):
        write_csv(fh, "h", len(table), columns, block)
    text = fh.getvalue()
    assert text.startswith("h\n")
    return text[2:]


@st.composite
def csv_tables(draw):
    """A float table, its formats and the integer columns passed as known
    values: each column repeats a small pool of values in runs, in cycles
    or in any order."""
    rows = draw(st.integers(1, 80))
    columns, formats, known = [], [], set()
    for j in range(draw(st.integers(1, 5))):
        fmt = draw(st.sampled_from([repr, _int_text, _label_text]))
        if fmt is repr:
            pool = draw(st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=1, max_size=6))
        else:
            pool = [float(i) for i in range(len(LABELS))]
        if fmt is _int_text and draw(st.booleans()):
            known.add(j)
        pool = np.array(pool)
        pattern = draw(st.sampled_from(["runs", "cycles", "any"]))
        if pattern == "runs":
            column = np.repeat(pool, -(-rows // len(pool)))[:rows]
        elif pattern == "cycles":
            column = np.resize(pool, rows)
        else:
            picks = st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows)
            column = pool[draw(picks)]
        columns.append(column)
        formats.append(fmt)
    return np.column_stack(columns), formats, known


class TestWriteCsv:
    @given(csv_tables(), st.integers(1, 90))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_row_join(self, table_formats_known, block_rows):
        table, formats, known = table_formats_known
        assert csv_rows(table, formats, known, block_rows) == naive_csv_rows(table, formats)

    def test_negative_zero_keeps_its_text_next_to_zero_and_non_finite_cells(self):
        column = [0.0, -0.0, -0.0, 0.0, math.nan, math.inf, -math.inf, math.nan, -0.0]
        table = np.column_stack([column, column[::-1]])
        assert csv_rows(table, [repr, repr]) == (
            "0.0,-0.0\n-0.0,nan\n-0.0,-inf\n0.0,inf\nnan,nan\n"
            "inf,0.0\n-inf,-0.0\nnan,-0.0\n-0.0,0.0\n"
        )

    def test_single_row(self):
        table = np.array([[1.5, 2.0, -0.0]])
        assert csv_rows(table, [repr, _int_text, repr]) == "1.5,2,-0.0\n"

    def test_single_column(self):
        table = np.array([[0.25], [0.25], [-1e300], [0.25]])
        assert csv_rows(table, [repr]) == "0.25\n0.25\n-1e+300\n0.25\n"

    @pytest.mark.parametrize("known", [(), (0, 3)], ids=["ints", "ints-known"])
    def test_int_and_label_columns(self, known):
        # The layout of the estimate dump: rep, estimator, estimate, covered.
        table = np.array([
            [0.0, 0.0, 0.5, 1.0],
            [0.0, 1.0, math.nan, 0.0],
            [0.0, 2.0, 0.1 + 0.2, 1.0],
            [1.0, 0.0, 0.5, 1.0],
        ])
        formats = [_int_text, _label_text, repr, _int_text]
        assert csv_rows(table, formats, known) == (
            "0,mean,0.5,1\n"
            "0,ratio,nan,0\n"
            '0,"rpr:0.5,0.5",0.30000000000000004,1\n'
            "1,mean,0.5,1\n"
        )

    def test_no_rows_give_no_text(self):
        assert csv_rows(np.empty((0, 3)), [repr, repr, repr]) == ""

    def test_blocks_equal_repr_of_every_value(self):
        # Blocks of 3 rows split the table unevenly; -0.0 and 0.0 compare
        # equal but must keep their own text.
        rng = np.random.default_rng(5)
        table = rng.choice([0.0, -0.0, 0.1, 1e-300, -2.5e16, 1.0 / 3.0], size=(8, 3))
        table[:, 2] = rng.integers(0, 2, size=8)
        text = csv_rows(table, [repr, repr, _int_text], block_rows=3)
        want = [f"{float(a)!r},{float(b)!r},{int(flag)}" for a, b, flag in table]
        assert text == "\n".join(want) + "\n"
        assert "-0.0" in text

    def test_known_values_are_formatted_once_per_call(self):
        # 10 rows in blocks of 3: the known values' texts are made once,
        # however many blocks reach them.
        index = np.array([0, 2, 2, 1, 0, 0, 2, 1, 1, 0])
        fh = io.StringIO()
        with mock.patch.object(rpratio.population, "_CSV_BLOCK_ROWS", 3), mock.patch.object(
            rpratio.population, "_csv_texts", wraps=_csv_texts
        ) as texts:
            write_csv(fh, "k", len(index), [["a", "b", "c"]], lambda i, j: [index[i:j]])
        assert [c.args for c in texts.call_args_list] == [(["a", "b", "c"],)]
        assert fh.getvalue() == "k\n" + "".join(f"{'abc'[i]}\n" for i in index)


class TestCsvTexts:
    """One text rule: repr of a float, str of anything else."""

    def test_float_values_take_repr(self):
        values = [0.0, -0.0, 2.0, 0.1 + 0.2, -1e300, 5e-324, math.nan, math.inf, -math.inf]
        texts = _csv_texts(np.array(values))
        assert texts.dtype == object
        assert texts.tolist() == list(map(repr, values))
        assert _csv_texts([1.0, 2]).tolist() == ["1.0", "2.0"]  # a float array

    @pytest.mark.parametrize("dtype", [np.int64, np.intp, np.uint8, np.int32])
    def test_integer_values_take_str(self, dtype):
        assert _csv_texts(np.array([0, 1, 7], dtype=dtype)).tolist() == ["0", "1", "7"]

    def test_python_integers_and_labels_take_str(self):
        assert _csv_texts([0, 1]).tolist() == ["0", "1"]
        labels = ["mean", "rpr:-0.3349,0.3176", "1.5"]
        assert _csv_texts(labels).tolist() == labels

    def test_int64_column_keeps_every_digit(self):
        # Past 2^53 a float round trip would change the digits.
        column = np.array([2**62 + 1, -(2**63), 3, 2**62 + 1, 0, 3], dtype=np.int64)
        texts, codes = _csv_column(column)
        assert texts[codes].tolist() == [str(v) for v in column.tolist()]
        assert len(texts) == 4

    def test_int64_and_float_columns_in_one_file(self):
        reps = np.repeat(np.arange(3, dtype=np.int64), 2)
        values = np.array([0.5, -0.0, 2.0, 2.0, math.nan, 1e16])
        fh = io.StringIO()
        write_csv(fh, "rep,v", len(reps), [None, None], lambda i, j: [reps[i:j], values[i:j]])
        assert fh.getvalue() == "rep,v\n0,0.5\n0,-0.0\n1,2.0\n1,2.0\n2,nan\n2,1e+16\n"


def nested_grid(*axes: np.ndarray) -> np.ndarray:
    """Every combination of the axes' values, one per row, the first axis
    slowest and the last fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


class TestFusedColumns:
    """Neighbouring columns fuse into one text when the fused texts number
    at most a quarter of the rows; the bytes are those of the per-row join."""

    def test_region_shaped_grid_fuses_two_pairs(self):
        # 4 alphas x 5 betas x 12 cs = 240 rows: (alpha, beta) gives 20
        # texts (80 <= 240) and (c, indicator) 24 (96 <= 240), but the
        # 20 x 12 of (alpha, beta) with c would be too many.
        grid = nested_grid(np.linspace(-1, 1, 4), np.linspace(-0.5, 0.5, 5), np.linspace(0, 2, 12))
        flag = (grid[:, 0] * grid[:, 1] < grid[:, 2] - 1).astype(float)
        table = np.column_stack([grid, flag])
        formats = [repr, repr, repr, _int_text]
        assert csv_rows(table, formats) == naive_csv_rows(table, formats)

    @pytest.mark.parametrize("rows", [24, 23], ids=["product*4=rows", "product*4=rows+1"])
    def test_either_side_of_the_rule(self, rows):
        # 2 x 3 distinct values: 6 fused texts need 24 rows.
        table = np.column_stack([
            np.resize([0.5, -0.5], rows),
            np.resize([0.1, 0.2, 0.3], rows),
            np.arange(rows) / 7.0,
        ])
        formats = [repr, repr, repr]
        assert csv_rows(table, formats) == naive_csv_rows(table, formats)

    def test_negative_zero_and_non_finite_cells_in_fused_columns(self):
        grid = nested_grid(
            np.array([0.0, -0.0]), np.array([math.nan, math.inf, -math.inf, -0.0]), np.arange(4.0)
        )
        # The first two columns fuse: 8 texts for 32 rows.
        table = np.column_stack([grid[:, :2], grid[:, 2] % 2])
        formats = [repr, repr, _int_text]
        text = csv_rows(table, formats)
        assert text == naive_csv_rows(table, formats)
        assert text.startswith("0.0,nan,0\n0.0,nan,1\n0.0,nan,0\n")
        assert "-0.0,-inf,1\n" in text and "-0.0,-0.0,0\n" in text

    def test_three_columns_fuse_before_a_distinct_one(self):
        # 2 x 2 x 3 = 12 fused texts for 48 rows; the last column is all
        # distinct and stays on its own.
        grid = np.tile(nested_grid([1.0, 2.0], [0.0, 1.0], [0.25, 0.5, 0.75]), (4, 1))
        table = np.column_stack([grid, np.arange(48) * 1.5])
        formats = [repr, _int_text, repr, repr]
        assert csv_rows(table, formats) == naive_csv_rows(table, formats)

    def test_first_block_of_the_benchmark_region_grid(self):
        # The axes of the benchmark's region surface (tests/test_golden.py);
        # its first 2^15 rows, four of write_csv's blocks.
        axis = (-1.0, 1.0, 0.02)
        grid = surface_grid(SurfaceKind.DOMINANCE, axis, (0.0, 2.0, 0.05), axis)
        block = grid[: 1 << 15]
        formats = [repr, repr, repr, _int_text]
        assert csv_rows(block, formats) == naive_csv_rows(block, formats)
