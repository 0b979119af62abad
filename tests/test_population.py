"""Population container, summaries, CSV loading, and design constants."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpratio.errors import (
    DegenerateVarianceError,
    InvalidDesignError,
    InvalidInputError,
    ParseError,
    ZeroMeanError,
)
from rpratio.population import (
    Population,
    SummaryStats,
    load_population_csv,
    make_design,
    summarize,
)

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

    def test_size_and_alias(self):
        pop = Population(y=np.ones(4) + np.arange(4), x=np.arange(4.0))
        assert pop.size == 4
        assert pop.N == 4

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
        ],
    )
    def test_rejects_bad_columns(self, y, x):
        with pytest.raises(InvalidInputError):
            Population(y=y, x=x)

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


class TestMakeDesign:
    def test_benchmark_design_constants(self):
        d = make_design(112, 365)
        assert d.f == pytest.approx(0.30685, abs=5e-6)
        assert d.fpc_rate == pytest.approx(0.0061888, abs=5e-8)
        assert d.f == 112 / 365
        assert d.fpc_rate == (1.0 - 112 / 365) / 112

    def test_smallest_design(self):
        d = make_design(1, 2)
        assert d.f == 0.5
        assert d.fpc_rate == 0.5

    @pytest.mark.parametrize("n, N", [(365, 365), (366, 365), (0, 10), (-1, 10)])
    def test_rejects_degenerate(self, n, N):
        with pytest.raises(InvalidDesignError):
            make_design(n, N)


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
