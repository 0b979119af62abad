"""Monte Carlo harness determinism and agreement with the exact oracle."""
import csv
import dataclasses
import itertools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rpratio.errors import (
    InvalidDesignError,
    InvalidInputError,
    SingularDenominatorError,
    TooLargeError,
)
from rpratio.estimators import (
    Product,
    Ratio,
    RatioProductRatio,
    Reddy,
    SampleMean,
    SampleSummary,
    SinghRatioProduct,
    SrivastavaPower,
    UnbiasedAOE,
    estimate,
    estimator_token,
    parse_estimator,
)
from rpratio import population, simulation
from rpratio.population import Population, summarize
from rpratio.sampling import SamplingDesign, srswor
from rpratio.synthetic import MomentTargets, generate_population
from rpratio.simulation import (
    RankingTable,
    SimConfig,
    SimResult,
    exhaustive_oracle,
    run_simulation,
    write_estimates_csv,
)


def comparable(res: SimResult):
    # Everything except the wall clock, which legitimately varies.
    return res.reports, res.ranking, res.meta


class TestExhaustiveOracle:
    def test_sample_mean_is_exactly_unbiased(self, tiny_pop):
        out = exhaustive_oracle(tiny_pop, 3, SampleMean())
        ybar = float(tiny_pop.y.mean())
        assert abs(out.bias) <= 1e-14 * abs(ybar)
        stx = summarize(tiny_pop)
        d = SamplingDesign(3, tiny_pop.size)
        assert out.mse == pytest.approx(d.fpc_rate * stx.var_y, rel=1e-12)

    def test_beta_half_family_matches_sample_mean(self, tiny_pop):
        base = exhaustive_oracle(tiny_pop, 3, SampleMean())
        for alpha in (0.0, 0.3, 1.7):
            out = exhaustive_oracle(tiny_pop, 3, RatioProductRatio(alpha, 0.5))
            assert out.expectation == pytest.approx(base.expectation, rel=1e-14)
            assert out.mse == pytest.approx(base.mse, rel=1e-12, abs=1e-18)

    def test_constant_y_mean_is_its_value(self):
        # Ten 0.3s sum to a mean of 0.29999999999999993.
        pop = Population(y=np.full(10, 0.3), x=np.arange(1.0, 11.0))
        assert exhaustive_oracle(pop, 3, SampleMean()) == simulation.ExactMoments(0.3, 0.0, 0.0)

    def test_constant_x_mean_is_its_value(self):
        # Ratio equals the sample mean when x is constant; ten 0.3s would
        # otherwise give Xbar 0.29999999999999993 and a bias of -8.9e-16.
        pop = Population(y=np.arange(1.0, 11.0), x=np.full(10, 0.3))
        assert exhaustive_oracle(pop, 3, Ratio()).bias == 0.0

    @pytest.mark.parametrize(
        "spec", [SampleMean(), Ratio(), RatioProductRatio(-0.3349, 0.3176)], ids=estimator_token
    )
    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_uses_the_simulation_mean_rule(self, spec, n):
        # From 8 units on, numpy's row means no longer add in order, so the
        # oracle's subset means are pinned to the simulation's numpy means.
        pop = generate_population(MomentTargets(12, 1.0, 1.0, 0.3, 0.3, 0.5), 3)
        Xbar, Ybar = float(pop.x.mean()), float(pop.y.mean())
        values = []
        for subset in itertools.combinations(range(pop.size), n):
            ybar, xbar = pop.y[list(subset)].mean(), pop.x[list(subset)].mean()
            est, _ = spec.evaluate(np.array([ybar]), np.array([xbar]), Xbar)
            values.append(float(est[0]))
        total = math.comb(pop.size, n)
        expectation = math.fsum(values) / total
        mse = math.fsum((v - Ybar) ** 2 for v in values) / total
        out = exhaustive_oracle(pop, n, spec)
        assert (out.expectation, out.mse) == (expectation, mse)

    def test_budget_guard(self):
        grid = np.arange(40, dtype=float) + 1.0
        big = Population(y=grid, x=grid + 0.5)
        with pytest.raises(TooLargeError):
            exhaustive_oracle(big, 20, SampleMean())

    def test_first_order_theory_near_optimum(self, low_cv_pop):
        # Low-CV population: the first-order bias/MSE should land within
        # 15% of the exact enumeration near the minimizing hyperbola
        # (measured agreement is ~0.2%, the bound is the contract).
        stx = summarize(low_cv_pop)
        d = SamplingDesign(4, low_cv_pop.size)
        from rpratio.theory import family_theory

        c = stx.c
        for beta in (0.25, 0.30, 0.35):
            v = 1.0 - 2.0 * beta
            for da in (0.0, 0.02, -0.02):
                alpha = (1.0 - c / v) / 2.0 + da
                exact = exhaustive_oracle(low_cv_pop, 4, RatioProductRatio(alpha, beta))
                first = family_theory(RatioProductRatio(alpha, beta), stx, d)
                b1, m1 = first.bias1, first.mse1
                assert abs(b1 - exact.bias) <= 0.15 * abs(exact.bias)
                assert abs(m1 - exact.mse) <= 0.15 * exact.mse


    @pytest.mark.parametrize(
        "spec",
        [
            SampleMean(), Ratio(), Product(),
            RatioProductRatio(-0.3349, 0.3176), UnbiasedAOE(0.6092),
        ],
        ids=estimator_token,
    )
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matches_the_scalar_enumeration_bit_for_bit(self, tiny_pop, spec, n, monkeypatch):
        # Small chunks make the enumeration span several of them.
        monkeypatch.setattr(simulation, "_BLOCK_BYTES", 5 * 8 * n)
        y, x = tiny_pop.y.tolist(), tiny_pop.x.tolist()
        Xbar, Ybar = float(tiny_pop.x.mean()), float(tiny_pop.y.mean())
        values = [
            estimate(spec, SampleSummary(
                sum(y[i] for i in subset) / n, sum(x[i] for i in subset) / n, Xbar
            ))
            for subset in itertools.combinations(range(tiny_pop.size), n)
        ]
        expectation = math.fsum(values) / len(values)
        mse = math.fsum((v - Ybar) ** 2 for v in values) / len(values)
        out = exhaustive_oracle(tiny_pop, n, spec)
        assert (out.expectation, out.bias, out.mse) == (expectation, expectation - Ybar, mse)

    @pytest.mark.parametrize(
        "spec",
        [
            UnbiasedAOE(1e200),  # estimates of nan
            SinghRatioProduct(1e308),  # finite estimates whose squares overflow
        ],
    )
    def test_overflowing_estimator_raises_naming_it(self, spec):
        pop = generate_population(MomentTargets(12, 1.0, 1.0, 0.3, 0.3, 0.5), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError) as err:
                exhaustive_oracle(pop, 3, spec)
        assert str(err.value).startswith(f"estimator {estimator_token(spec)}: ")
        assert "overflow" in str(err.value)

    def test_singular_subset_raises(self):
        pop = Population(y=[1.0, 2.0, 3.0, 4.0, 5.0], x=[-1.0, -1.0, 1.0, 1.0, 1.0])
        with pytest.raises(SingularDenominatorError):
            exhaustive_oracle(pop, 2, Ratio())

    def test_singular_error_names_token_and_subset(self):
        # In enumeration order, (0, 1) averages x to -1 and (0, 2) to 0.
        pop = Population(y=[1.0, 2.0, 3.0, 4.0, 5.0], x=[-1.0, -1.0, 1.0, 1.0, 1.0])
        with pytest.raises(SingularDenominatorError, match=r"^ratio is singular .*\(0, 2\)$"):
            exhaustive_oracle(pop, 2, Ratio())

    @pytest.mark.parametrize("per_block", [1, 3])
    def test_singular_subset_past_the_first_gather_block(self, per_block, monkeypatch):
        # (0, 4) is the fourth subset in enumeration order, the first whose
        # x averages to 0.
        monkeypatch.setattr(simulation, "_BLOCK_BYTES", per_block * 8 * 2)
        pop = Population(y=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], x=[-1.0, -3.0, 2.0, 2.0, 1.0, 1.0])
        with pytest.raises(SingularDenominatorError, match=r"^ratio is singular .*\(0, 4\)$"):
            exhaustive_oracle(pop, 2, Ratio())

    @pytest.mark.parametrize("n", [0, 6, -1])
    def test_rejects_n_outside_design(self, tiny_pop, n):
        with pytest.raises(InvalidDesignError, match=f"got n={n}, N=6"):
            exhaustive_oracle(tiny_pop, n, SampleMean())


OVERFLOWING_COLUMNS = [
    ([1e308, 1.5e308, 1.7e308], "mean"),
    ([1e160, -1e160, 2e160], "variance"),
]


@pytest.mark.parametrize("column, what", OVERFLOWING_COLUMNS)
@pytest.mark.parametrize("name", ["y", "x"])
def test_overflowing_column_moments_are_named(column, what, name):
    spread = [1.0, 2.0, 4.0]
    pop = Population(**{"y": spread, "x": spread, name: column})
    message = f"^the {what} of {name} overflows double precision$"
    with pytest.raises(InvalidInputError, match=message):
        run_simulation(pop, SimConfig(reps=5, n=2, seed=1))
    with pytest.raises(InvalidInputError, match=message):
        exhaustive_oracle(pop, 2, SampleMean())


class TestMonteCarloAgreement:
    def test_matches_oracle_on_enumerable_population(self, tiny_pop, tmp_path):
        reps = 30000
        oracle = exhaustive_oracle(tiny_pop, 3, Ratio())
        dump = tmp_path / "estimates.csv"
        res = run_simulation(
            tiny_pop, SimConfig(reps=reps, n=3, seed=99, estimators=(Ratio(),))
        )
        write_estimates_csv(dump, res)
        vals = []
        with open(dump) as fh:
            for row in csv.DictReader(fh):
                assert row["estimator"] == "ratio"
                vals.append(float(row["estimate"]))
        assert len(vals) == reps
        mc_mean = float(np.mean(vals))
        assert abs(mc_mean - oracle.expectation) <= 3.0 * math.sqrt(oracle.mse / reps)
        assert res.reports[0].mse_empirical == pytest.approx(oracle.mse, rel=0.02)


class TestDeterminism:
    def test_identical_runs(self, tiny_pop):
        cfg = SimConfig(reps=400, n=3, seed=7)
        a = run_simulation(tiny_pop, cfg)
        b = run_simulation(tiny_pop, cfg)
        assert comparable(a) == comparable(b)
        assert a.wall_time_s > 0.0 and b.wall_time_s > 0.0

    def test_block_size_is_invisible(self, tiny_pop, tmp_path, monkeypatch):
        # Gathers of 7 replications leave a partial block at the end; the
        # per-replication dump must not change by a byte.
        cfg = SimConfig(reps=401, n=3, seed=8)
        whole = run_simulation(tiny_pop, cfg)
        write_estimates_csv(tmp_path / "a.csv", whole)
        monkeypatch.setattr(simulation, "_BLOCK_BYTES", 7 * 8 * cfg.n)
        blocked = run_simulation(tiny_pop, cfg)
        write_estimates_csv(tmp_path / "b.csv", blocked)
        assert comparable(blocked) == comparable(whole)
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()

    def test_seed_changes_results(self, tiny_pop):
        a = run_simulation(tiny_pop, SimConfig(reps=400, n=3, seed=1))
        b = run_simulation(tiny_pop, SimConfig(reps=400, n=3, seed=2))
        assert comparable(a) != comparable(b)

    def test_identical_runs_are_equal(self, tiny_pop):
        cfg = SimConfig(reps=50, n=3, seed=7)
        assert run_simulation(tiny_pop, cfg) == run_simulation(tiny_pop, cfg)

    def test_wall_time_not_serialized(self, tiny_pop):
        res = run_simulation(tiny_pop, SimConfig(reps=10, n=3, seed=5))
        assert not any("time" in key for key in res.meta)


class TestReports:
    def test_partition_and_meta(self, tiny_pop):
        cfg = SimConfig(reps=500, n=3, seed=13, confidence=0.8)
        res = run_simulation(tiny_pop, cfg)
        assert res.meta["prng"] == "splitmix64"
        assert res.meta["reps"] == 500
        assert res.meta["n"] == 3
        assert res.meta["population_size"] == 6
        assert res.meta["confidence"] == 0.8
        assert res.meta["estimators"] == ["mean", "ratio", "product"]
        for rep in res.reports:
            assert rep.coverage + rep.neg_bias_rate + rep.pos_bias_rate == pytest.approx(1.0)
            assert rep.q1 <= rep.median <= rep.q3
            assert rep.singular_count == 0
        total = sum(res.ranking.counts.values())
        assert total + res.ranking.excluded_draws == 500
        assert res.ranking.excluded_draws == 0
        for order in res.ranking.counts:
            assert sorted(order) == ["mean", "product", "ratio"]

    def test_constant_y_population(self):
        pop = Population(y=[2.0] * 6, x=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        res = run_simulation(pop, SimConfig(reps=100, n=2, seed=3, estimators=(SampleMean(),)))
        rep = res.reports[0]
        assert rep.coverage == 1.0
        assert rep.mse_empirical == 0.0
        assert rep.re_vs_sample_mean is None
        assert rep.skewness is None and rep.kurtosis is None
        assert rep.q1 == rep.median == rep.q3 == 2.0

    def test_constant_y_rates_still_partition(self):
        # The summed mean of ten 0.3s rounds to 0.29999999999999993; the
        # true mean of a constant column is its value, so the half width is
        # exactly 0 and every sample mean 0.3 is covered.
        pop = Population(y=np.full(10, 0.3), x=np.arange(1.0, 11.0))
        res = run_simulation(pop, SimConfig(reps=20, n=3, seed=1))
        for rep in res.reports:
            assert rep.coverage + rep.neg_bias_rate + rep.pos_bias_rate == 1.0, rep.label
        assert res.reports[0].coverage == 1.0

    def test_constant_y_reports_no_rounding_noise(self):
        pop = Population(y=np.full(10, 0.3), x=np.arange(1.0, 11.0))
        res = run_simulation(pop, SimConfig(reps=20, n=3, seed=1))
        mean, ratio, product = res.reports
        assert res.meta["true_mean_y"] == 0.3 and res.meta["half_width"] == 0.0
        assert (mean.mse_empirical, mean.re_vs_sample_mean, mean.coverage) == (0.0, None, 1.0)
        assert ratio.re_vs_sample_mean == product.re_vs_sample_mean == 0.0

    def test_constant_x_reports_no_rounding_noise(self):
        # Ratio and product equal the sample mean when x is constant.
        pop = Population(y=np.arange(1.0, 11.0), x=np.full(10, 0.3))
        res = run_simulation(pop, SimConfig(reps=20, n=3, seed=1))
        mean, ratio, product = res.reports
        assert (ratio.re_vs_sample_mean, product.re_vs_sample_mean) == (1.0, 1.0)

    def test_singular_draws_counted_not_crashed(self):
        pop = Population(y=[1.0, 2.0, 3.0, 4.0, 5.0], x=[-1.0, -1.0, 1.0, 1.0, 1.0])
        cfg = SimConfig(reps=2000, n=2, seed=21, estimators=(SampleMean(), Ratio()))
        res = run_simulation(pop, cfg)
        mean_rep = res.reports[0]
        ratio_rep = res.reports[1]
        assert mean_rep.singular_count == 0
        # 6 of the 10 possible pairs average x to zero, so singular draws
        # must show up in bulk.
        assert ratio_rep.singular_count > 0
        assert ratio_rep.coverage + ratio_rep.neg_bias_rate + ratio_rep.pos_bias_rate == pytest.approx(1.0)
        total = sum(res.ranking.counts.values())
        assert total + res.ranking.excluded_draws == 2000
        assert res.ranking.excluded_draws == ratio_rep.singular_count

    def test_estimator_singular_on_every_draw(self):
        # Both samples of one unit have xbar / Xbar of -2 or 4, and either
        # raised to 1e308 overflows: no estimate survives to be summarized.
        pop = Population(y=[1.0, 2.0], x=[-2.0, 4.0])
        res = run_simulation(pop, SimConfig(reps=10, n=1, seed=0, estimators=(SrivastavaPower(1e308),)))
        (rep,) = res.reports
        assert rep.singular_count == 10
        assert (rep.coverage, rep.neg_bias_rate, rep.pos_bias_rate) == (0.0, 0.0, 0.0)
        shape = (rep.q1, rep.median, rep.q3, rep.mse_empirical, rep.re_vs_sample_mean,
                 rep.skewness, rep.kurtosis)
        assert shape == (None,) * 7
        assert res.ranking == RankingTable(counts={}, excluded_draws=10)
        assert np.isnan(res.estimates).all()

    @pytest.mark.parametrize(
        "spec",
        [
            UnbiasedAOE(1e200),  # estimates of +-inf and nan
            SinghRatioProduct(1e308),  # finite estimates whose squares overflow
            RatioProductRatio(1e120, 0.0),  # m2 finite, m2**1.5 and m4 not
        ],
    )
    def test_overflowing_estimator_raises_naming_it(self, spec):
        pop = generate_population(MomentTargets(30, 1.0, 1.0, 0.3, 0.3, 0.5), 3)
        cfg = SimConfig(reps=50, n=5, seed=1, estimators=(SampleMean(), spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError) as err:
                run_simulation(pop, cfg)
        assert str(err.value).startswith(f"estimator {estimator_token(spec)}: ")
        assert "overflow" in str(err.value)

    def test_tiny_deviations_keep_their_shape(self):
        # y scaled by 2^-332: every estimate and deviation scales exactly,
        # the MSE (about 1e-201) is still a normal double, but the fourth
        # powers underflow, so skewness and kurtosis once divided by zero.
        pop = generate_population(MomentTargets(30, 1.0, 1.0, 0.3, 0.3, 0.5), 3)
        tiny = Population(y=np.ldexp(pop.y, -332), x=pop.x)
        cfg = SimConfig(reps=200, n=5, seed=1, estimators=(SampleMean(), Ratio(), Product()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_simulation(tiny, cfg)
        want = run_simulation(pop, cfg)
        for g, w in zip(got.reports, want.reports):
            assert (g.skewness, g.kurtosis) == (w.skewness, w.kurtosis)
            assert g.mse_empirical == math.ldexp(w.mse_empirical, -664)
            assert g.re_vs_sample_mean == w.re_vs_sample_mean

    def test_underflowing_moments_raise_naming_the_estimator(self):
        # Deviations near 1e-160 square to below the smallest normal double.
        k = np.arange(1.0, 11.0)
        pop = Population(y=k * 1e-160, x=k)
        cfg = SimConfig(reps=20, n=3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^estimator mean: .*underflow"):
                run_simulation(pop, cfg)

    def test_mse_underflowing_to_zero_raises_naming_the_estimator(self):
        # The ratio estimates deviate from Ybar by about 1e-176; their
        # squares underflow to exactly 0.0, so the MSE reads 0.0.
        k = np.arange(1.0, 11.0)
        pop = Population(y=k * 1e-160, x=k)
        cfg = SimConfig(reps=20, n=3, seed=1, estimators=(Ratio(),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^estimator ratio: .*underflow"):
                run_simulation(pop, cfg)
            with pytest.raises(InvalidInputError, match="^estimator ratio: .*underflow"):
                exhaustive_oracle(pop, 3, Ratio())

    def test_zero_deviations_keep_a_zero_mse(self):
        # A constant y: every sample mean is Ybar exactly, so an MSE of 0.0
        # is exact and no error is raised.
        pop = Population(y=np.full(10, 0.5), x=np.arange(1.0, 11.0))
        res = run_simulation(pop, SimConfig(reps=20, n=3, seed=1, estimators=(SampleMean(),)))
        assert res.reports[0].mse_empirical == 0.0
        assert exhaustive_oracle(pop, 3, SampleMean()).mse == 0.0

    def test_single_replication(self, tiny_pop):
        res = run_simulation(tiny_pop, SimConfig(reps=1, n=2, seed=0))
        assert sum(res.ranking.counts.values()) == 1
        assert list(res.ranking.counts.values()) == [1]

    def test_baseline_efficiency_without_mean_estimator(self, tiny_pop):
        # The plain sample mean is the efficiency baseline even when it is
        # not in the configured list.
        cfg_pair = SimConfig(reps=300, n=3, seed=17, estimators=(SampleMean(), Ratio()))
        cfg_solo = SimConfig(reps=300, n=3, seed=17, estimators=(Ratio(),))
        pair = run_simulation(tiny_pop, cfg_pair)
        solo = run_simulation(tiny_pop, cfg_solo)
        assert solo.reports[0].re_vs_sample_mean == pytest.approx(
            pair.reports[1].re_vs_sample_mean, rel=1e-12
        )
        assert pair.reports[0].re_vs_sample_mean == pytest.approx(1.0, rel=1e-12)


def reference_dump(path, labels, est, ok, true_mean, half_width) -> None:
    """The per-row dump writer: one repr call per estimate."""
    with open(path, "w", newline="") as fh:
        fh.write("rep,estimator,estimate,covered\n")
        for rep in range(est.shape[0]):
            for j, label in enumerate(labels):
                if ok[rep, j]:
                    value = float(est[rep, j])
                    covered = int(abs(value - true_mean) <= half_width)
                    fh.write(f"{rep},{label},{value!r},{covered}\n")
                else:
                    fh.write(f"{rep},{label},nan,0\n")


class TestDump:
    @pytest.mark.parametrize("block_rows", [1, 2, 3, 7, 8, 4096])
    @pytest.mark.parametrize("true_mean", [0.25, -1e308])
    def test_matches_reference_dump_byte_for_byte(self, tmp_path, monkeypatch, block_rows, true_mean):
        # 7 replications of 3 estimators, 21 rows: blocks of 3 rows hold one
        # replication each; blocks of 2, 7 or 8 rows split replications,
        # the rpr: label's among them, and 2 or 8 leave a short last block.
        labels = ["mean", "rpr:0.25,-0.5", "ratio"]
        est = np.array([
            [0.25, -0.0, 0.0],
            [math.inf, -math.inf, 1.7e308],
            [0.1 + 0.2, 5e-324, -1e-300],
            [math.nan, 0.5, 0.75],
            [0.3, 0.3, 0.3],
            [123456.789, -2.5e-7, 1.5e308],  # minus -1e308 overflows to inf
            [0.25, 0.2500000000000001, 1.0],
        ])
        ok = np.ones(est.shape, dtype=bool)
        ok[1, 2] = ok[4, :] = ok[6, 0] = False
        half_width = 0.5
        result = SimResult(
            (), RankingTable({}, 0),
            meta={"estimators": labels, "true_mean_y": true_mean, "half_width": half_width},
            estimates=np.where(ok, est, np.nan),
        )
        monkeypatch.setattr(population, "_CSV_BLOCK_ROWS", block_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_estimates_csv(tmp_path / "a.csv", result)
        reference_dump(tmp_path / "b.csv", labels, est, ok, true_mean, half_width)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_writes_each_estimate_as_the_result_holds_it(self, tmp_path):
        # No mask beside the estimates: a nan cell is written nan,0 and any
        # other cell, -0.0 and inf among them, as its repr.
        labels = ["rpr:0.25,-0.5", "mean"]
        est = np.array([[-0.0, math.nan], [math.inf, 0.5], [math.nan, -math.inf], [0.1 + 0.2, 3.0]])
        result = SimResult(
            (), RankingTable({}, 0),
            meta={"estimators": labels, "true_mean_y": 0.5, "half_width": 1.0},
            estimates=est,
        )
        write_estimates_csv(tmp_path / "dump.csv", result)
        want = ["rep,estimator,estimate,covered"]
        for rep, row in enumerate(est.tolist()):
            for label, value in zip(labels, row):
                cell = "nan,0" if math.isnan(value) else f"{value!r},{int(abs(value - 0.5) <= 1.0)}"
                want.append(f"{rep},{label},{cell}")
        assert (tmp_path / "dump.csv").read_text() == "\n".join(want) + "\n"
        assert "0,rpr:0.25,-0.5,-0.0,1" in want and "1,rpr:0.25,-0.5,inf,0" in want

    def test_result_without_estimates_is_refused_before_the_file_opens(self, tmp_path):
        result = SimResult((), RankingTable({}, 0), meta={"estimators": ["mean"]})
        with pytest.raises(InvalidInputError, match="^the result holds no per-replication estimates"):
            write_estimates_csv(tmp_path / "dump.csv", result)
        assert not (tmp_path / "dump.csv").exists()

    def test_row_count_and_singular_rows(self, tmp_path):
        pop = Population(y=[1.0, 2.0, 3.0, 4.0, 5.0], x=[-1.0, -1.0, 1.0, 1.0, 1.0])
        dump = tmp_path / "dump.csv"
        cfg = SimConfig(reps=50, n=2, seed=21, estimators=(SampleMean(), Ratio()))
        res = run_simulation(pop, cfg)
        write_estimates_csv(dump, res)
        with open(dump) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50 * 2
        nan_rows = [r for r in rows if r["estimate"] == "nan"]
        assert len(nan_rows) == res.reports[1].singular_count
        assert all(r["covered"] == "0" for r in nan_rows)
        for r in rows:
            if r["estimate"] != "nan":
                float(r["estimate"])  # parses back cleanly

    def test_ranking_equals_per_replication_count(self, tmp_path):
        # Orders counted one replication at a time from the dumped
        # estimates: stable by |estimate - Ybar|, ties in configured order,
        # replications with a singular estimator left out.
        pop = Population(
            y=[1.0, 2.0, 3.0, 4.0, 5.0, 6.5, 7.0], x=[-1.0, -1.0, 1.0, 1.0, 1.0, 2.0, 0.5]
        )
        dump = tmp_path / "dump.csv"
        specs = (SampleMean(), Ratio(), Product(), UnbiasedAOE(0.6092))
        res = run_simulation(pop, SimConfig(reps=600, n=2, seed=8, estimators=specs))
        write_estimates_csv(dump, res)
        with open(dump) as fh:
            rows = list(csv.DictReader(fh))
        true_mean = float(pop.y.mean())
        want = Counter()
        for rep in range(600):
            cells = rows[rep * len(specs):(rep + 1) * len(specs)]
            if any(c["estimate"] == "nan" for c in cells):
                continue
            ranked = sorted(cells, key=lambda c: abs(float(c["estimate"]) - true_mean))
            want[tuple(c["estimator"] for c in ranked)] += 1
        assert len(want) > 5
        assert res.ranking.counts == dict(want)
        assert all(type(count) is int for count in res.ranking.counts.values())
        assert res.ranking.excluded_draws == 600 - sum(want.values()) > 0


class TestCountRows:
    """The ranking tally against np.unique(rows, axis=0, return_counts=True)
    as the reference."""

    @staticmethod
    def _unique_table(rows):
        keys, counts = np.unique(rows, axis=0, return_counts=True)
        return dict(zip(map(tuple, keys.tolist()), counts.tolist()))

    @pytest.mark.parametrize("k", [1, 2, 9, 12])
    @pytest.mark.parametrize("reps", [0, 1, 500])
    def test_matches_unique(self, k, reps):
        # Rounded scores tie often, and a stable argsort breaks ties by
        # column; resampling the orders with replacement repeats some.
        # reps = 0 is a run in which every replication was excluded.
        rng = np.random.default_rng(k * 1000 + reps)
        scores = np.round(rng.normal(size=(reps, k)) * rng.uniform(0.2, 2.0, size=k), 1)
        rows = np.argsort(np.abs(scores), axis=1, kind="stable")
        rows = rows[rng.integers(0, reps, size=reps)] if reps else rows
        got = simulation._count_rows(rows)
        want = self._unique_table(rows)
        assert got == want
        assert list(got) == list(want) == sorted(got)
        assert all(type(c) is int for c in got.values())
        assert all(type(j) is int for key in got for j in key)
        assert sum(got.values()) == reps
        if reps == 500 and k > 1:
            assert max(got.values()) > 1 and len(got) > 1


class TestClosenessOrders:
    """The blocked ranking codes against the whole-matrix argsort they
    replace, both tallied by _count_rows."""

    @staticmethod
    def reference(est, clean, m):
        return simulation._count_rows(np.argsort(np.abs(est - m), axis=1, kind="stable")[clean])

    @pytest.mark.parametrize("gather_rows", [None, 7, 1])
    @pytest.mark.parametrize("k", [1, 2, 9, 300])
    @pytest.mark.parametrize("reps", [0, 1, 500])
    def test_tally_matches_whole_matrix_argsort(self, monkeypatch, gather_rows, k, reps):
        # Rounded estimates tie often, and resampling the rows with
        # replacement repeats some; 7-row or 1-row blocks end mid-array.
        if gather_rows is not None:
            monkeypatch.setattr(simulation, "_BLOCK_BYTES", gather_rows * 8 * k)
        rng = np.random.default_rng(k * 1000 + reps)
        est = np.round(rng.normal(size=(reps, k)), 1)
        est = est[rng.integers(0, reps, size=reps)] if reps else est
        m = 0.05
        for clean in (rng.random(reps) < 0.8, np.zeros(reps, dtype=bool)):
            codes = simulation._closeness_orders(est, clean, m)
            assert codes.dtype == (np.uint16 if k == 300 else np.uint8)
            assert codes.shape == (int(clean.sum()), k)
            got, want = simulation._count_rows(codes), self.reference(est, clean, m)
            assert got == want
            assert list(got) == list(want)
            assert all(type(j) is int for key in got for j in key)
            assert all(type(c) is int for c in got.values())
            if reps == 500 and clean.any():
                assert max(got.values()) > 1

    def test_singular_nan_rows_are_skipped(self):
        est = np.array([[np.nan, 1.0], [2.0, 0.5], [0.5, 0.5], [1.0, np.nan]])
        clean = ~np.isnan(est).any(axis=1)
        codes = simulation._closeness_orders(est, clean, 0.5)
        assert codes.tolist() == [[1, 0], [0, 1]]


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it traced beyond what was held
    before the call."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestMemoryBound:
    """A run's transient memory stays near its (reps, k) estimate matrix:
    no reps-sized float, int64 or list temporary besides those of one
    estimator column at a time."""

    ALL_KINDS = tuple(parse_estimator(t) for t in (
        "mean", "ratio", "product", "rpr:-0.3349,0.3176", "aoe:0.6092",
        "srivastava:-0.6", "reddy:0.6", "sahai:0.6", "singh:0.6",
    ))
    POP = generate_population(MomentTargets(40, 1.0, 1.5, 0.3, 0.2, 0.8), 5)

    def test_simulation_peak_within_three_estimate_matrices(self):
        cfg = SimConfig(reps=50_000, n=8, seed=3, estimators=self.ALL_KINDS)
        res, peak = traced_peak(run_simulation, self.POP, cfg)
        assert res.estimates.shape == (50_000, 9)
        assert sum(res.ranking.counts.values()) > 45_000
        assert peak <= 3 * res.estimates.nbytes

    @pytest.mark.parametrize("token", ["srivastava:-0.6", "sahai:0.6"])
    def test_oracle_power_kind_peak_near_ratio(self, token):
        pop = Population(y=self.POP.y[:20], x=self.POP.x[:20])
        _, ratio_peak = traced_peak(exhaustive_oracle, pop, 6, Ratio())
        _, power_peak = traced_peak(exhaustive_oracle, pop, 6, parse_estimator(token))
        assert power_peak <= 1.1 * ratio_peak

    def test_oracle_peak_near_its_estimates(self):
        # C(22, 7) = 170 544 subsets.  The sums read the estimate array
        # itself: a list of its floats would add some 4 times its bytes.
        pop = Population(y=self.POP.y[:22], x=self.POP.x[:22])
        _, peak = traced_peak(exhaustive_oracle, pop, 7, Ratio())
        assert peak <= 4.6 * 8 * math.comb(22, 7)


class TestEstimateMatrix:
    POP = Population(
        y=[1.0, 2.0, 3.0, 4.0, 5.0, 6.5, 7.0], x=[-1.0, -1.0, 1.0, 1.0, 1.0, 2.0, 0.5]
    )
    SPECS = (SampleMean(), Ratio(), Product(), RatioProductRatio(0.25, -0.5))

    def run(self):
        return run_simulation(self.POP, SimConfig(reps=300, n=2, seed=8, estimators=self.SPECS))

    def test_shape_and_nan_exactly_where_singular(self):
        res = self.run()
        assert res.estimates.shape == (300, len(self.SPECS))
        assert res.estimates.dtype == float
        singular = np.isnan(res.estimates)
        assert singular.any()
        # The draws the scalar formulas refuse, recomputed one at a time.
        N, Xbar = self.POP.size, float(self.POP.x.mean())
        want = np.zeros_like(singular)
        for r in range(300):
            idx = srswor(N, 2, 8, stream=r)
            s = SampleSummary(float(self.POP.y[idx].mean()), float(self.POP.x[idx].mean()), Xbar)
            for j, spec in enumerate(self.SPECS):
                try:
                    estimate(spec, s)
                except SingularDenominatorError:
                    want[r, j] = True
        assert (singular == want).all()

    def test_column_sums_are_singular_counts(self):
        res = self.run()
        counts = np.isnan(res.estimates).sum(axis=0).tolist()
        assert counts == [rep.singular_count for rep in res.reports]
        assert counts[1] > 0

    def test_rows_equal_scalar_estimates_of_recomputed_draws(self):
        res = self.run()
        N, Xbar = self.POP.size, float(self.POP.x.mean())
        for r in range(3):
            idx = srswor(N, 2, 8, stream=r)
            s = SampleSummary(float(self.POP.y[idx].mean()), float(self.POP.x[idx].mean()), Xbar)
            for j, spec in enumerate(self.SPECS):
                try:
                    want = estimate(spec, s)
                except SingularDenominatorError:
                    assert math.isnan(res.estimates[r, j])
                    continue
                assert res.estimates[r, j] == want

    # Kinds whose singular draws differ: a zero xbar, a zero denominator or
    # bracket, Xbar + k * (xbar - Xbar) = 0, and a negative xbar / Xbar.
    SINGULAR_KINDS = (
        Ratio(), RatioProductRatio(0.25, -0.5), RatioProductRatio(1.0, 2.0),
        Reddy(0.6), Reddy(2.0), SrivastavaPower(-0.6), SrivastavaPower(0.5),
    )

    @given(
        x=st.lists(st.integers(-3, 3), min_size=3, max_size=7),
        specs=st.lists(
            st.sampled_from(SINGULAR_KINDS), min_size=2, max_size=4, unique_by=estimator_token
        ),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_singular_counts_follow_the_nan_cells(self, x, specs, n, seed):
        assume(min(x) < 0 < max(x) and sum(x) != 0 and n < len(x))
        pop = Population(y=np.arange(1.0, len(x) + 1), x=np.array(x, dtype=float))
        res = run_simulation(pop, SimConfig(reps=40, n=n, seed=seed, estimators=tuple(specs)))
        nan = np.isnan(res.estimates)
        assert res.ranking.excluded_draws == int(nan.any(axis=1).sum())
        assert [rep.singular_count for rep in res.reports] == nan.sum(axis=0).tolist()
        assert sum(res.ranking.counts.values()) + res.ranking.excluded_draws == 40

    def test_arrays_left_out_of_equality(self):
        a, b = self.run(), self.run()
        assert a.estimates is not b.estimates
        assert a == dataclasses.replace(b, wall_time_s=a.wall_time_s)


class TestConfigValidation:
    def test_rejects_bad_configs(self):
        with pytest.raises(InvalidInputError):
            SimConfig(reps=0, n=3, seed=1)
        with pytest.raises(InvalidInputError):
            SimConfig(reps=10, n=3, seed=1, estimators=())
        with pytest.raises(InvalidInputError):
            SimConfig(reps=10, n=3, seed=1, estimators=(Ratio(), Ratio()))

    @pytest.mark.parametrize("name", ["reps", "n", "seed"])
    @pytest.mark.parametrize("value", [10.5, 10.0, np.float64(10), "10"], ids=repr)
    def test_non_integer_counts_are_named(self, name, value):
        kwargs = {"reps": 10, "n": 3, "seed": 1}
        kwargs[name] = value
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint16])
    def test_numpy_integer_counts_are_stored_as_int(self, tiny_pop, kind):
        cfg = SimConfig(reps=kind(10), n=kind(3), seed=kind(1))
        assert all(type(v) is int for v in (cfg.reps, cfg.n, cfg.seed))
        res = run_simulation(tiny_pop, cfg)
        assert all(type(res.meta[k]) is int for k in ("reps", "n", "seed"))
        assert res == dataclasses.replace(
            run_simulation(tiny_pop, SimConfig(reps=10, n=3, seed=1)), wall_time_s=res.wall_time_s
        )

    def test_rejects_reps_over_budget(self):
        with pytest.raises(TooLargeError, match="budget"):
            SimConfig(reps=10**15, n=3, seed=1)

    def test_distinct_parameterizations_allowed(self, tiny_pop):
        cfg = SimConfig(
            reps=5, n=3, seed=1,
            estimators=(RatioProductRatio(0.1, 0.2), RatioProductRatio(0.1, 0.3)),
        )
        res = run_simulation(tiny_pop, cfg)
        assert len(res.reports) == 2
