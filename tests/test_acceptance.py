"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they happen; without -s pytest shows them for failing tests.
"""
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from rpratio.cli import main as cli_main
from rpratio.estimators import (
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
    estimate,
    estimator_token,
)
from rpratio.population import SummaryStats, make_design, summarize
from rpratio.sampling import confidence_interval, plan_sample_size
from rpratio.simulation import SimConfig, exhaustive_oracle, run_simulation
from rpratio.synthetic import MomentTargets, generate_population
from rpratio.theory import (
    Baseline,
    Branch,
    aoe_parameters,
    bias1_rpr,
    dominates,
    family_theory,
    minimal_mse1,
    mse1_classical,
    mse1_grad,
    mse1_rpr,
    relative_efficiency,
)


@contextmanager
def criterion(num: int, desc: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")


@pytest.fixture(scope="module")
def sim_setup():
    targets = MomentTargets(
        size=365, mean_y=0.5832, mean_x=0.6277,
        cv_y=0.7681, cv_x=1.1504, r=0.9125,
    )
    pop = generate_population(targets, seed=20260823)
    cfg = SimConfig(
        reps=10000, n=112, seed=1234, confidence=0.90,
        estimators=(SampleMean(), Ratio(), Product(), UnbiasedAOE(0.6092)),
    )
    return pop, run_simulation(pop, cfg)


def random_stats(rng) -> SummaryStats:
    return SummaryStats.from_moments(
        mean_y=rng.uniform(0.2, 5.0),
        mean_x=rng.uniform(0.2, 5.0),
        sd_y=rng.uniform(0.2, 1.5) * 1.0,
        sd_x=rng.uniform(0.2, 1.5) * 1.0,
        r=rng.uniform(-0.95, 0.95),
    )


def test_criterion_01(bench_stats, bench_design):
    with criterion(1, "closed-form relative efficiencies 196.11/16.73/597.28 +-0.5"):
        re = lambda den: 100.0 * relative_efficiency(
            SampleMean(), den, bench_stats, bench_design
        )
        assert abs(re(Ratio()) - 196.11) <= 0.5
        assert abs(re(Product()) - 16.73) <= 0.5
        assert abs(re(UnbiasedAOE(bench_stats.c)) - 597.28) <= 0.5


def test_criterion_02():
    with criterion(2, "plan n0=160, n=112 exactly; CI half-width 0.0580 +-0.0005"):
        plan = plan_sample_size(0.2006, 0.0583, 0.90, 365)
        assert plan.n0 == 160
        assert plan.n == 112
        ci = confidence_interval(0.5832, math.sqrt(0.2006), 112, 365, 0.90)
        assert abs(ci.half_width - 0.0580) <= 0.0005


def test_criterion_03():
    with criterion(3, "aoe_parameters(0.6092) = (-0.3349, 0.3176) +-1e-3, residual <= 1e-10"):
        sol = aoe_parameters(0.6092, Branch.MINUS_MINUS)
        assert abs(sol.alpha_star - (-0.3349)) <= 1e-3
        assert abs(sol.beta_star - 0.3176) <= 1e-3
        residual = (1 - 2 * sol.alpha_star) * (1 - 2 * sol.beta_star) - 0.6092
        assert abs(residual) <= 1e-10


def test_criterion_04():
    with criterion(4, "rounded pair vs closed form 1e-6 rel (1000 draws); unrounded 1e-9"):
        rng = np.random.default_rng(20260823)
        rounded = RatioProductRatio(-0.3349, 0.3176)
        closed = UnbiasedAOE(0.6092)
        for _ in range(1000):
            ybar = rng.uniform(0.1, 5.0)
            Xbar = rng.uniform(0.5, 2.0)
            xbar = Xbar * (1 + rng.uniform(-0.01, 0.01))
            s = SampleSummary(ybar, xbar, Xbar)
            a, b = estimate(rounded, s), estimate(closed, s)
            assert abs(a - b) <= 1e-6 * max(abs(a), abs(b))
        sol = aoe_parameters(0.6092, Branch.MINUS_MINUS)
        exact = RatioProductRatio(sol.alpha_star, sol.beta_star)
        for _ in range(1000):
            ybar = rng.uniform(0.1, 5.0)
            Xbar = rng.uniform(0.5, 2.0)
            xbar = Xbar * (1 + rng.uniform(-0.3, 0.3))
            s = SampleSummary(ybar, xbar, Xbar)
            a, b = estimate(exact, s), estimate(closed, s)
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def test_criterion_05():
    with criterion(5, "mse1_grad matches central differences, 1000 points, 1e-5 rel"):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(1000):
            alpha = rng.uniform(-3.0, 4.0)
            beta = rng.uniform(-3.0, 4.0)
            stx = SummaryStats.from_moments(
                rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0),
                rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5),
                rng.uniform(-0.95, 0.95),
            )
            n = int(rng.integers(2, 300))
            d = make_design(n, n + int(rng.integers(1, 500)))
            ga, gb = mse1_grad(alpha, beta, stx, d)
            fa = (mse1_rpr(alpha + h, beta, stx, d) - mse1_rpr(alpha - h, beta, stx, d)) / (2 * h)
            fb = (mse1_rpr(alpha, beta + h, stx, d) - mse1_rpr(alpha, beta - h, stx, d)) / (2 * h)
            for a, f in ((ga, fa), (gb, fb)):
                denom = max(abs(a), abs(f))
                assert denom == 0.0 or abs(a - f) <= 1e-5 * denom


def test_criterion_06():
    with criterion(6, "dominates flags = MSE1 sign (10000 triples); ratio interval (-0.8706, 0.2006)"):
        rng = np.random.default_rng(11)
        specs = {
            Baseline.SAMPLE_MEAN: SampleMean(),
            Baseline.RATIO: Ratio(),
            Baseline.PRODUCT: Product(),
        }
        baselines = list(specs)
        skipped = 0
        for _ in range(10000):
            alpha = rng.uniform(-2.0, 3.0)
            beta = rng.uniform(-2.0, 3.0)
            c = rng.uniform(-1.8, 1.8)
            cv_x = rng.uniform(0.3, 1.5)
            r = math.copysign(rng.uniform(0.15, 0.95), c)
            stx = SummaryStats.from_moments(1.0, 1.0, abs(c) * cv_x / abs(r), cv_x, r)
            d = make_design(25, 80)
            over = baselines[int(rng.integers(0, 3))]
            diff = mse1_classical(specs[over], stx, d) - mse1_rpr(alpha, beta, stx, d)
            scale = d.fpc_rate * stx.mean_y**2 * stx.cv_x**2
            if abs(diff) <= 1e-12 * scale:
                skipped += 1  # sign of an exact tie is not defined in floats
                continue
            assert dominates(over, alpha, beta, c) == (diff > 0)
        assert skipped < 50

        def bisect(lo, hi):
            # dominance flag flips exactly once between lo and hi
            f_lo = dominates(Baseline.RATIO, lo, 0.3176, 0.6092)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if dominates(Baseline.RATIO, mid, 0.3176, 0.6092) == f_lo:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        left = bisect(-1.5, 0.0)
        right = bisect(0.0, 0.5)
        assert abs(left - (-0.8706)) <= 1e-3
        assert abs(right - 0.2006) <= 1e-3


def test_criterion_07(tiny_pop, low_cv_pop):
    with criterion(7, "exhaustive oracle: exact sample-mean moments; first-order within 15%"):
        exact = exhaustive_oracle(tiny_pop, 3, SampleMean())
        stx6 = summarize(tiny_pop)
        d6 = make_design(3, 6)
        assert abs(exact.bias) <= 1e-14 * abs(stx6.mean_y)
        assert exact.mse == pytest.approx(d6.fpc_rate * stx6.var_y, rel=1e-12)

        stx8 = summarize(low_cv_pop)
        d8 = make_design(4, 8)
        c = stx8.c
        for beta in (0.25, 0.30, 0.35):
            v = 1.0 - 2.0 * beta
            for da in (0.0, 0.02, -0.02):
                alpha = (1.0 - c / v) / 2.0 + da
                oracle = exhaustive_oracle(low_cv_pop, 4, RatioProductRatio(alpha, beta))
                assert abs(bias1_rpr(alpha, beta, stx8, d8) - oracle.bias) <= 0.15 * abs(oracle.bias)
                assert abs(mse1_rpr(alpha, beta, stx8, d8) - oracle.mse) <= 0.15 * oracle.mse


def test_criterion_08(bench_stats, bench_design):
    with criterion(8, "family: five tuned members share minimal mse1; display biases; Sahai < 0"):
        floor = minimal_mse1(bench_stats, bench_design)
        c = bench_stats.c
        members = [
            SrivastavaPower(-c),
            Reddy(c),
            SahaiTransformed(c),
            SinghRatioProduct((c + 1) / 2),
            UnbiasedAOE(c),
        ]
        values = [family_theory(m, bench_stats, bench_design).mse1 for m in members]
        for value in values:
            assert abs(value - floor) <= 1e-12 * floor
        for value in values[1:]:
            assert abs(value - values[0]) <= 1e-12 * floor

        rng = np.random.default_rng(3)
        for _ in range(100):
            stx = random_stats(rng)
            d = make_design(30, 120)
            ck = stx.c
            scale = d.fpc_rate * stx.cv_x**2 * stx.mean_y
            expected = [
                (SrivastavaPower(-ck), ck * (1 - ck) / 2),
                (Reddy(ck), 0.0),
                (SahaiTransformed(ck), ck * (1 - 3 * ck) / 2),
                (SinghRatioProduct((ck + 1) / 2), (1 + 2 * ck) * (1 - ck) / 2),
                (UnbiasedAOE(ck), 0.0),
            ]
            for spec, factor in expected:
                got = family_theory(spec, stx, d).bias1
                assert got == pytest.approx(scale * factor, rel=1e-10, abs=1e-14 * abs(scale))

        assert family_theory(SahaiTransformed(0.6092), bench_stats, bench_design).bias1 < 0


def test_criterion_09(sim_setup):
    with criterion(9, "simulation: coverages, REs, rank-1 frequency, skewness, <60 s"):
        pop, res = sim_setup
        assert res.wall_time_s < 60.0
        by_label = {rep.label: rep for rep in res.reports}
        mean_rep = by_label["mean"]
        ratio_rep = by_label["ratio"]
        product_rep = by_label["product"]
        aoe_rep = by_label[estimator_token(UnbiasedAOE(0.6092))]

        assert 0.88 <= mean_rep.coverage <= 0.92                      # (a)
        assert aoe_rep.coverage >= 0.99                               # (b)
        assert aoe_rep.re_vs_sample_mean >= 5.0                       # (c) >= 500%
        assert product_rep.re_vs_sample_mean <= 0.25                  # (d) <= 25%
        first_place: dict[str, int] = {}
        for order, count in res.ranking.counts.items():
            first_place[order[0]] = first_place.get(order[0], 0) + count
        winner = max(first_place, key=first_place.get)
        assert winner == aoe_rep.label                                # (e)
        assert abs(aoe_rep.skewness) < abs(ratio_rep.skewness)        # (f)


def test_criterion_10(tmp_path):
    with criterion(10, "byte-identical simulate reports across reruns"):
        pop_csv = tmp_path / "pop.csv"
        rc = cli_main([
            "generate", "--size", "365",
            "--mean-y", "0.5832", "--mean-x", "0.6277",
            "--cv-y", "0.7681", "--cv-x", "1.1504", "--r", "0.9125",
            "--seed", "20260823", "--out", str(pop_csv),
        ])
        assert rc == 0
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = cli_main([
                "simulate", "--population", str(pop_csv),
                "--reps", "2000", "--n", "112", "--seed", "1234",
                "--estimators", "mean,ratio,product,aoe:0.6092",
                "--out", str(out),
            ])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        payload = json.loads(blobs[0])
        assert payload["meta"]["seed"] == 1234
