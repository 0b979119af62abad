"""End-to-end CLI behavior: exit codes, JSON payloads, manifests."""
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import rpratio
from rpratio import cli, population
from rpratio.cli import main
from rpratio.errors import EstimationError
from rpratio.theory import SurfaceKind, surface_grid
from test_golden import REGION_ARGS

BENCH_STATS = {
    "mean_y": 0.5832,
    "mean_x": 0.6277,
    "sd_y": 0.4480,
    "sd_x": 0.7222,
    "r": 0.9125,
}


@pytest.fixture(scope="module")
def pop_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("pop") / "pop.csv"
    rc = main([
        "generate", "--size", "40", "--mean-y", "2.0", "--mean-x", "3.0",
        "--cv-y", "0.4", "--cv-x", "0.5", "--r", "0.8",
        "--seed", "77", "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def small_pop_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "pop.csv"
    rc = main([
        "generate", "--size", "30", "--mean-y", "1", "--mean-x", "1",
        "--cv-y", "0.3", "--cv-x", "0.3", "--r", "0.5",
        "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture()
def stats_json(tmp_path):
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(BENCH_STATS))
    return path


class TestGenerate:
    def test_writes_csv_and_manifest(self, pop_csv, capsys):
        assert pop_csv.exists()
        lines = pop_csv.read_text().splitlines()
        assert lines[0] == "y,x"
        assert len(lines) == 41
        manifest = json.loads(
            (pop_csv.parent / "pop.manifest.json").read_text()
        )
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 77
        assert manifest["inputs"]["size"] == 40
        assert manifest["outputs"] == [str(pop_csv)]
        for key in ("version", "timestamp", "wall_time_s"):
            assert key in manifest

    def test_announces_c(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        rc = main([
            "generate", "--size", "30", "--mean-y", "1.0", "--mean-x", "1.0",
            "--cv-y", "0.3", "--cv-x", "0.4", "--r", "0.5",
            "--seed", "1", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "30 rows" in captured.out and "c=" in captured.out

    def test_csv_equals_repr_of_every_row_across_blocks(self, tmp_path, monkeypatch, capsys):
        from rpratio.synthetic import MomentTargets, generate_population

        monkeypatch.setattr(population, "_BLOCK_BYTES", 7 * 8 * 2)
        out = tmp_path / "p.csv"
        rc = main([
            "generate", "--size", "53", "--mean-y", "1.0", "--mean-x", "2.0",
            "--cv-y", "0.3", "--cv-x", "0.4", "--r", "0.5",
            "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        pop = generate_population(
            MomentTargets(size=53, mean_y=1.0, mean_x=2.0, cv_y=0.3, cv_x=0.4, r=0.5), 5
        )
        rows = "".join(f"{float(y)!r},{float(x)!r}\n" for y, x in zip(pop.y, pop.x))
        assert out.read_bytes() == ("y,x\n" + rows).encode()

    def test_infeasible_targets_exit_2(self, tmp_path, capsys):
        rc = main([
            "generate", "--size", "50", "--mean-y", "1.0", "--mean-x", "1.0",
            "--cv-y", "1.2", "--cv-x", "1.2", "--r", "-0.95",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_overflowing_mean_exit_2_without_warnings(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([
                "generate", "--size", "10", "--mean-y", "1.7e308", "--mean-x", "1",
                "--cv-y", "0.1", "--cv-x", "0.1", "--r", "0.5",
                "--seed", "1", "--out", str(tmp_path / "x.csv"),
            ])
        err = capsys.readouterr().err
        assert rc == 2
        assert [str(w.message) for w in caught] == []
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "mean_y=1.7e+308" in err

    @pytest.mark.parametrize("cv_x", ["1e300", "1e160"])
    def test_cv_whose_base_square_overflows_exit_2(self, tmp_path, capsys, cv_x):
        out = tmp_path / "x.csv"
        rc = main([
            "generate", "--size", "10", "--mean-y", "1", "--mean-x", "1.7e308",
            "--cv-y", "0.1", "--cv-x", cv_x, "--r", "0.5",
            "--seed", "1", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"coefficient of variation {float(cv_x)!r}" in err
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main([
            "generate", "--size", "10", "--mean-y", "1", "--mean-x", "1",
            "--cv-y", "0.1", "--cv-x", "0.2", "--r", "0.5",
            "--seed", "-1", "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_underflowing_variance_exit_2_leaving_no_file(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc = main([
            "generate", "--size", "5", "--mean-y", "1e-320", "--mean-x", "1",
            "--cv-y", "0.3", "--cv-x", "0.3", "--r", "0.5",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: the variance of y underflows double precision\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_manifest_path_a_directory_exit_2_leaves_no_csv(self, tmp_path, capsys):
        (tmp_path / "p.manifest.json").mkdir()
        out = tmp_path / "p.csv"
        rc = main([
            "generate", "--size", "10", "--mean-y", "1", "--mean-x", "1",
            "--cv-y", "0.1", "--cv-x", "0.2", "--r", "0.5",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
        assert [p.name for p in tmp_path.iterdir()] == ["p.manifest.json"]

    def test_over_budget_size_exit_2_at_once(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main([
            "generate", "--size", "1000000000000000", "--mean-y", "1.0",
            "--mean-x", "1.0", "--cv-y", "0.3", "--cv-x", "0.4", "--r", "0.5",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == 2
        assert "budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["", "/"])
    def test_out_naming_no_file_exits_2_before_drawing(self, tmp_path, monkeypatch, capsys, out):
        def draw(*_):
            raise AssertionError("a population was drawn")

        monkeypatch.setattr(cli, "generate_population", draw)
        monkeypatch.chdir(tmp_path)
        rc = main([
            "generate", "--size", "10", "--mean-y", "1", "--mean-x", "1",
            "--cv-y", "0.1", "--cv-x", "0.2", "--r", "0.5", "--seed", "1", "--out", out,
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: --out {out!r} names no file\n"
        assert captured.out == "" and not any(tmp_path.iterdir())


class TestAnalyze:
    def test_json_roundtrip(self, pop_csv, capsys):
        rc = main(["analyze", str(pop_csv)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["population_size"] == 40
        assert payload["mean_y"] == pytest.approx(2.0, rel=1e-12)
        assert payload["cv_x"] == pytest.approx(0.5, rel=1e-12)
        assert payload["r"] == pytest.approx(0.8, abs=1e-12)
        assert payload["c"] == pytest.approx(0.8 * 0.4 / 0.5, rel=1e-10)

    def test_design_block(self, pop_csv, capsys):
        rc = main(["analyze", str(pop_csv), "--design", "10,40"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["design"]["n"] == 10
        assert payload["design"]["f"] == pytest.approx(0.25)
        assert payload["design"]["fpc_rate"] == pytest.approx(0.075)

    def test_bad_design_string(self, pop_csv, capsys):
        rc = main(["analyze", str(pop_csv), "--design", "ten,40"])
        assert rc == 2
        assert "expected 'n,N'" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nope.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,x\n1.0,2.0\n3.0,oops\n")
        rc = main(["analyze", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 3" in err

    @pytest.mark.parametrize("cell", [" 1 ", "\u0662"])
    def test_cell_float_would_read_exit_2(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"y,x\n1.0,2.0\n3.0,4.0\n{cell},5.0\n", encoding="utf-8")
        rc = main(["analyze", str(bad)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "line 4" in captured.err

    def test_underflowing_variance_exit_2_naming_it(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("y,x\n1e-320,1\n2e-320,2\n3e-320,4\n")
        rc = main(["analyze", str(tiny)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: the variance of y underflows double precision\n"

    @pytest.mark.parametrize("column", ["1e-85,2e-85,4e-85", "1e100,2e100,4e100"])
    def test_variance_product_beyond_doubles_gives_r_one(self, tmp_path, capsys, column):
        # var_y * var_x underflows to 0 for the first and overflows for the second.
        pop = tmp_path / "twin.csv"
        pop.write_text("y,x\n" + "".join(f"{v},{v}\n" for v in column.split(",")))
        rc = main(["analyze", str(pop)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert (payload["r"], payload["c"]) == (1.0, 1.0)


class TestPlan:
    def test_worked_example(self, capsys):
        rc = main([
            "plan", "--sigma2", "0.2006", "--margin", "0.0583",
            "--confidence", "0.90", "--population-size", "365",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["n0"] == 160
        assert payload["n"] == 112
        assert payload["z"] == pytest.approx(1.6448536, abs=1e-6)
        assert payload["margin"] == 0.0583

    def test_needs_some_margin(self, capsys):
        rc = main(["plan", "--sigma2", "0.2", "--population-size", "365"])
        assert rc == 2

    @pytest.mark.parametrize(
        "margin_args, margin",
        [
            (["--sigma2", "1", "--margin", "1e-300"], "1e-300"),
            (["--sigma2", "1e300", "--margin", "1e-10"], "1e-10"),
            (["--sigma2", "1", "--margin", "1e-302"], "1e-302"),
        ],
    )
    def test_n0_beyond_double_precision_exit_2(self, margin_args, margin, capsys):
        rc = main(["plan", *margin_args, "--population-size", "100"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: sigma2 = ") and f"margin = {margin}" in err

    def test_squares_overflow_but_n0_is_one(self, capsys):
        # z^2 * sigma2 and margin^2 both overflow, yet their quotient is
        # about 3e-92.
        rc = main([
            "plan", "--sigma2", "1e308", "--margin", "1e200",
            "--population-size", "100",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert (payload["n0"], payload["n"]) == (1, 1)

    def test_confidence_next_below_one(self, capsys):
        # 0.5 * (1 + confidence) rounds to 1.0 here.
        rc = main([
            "plan", "--sigma2", "1", "--margin", "0.1",
            "--confidence", "0.9999999999999999", "--population-size", "100",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["z"] == 8.292361075813595
        assert (payload["n0"], payload["n"]) == (6877, 99)

    def test_nonpositive_margin_exit_2(self, capsys):
        rc = main([
            "plan", "--sigma2", "0.2", "--margin", "0",
            "--population-size", "365",
        ])
        assert rc == 2
        assert "positive" in capsys.readouterr().err


class TestTheory:
    def test_center_point_full_payload(self, stats_json, capsys):
        rc = main([
            "theory", "--alpha", "0.5", "--beta", "0.5",
            "--stats", str(stats_json), "--design", "112,365",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["bias1"] == 0.0
        assert payload["gradient"] == [0.0, 0.0]
        assert payload["mse1"] == pytest.approx(0.001242126, rel=1e-6)
        assert payload["minimal_mse1"] == pytest.approx(2.0786e-4, rel=1e-4)
        # At the centre the estimator is the sample mean itself: never
        # better than itself or the ratio here, but it does beat the
        # product when c > 0.
        assert payload["dominates"] == {
            "mean": False, "ratio": False, "product": True,
        }
        assert payload["biasfree_betas"][0] == 0.5
        assert payload["aoe"]["minus_minus"]["is_real"] is True
        assert "re_vs_sample_mean_percent" in payload

    def test_c_alone_gives_the_aoe_block(self, capsys):
        rc = main(["theory", "--c", "0.6092"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        sol = payload["aoe"]["minus_minus"]
        assert sol["alpha_star"] == pytest.approx(-0.33507, abs=1e-5)
        assert sol["beta_star"] == pytest.approx(0.31762, abs=1e-5)
        assert payload["aoe"]["plus_plus"]["alpha_star"] == pytest.approx(
            1.33507, abs=1e-5
        )
        assert "re_vs_sample_mean_percent" not in payload
        assert "bias1" not in payload

    def test_stats_alone_gives_the_re_table(self, stats_json, capsys):
        rc = main(["theory", "--stats", str(stats_json)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        table = payload["re_vs_sample_mean_percent"]
        assert table["ratio"] == pytest.approx(196.12, abs=0.01)
        assert table["product"] == pytest.approx(16.73, abs=0.01)
        assert table["aoe_at_c"] == pytest.approx(597.57, abs=0.01)

    def test_pole_reported_not_crashed(self, capsys):
        rc = main(["theory", "--c", "0.5"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["aoe"] is None
        assert "aoe_note" in payload

    def test_complex_region_nulls(self, capsys):
        rc = main(["theory", "--c", "0.25"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        sol = payload["aoe"]["minus_minus"]
        assert sol["alpha_star"] is None
        assert sol["is_real"] is False

    def test_needs_stats_or_c(self, capsys):
        rc = main(["theory", "--alpha", "0.1", "--beta", "0.2"])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--c", "0.6", "--alpha", "0.3"], "--alpha needs --beta"),
            (["--c", "0.6", "--beta", "0.3"], "--beta needs --alpha"),
            (["--c", "0.6", "--design", "5,17"], "--design needs --stats"),
            (["--stats", "STATS", "--design", "5,17"], "--design needs --alpha and --beta"),
        ],
        ids=["alpha-alone", "beta-alone", "design-alone", "design-without-point"],
    )
    def test_unusable_input_exits_2_naming_the_missing_flag(
        self, argv, message, stats_json, capsys
    ):
        argv = [str(stats_json) if a == "STATS" else a for a in argv]
        rc = main(["theory", *argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: theory {message}\n"
        assert captured.out == ""

    def test_stats_with_design_keeps_the_re_table(self, stats_json, capsys):
        # Any design gives the same relative efficiencies: the fpc cancels.
        # At 5,365 and 8,365 a ratio of whole first-order MSEs rounds
        # differently from the ratio of their design-free factors.
        assert main(["theory", "--stats", str(stats_json)]) == 0
        want = json.loads(capsys.readouterr().out)["re_vs_sample_mean_percent"]
        for design in ("5,17", "5,365", "8,365", "112,365", "364,365", "1,2"):
            assert main([
                "theory", "--stats", str(stats_json), "--alpha", "0.1", "--beta", "0.25",
                "--design", design,
            ]) == 0
            assert json.loads(capsys.readouterr().out)["re_vs_sample_mean_percent"] == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["theory", "--c", "nan"],
            ["theory", "--c", "0.6", "--alpha", "inf", "--beta", "0.2"],
            ["theory", "--c", "0.6", "--alpha", "0.1", "--beta=-Infinity"],
        ],
    )
    def test_non_finite_floats_exit_2(self, argv, capsys):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert "must be finite" in captured.err
        assert captured.out == ""

    def test_overflowing_result_exit_2(self, capsys):
        # Finite inputs whose bias-free beta overflows to infinity.
        rc = main(["theory", "--alpha", "1e200", "--beta", "0", "--c", "1e200"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "not finite" in captured.err
        assert "Infinity" not in captured.out

    @pytest.mark.parametrize("c", ["1e308", "-1e308"])
    def test_huge_c_aoe_is_finite(self, c, capsys):
        # 2c - 1 overflows here; the radical must not collapse to zero.
        rc = main(["theory", f"--c={c}"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        for sol in json.loads(captured.out)["aoe"].values():
            assert sol["is_real"] is True
            assert isinstance(sol["alpha_star"], float)
            assert isinstance(sol["beta_star"], float)

    @pytest.mark.parametrize("c", ["1.7e308", "-1.7e308"])
    def test_overflowing_aoe_exit_2(self, c, capsys):
        rc = main(["theory", f"--c={c}"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "overflows" in captured.err
        assert captured.out == ""

    def test_output_is_strict_json(self, stats_json, capsys):
        def reject(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        rc = main([
            "theory", "--alpha", "0.1", "--beta", "0.25", "--c", "0.25",
            "--stats", str(stats_json), "--design", "112,365",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["aoe"]["minus_minus"]["alpha_star"] is None

    @pytest.mark.parametrize(
        "content, message",
        [
            ("[0.5832, 0.6277]", "expected a JSON object"),
            (json.dumps({**BENCH_STATS, "mean_y": "x"}), "mean_y must be a real number"),
            (json.dumps({**BENCH_STATS, "r": True}), "r must be a real number"),
            (json.dumps({**BENCH_STATS, "sd_x": None}), "sd_x must be a real number"),
            ('{"mean_y": NaN, "mean_x": 0.6, "sd_y": 0.4, "sd_x": 0.7, "r": 0.9}',
             "mean_y must be finite"),
            (json.dumps({"mean_y": 0.5, "mean_x": 0.6, "var_y": -1.0,
                         "sd_x": 0.7, "r": 0.9}), "var_y is negative"),
            (json.dumps({"mean_y": 0.5, "mean_x": 0.6, "sd_y": 0.4, "r": 0.9}),
             "missing key 'var_x'"),
            ('{"mean_y": 0.5,', "stats.json: Expecting property name"),
        ],
    )
    def test_malformed_stats_exit_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "stats.json"
        path.write_text(content)
        rc = main(["theory", "--stats", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert message in captured.err
        assert "internal error" not in captured.err

    @pytest.mark.parametrize(
        "name, content",
        [
            ("stats.json", json.dumps(
                {"mean_y": 1.0, "mean_x": 1e-100, "sd_y": 1.0, "sd_x": 1e100, "r": 0.5}
            )),
            # mean_x = 1e-100 and sd_x = 1e150, so cv_x = 1e250.
            ("pop.csv", "y,x\n1,1e150\n2,-1e150\n3,3e-100\n"),
        ],
    )
    def test_overflowing_stats_exit_2(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        path.write_text(content)
        rc = main([
            "theory", "--stats", str(path), "--alpha", "0.1", "--beta", "0.2",
            "--design", "10,100",
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert "cv_x" in captured.err and "too large" in captured.err
        assert captured.out == ""

    def test_stats_with_variances_equal_stats_with_sds(self, tmp_path, capsys):
        moments = {"mean_y": 0.5832, "mean_x": 0.6277, "r": 0.9125}
        payloads = []
        for name, spread in [("var", {"var_y": 0.25, "var_x": 0.49}),
                             ("sd", {"sd_y": 0.5, "sd_x": 0.7})]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**moments, **spread}))
            assert main([
                "theory", "--stats", str(path), "--alpha", "0.1", "--beta", "0.25",
                "--design", "112,365",
            ]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[0] == payloads[1]
        assert payloads[0]["c"] == pytest.approx(0.9125 * 0.5 / 0.5832 / (0.7 / 0.6277))

    def test_stats_from_population_csv(self, pop_csv, capsys):
        rc = main(["theory", "--stats", str(pop_csv)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["c"] == pytest.approx(0.8 * 0.4 / 0.5, rel=1e-10)


class TestSimulate:
    def run_once(self, pop_csv, tmp_path, name, extra=()):
        out = tmp_path / name
        rc = main([
            "simulate", "--population", str(pop_csv),
            "--reps", "300", "--n", "10", "--seed", "5",
            "--out", str(out), *extra,
        ])
        assert rc == 0
        return out.read_bytes()

    def test_confidence_next_below_one(self, pop_csv, tmp_path, capsys):
        report = json.loads(self.run_once(
            pop_csv, tmp_path, "r.json", ["--confidence", "0.9999999999999999"]
        ))
        assert report["meta"]["confidence"] == 0.9999999999999999
        assert report["meta"]["half_width"] > 0.0

    def test_reports_byte_identical(self, pop_csv, tmp_path, capsys):
        a = self.run_once(pop_csv, tmp_path, "r1.json")
        b = self.run_once(pop_csv, tmp_path, "r2.json")
        assert a == b
        out = capsys.readouterr().out
        assert "estimator" in out and "report written" in out

    def test_report_and_manifest_content(self, pop_csv, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = main([
            "simulate", "--population", str(pop_csv),
            "--reps", "50", "--n", "8", "--seed", "9",
            "--estimators", "mean,ratio,rpr:-0.335,0.3176",
            "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["estimators"] == [
            "mean", "ratio", "rpr:-0.335,0.3176",
        ]
        assert len(payload["estimators"]) == 3
        assert sum(o["count"] for o in payload["ranking"]["orders"]) + payload[
            "ranking"
        ]["excluded_draws"] == 50
        counts = [o["count"] for o in payload["ranking"]["orders"]]
        assert counts == sorted(counts, reverse=True)
        manifest = json.loads((tmp_path / "rep.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["inputs"]["reps"] == 50
        assert str(out) in manifest["outputs"]

    def test_single_replication(self, pop_csv, tmp_path, capsys):
        out = tmp_path / "one.json"
        rc = main([
            "simulate", "--population", str(pop_csv),
            "--reps", "1", "--n", "5", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert sum(o["count"] for o in payload["ranking"]["orders"]) == 1

    def test_over_budget_reps_exit_2_at_once(self, pop_csv, tmp_path, capsys):
        out = tmp_path / "x.json"
        rc = main([
            "simulate", "--population", str(pop_csv),
            "--reps", "1000000000000000", "--n", "5", "--seed", "1",
            "--out", str(out),
        ])
        assert rc == 2
        assert "budget" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_estimates(self, pop_csv, tmp_path, capsys):
        out = tmp_path / "rep.json"
        dump = tmp_path / "per_rep.csv"
        rc = main([
            "simulate", "--population", str(pop_csv),
            "--reps", "20", "--n", "5", "--seed", "3",
            "--out", str(out), "--dump-estimates", str(dump),
        ])
        assert rc == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "rep,estimator,estimate,covered"
        assert len(lines) == 1 + 20 * 3
        manifest = json.loads((tmp_path / "rep.manifest.json").read_text())
        assert manifest["outputs"] == [str(out), str(dump)]

    def test_unwritable_dump_exit_2_leaves_no_report(self, pop_csv, tmp_path, capsys):
        # The dump is written before the report, so a dump path that cannot
        # be opened leaves neither the report nor its manifest behind.
        out = tmp_path / "r.json"
        rc = main([
            "simulate", "--population", str(pop_csv),
            "--reps", "20", "--n", "5", "--seed", "3",
            "--out", str(out), "--dump-estimates", str(tmp_path),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        assert not (tmp_path / "r.manifest.json").exists()

    @pytest.mark.parametrize(
        "out, dump",
        [
            ("r2.json", "r2.manifest.json"),
            ("same.csv", "same.csv"),
            ("./r.json", "r.json"),
            ("sub/../r.json", "./r.manifest.json"),
        ],
        ids=["dump-is-manifest", "dump-is-report", "dot-slash", "parent-dirs"],
    )
    def test_colliding_outputs_exit_2_and_touch_nothing(
        self, pop_csv, tmp_path, monkeypatch, capsys, out, dump
    ):
        # Checked before the population is read: the files already there
        # keep their bytes and no other file is made.
        (tmp_path / "sub").mkdir()
        (tmp_path / "r.json").write_text("an earlier report\n")
        (tmp_path / "same.csv").write_text("an earlier dump\n")
        monkeypatch.chdir(tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        rc = main([
            "simulate", "--population", str(pop_csv),
            "--reps", "20", "--n", "5", "--seed", "3",
            "--out", out, "--dump-estimates", dump,
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the outputs must be different files: ")
        assert captured.out == ""
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("out", ["", "/"])
    def test_out_naming_no_file_exits_2(self, pop_csv, tmp_path, capsys, out):
        rc = main([
            "simulate", "--population", str(pop_csv), "--reps", "20", "--n", "5",
            "--seed", "3", "--out", out, "--dump-estimates", str(tmp_path / "d.csv"),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: --out {out!r} names no file\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("dump", ["", "/"])
    def test_dump_naming_no_file_exits_2_before_reading(self, tmp_path, capsys, dump):
        rc = main([
            "simulate", "--population", str(tmp_path / "missing.csv"), "--reps", "20",
            "--n", "5", "--seed", "3", "--out", str(tmp_path / "r.json"),
            "--dump-estimates", dump,
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: --dump-estimates {dump!r} names no file\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "directory, out, dump_was_there",
        [("adir", "adir", False), ("r.manifest.json", "r.json", False), ("adir", "adir", True)],
        ids=["out-is-a-directory", "manifest-is-a-directory", "dump-was-there"],
    )
    def test_unwritable_output_exit_2_leaves_no_file_it_made(
        self, pop_csv, tmp_path, monkeypatch, capsys, directory, out, dump_was_there
    ):
        # The dump is written first; a file that was there before stays.
        (tmp_path / directory).mkdir()
        if dump_was_there:
            (tmp_path / "d.csv").write_text("an earlier dump\n")
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        rc = main([
            "simulate", "--population", str(pop_csv), "--reps", "20", "--n", "5",
            "--seed", "3", "--out", out, "--dump-estimates", "d.csv",
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: [Errno 21] Is a directory")
        assert sorted(tmp_path.rglob("*")) == before

    def test_differently_spelled_distinct_outputs_run(self, pop_csv, tmp_path, monkeypatch, capsys):
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        rc = main([
            "simulate", "--population", str(pop_csv),
            "--reps", "20", "--n", "5", "--seed", "3",
            "--out", "./sub/../r.json", "--dump-estimates", "./r.csv",
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "r.manifest.json").read_text())
        assert manifest["outputs"] == ["sub/../r.json", "./r.csv"]
        assert (tmp_path / "r.json").exists() and (tmp_path / "r.csv").exists()

    def test_power_overflow_is_a_singular_draw(self, tmp_path, capsys):
        # Any pair holding the x = 20 unit has xbar/Xbar > 3, and 3**5000
        # overflows; every other pair underflows to zero harmlessly.
        pop = tmp_path / "skewed.csv"
        pop.write_text("y,x\n" + "".join(f"{i},{1 if i < 8 else 20}\n" for i in range(1, 9)))
        out = tmp_path / "rep.json"
        rc = main([
            "simulate", "--population", str(pop),
            "--reps", "200", "--n", "2", "--seed", "4",
            "--estimators", "mean,srivastava:5000",
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        mean_rep, power_rep = json.loads(out.read_text())["estimators"]
        assert mean_rep["singular_count"] == 0
        assert 0 < power_rep["singular_count"] < 200

    def test_estimator_singular_on_every_draw(self, tmp_path, capsys):
        # x / Xbar is -2 or 4 on either one-unit sample, and either raised
        # to 1e308 overflows: the report keeps nulls, not invalid JSON.
        pop = tmp_path / "pair.csv"
        pop.write_text("y,x\n1,-2\n2,4\n")
        out = tmp_path / "rep.json"
        rc = main([
            "simulate", "--population", str(pop), "--reps", "10", "--n", "1",
            "--seed", "0", "--estimators", "srivastava:1e308", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        payload = json.loads(out.read_text())
        (rep,) = payload["estimators"]
        assert rep["singular_count"] == 10
        assert [rep[k] for k in ("coverage", "neg_bias_rate", "pos_bias_rate")] == [0.0] * 3
        assert [k for k, v in rep.items() if v is None] == [
            "q1", "median", "q3", "mse_empirical", "re_vs_sample_mean", "skewness", "kurtosis",
        ]
        assert payload["ranking"] == {"excluded_draws": 10, "orders": []}
        line = captured.out.splitlines()[1].split()
        assert line == ["srivastava:1e+308", "0.0000", "n/a", "n/a"]

    def test_manifest_inputs_are_the_parsed_flags(self, pop_csv, tmp_path, capsys):
        # Every parsed value but the command, seed and output paths, in
        # parser order.
        out, dump = tmp_path / "rep.json", tmp_path / "est.csv"
        assert main([
            "simulate", "--population", str(pop_csv), "--reps", "20", "--n", "4",
            "--seed", "9", "--estimators", "mean,aoe:0.6", "--out", str(out),
            "--dump-estimates", str(dump),
        ]) == 0
        manifest = json.loads((tmp_path / "rep.manifest.json").read_text())
        assert list(manifest["inputs"].items()) == [
            ("population", str(pop_csv)), ("reps", 20), ("n", 4),
            ("confidence", 0.9), ("estimators", "mean,aoe:0.6"),
        ]
        assert (manifest["command"], manifest["seed"]) == ("simulate", 9)
        assert manifest["outputs"] == [str(out), str(dump)]
        pop = tmp_path / "pop.csv"
        assert main([
            "generate", "--size", "30", "--mean-y", "1", "--mean-x", "2",
            "--cv-y", "0.3", "--cv-x", "0.4", "--r", "0.5", "--seed", "6", "--out", str(pop),
        ]) == 0
        manifest = json.loads((tmp_path / "pop.manifest.json").read_text())
        assert list(manifest["inputs"].items()) == [
            ("size", 30), ("mean_y", 1.0), ("mean_x", 2.0), ("cv_y", 0.3), ("cv_x", 0.4),
            ("r", 0.5),
        ]
        assert (manifest["command"], manifest["seed"]) == ("generate", 6)
        assert manifest["outputs"] == [str(pop)]

    def test_unknown_token_lists_grammar(self, pop_csv, tmp_path, capsys):
        rc = main([
            "simulate", "--population", str(pop_csv),
            "--reps", "5", "--n", "5", "--seed", "1",
            "--estimators", "mean,bogus",
            "--out", str(tmp_path / "x.json"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "rpr:<alpha>,<beta>" in err

    def test_unknown_token_with_an_argument_exit_2_naming_it(self, pop_csv, tmp_path, capsys):
        rc = main([
            "simulate", "--population", str(pop_csv),
            "--reps", "5", "--n", "5", "--seed", "1",
            "--estimators", "bogus:1,mean",
            "--out", str(tmp_path / "x.json"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: unknown estimator token 'bogus:1';")

    @pytest.mark.parametrize(
        "estimators, token",
        [
            ("mean,aoe:1e200", "aoe:1e+200"),
            ("singh:1e308", "singh:1e+308"),
            ("rpr:1e120,0", "rpr:1e+120,0.0"),
        ],
    )
    def test_overflowing_estimator_exit_2_naming_it(
        self, small_pop_csv, tmp_path, capsys, estimators, token
    ):
        out = tmp_path / "r.json"
        rc = main([
            "simulate", "--population", str(small_pop_csv),
            "--reps", "50", "--n", "5", "--seed", "1",
            "--estimators", estimators, "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: estimator {token}: ")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()
        assert not (tmp_path / "r.manifest.json").exists()

    @pytest.mark.parametrize(
        "estimators, message",
        [
            ("mean,reddy:-inf", "reddy: k must be finite, got -inf"),
            ("mean,srivastava:nan", "srivastava: k must be finite, got nan"),
            ("rpr:nan,0", "rpr: alpha must be finite, got nan"),
            ("rpr:0,1e999", "rpr: beta must be finite, got inf"),
            ("aoe:inf", "aoe: c must be finite, got inf"),
            ("singh:nan", "singh: k must be finite, got nan"),
            ("sahai:-inf", "sahai: k must be finite, got -inf"),
        ],
    )
    def test_non_finite_estimator_parameter_exit_2_naming_it(
        self, small_pop_csv, tmp_path, capsys, estimators, message
    ):
        out = tmp_path / "r.json"
        rc = main([
            "simulate", "--population", str(small_pop_csv),
            "--reps", "20", "--n", "3", "--seed", "1",
            "--estimators", estimators, "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: estimator {message}\n"
        assert not out.exists()
        assert not (tmp_path / "r.manifest.json").exists()

    def test_huge_but_finite_moments_keep_their_report(self, small_pop_csv, tmp_path, capsys):
        # The sha256 of this report before overflow was checked for.
        out = tmp_path / "r.json"
        rc = main([
            "simulate", "--population", str(small_pop_csv),
            "--reps", "50", "--n", "5", "--seed", "1",
            "--estimators", "rpr:1e60,0", "--out", str(out),
        ])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "edb9061b8af5ad296a82213c3d43114d4253525a8bc0c6e3fdc1a26b66441e78"
        )

    def test_underflowing_moments_exit_2_naming_the_estimator(self, tmp_path, capsys):
        pop = tmp_path / "tiny.csv"
        pop.write_text("y,x\n" + "".join(f"{k * 1e-160!r},{k}\n" for k in range(1, 11)))
        out = tmp_path / "r.json"
        rc = main([
            "simulate", "--population", str(pop), "--reps", "20", "--n", "3",
            "--seed", "1", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: estimator mean: ")
        assert "underflow" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_mse_underflowing_to_zero_exits_2_naming_the_estimator(self, tmp_path, capsys):
        # The ratio estimator's deviations square to exactly 0.0.
        pop = tmp_path / "tiny.csv"
        pop.write_text("y,x\n" + "".join(f"{k * 1e-160!r},{k}\n" for k in range(1, 11)))
        out = tmp_path / "r.json"
        rc = main([
            "simulate", "--population", str(pop), "--reps", "20", "--n", "3",
            "--seed", "1", "--estimators", "ratio", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: estimator ratio: ")
        assert "underflow" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_constant_y_rates_still_partition(self, tmp_path, capsys):
        pop = tmp_path / "flat.csv"
        pop.write_text("y,x\n" + "".join(f"0.3,{k}\n" for k in range(1, 11)))
        out = tmp_path / "r.json"
        rc = main([
            "simulate", "--population", str(pop), "--reps", "20", "--n", "3",
            "--seed", "1", "--estimators", "mean,ratio,product,aoe:0.5",
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        for rep in json.loads(out.read_text())["estimators"]:
            rates = rep["coverage"] + rep["neg_bias_rate"] + rep["pos_bias_rate"]
            assert rates == 1.0, rep["label"]

    def test_tiny_deviations_simulate(self, small_pop_csv, tmp_path, capsys):
        # The population's y scaled by 2^-332: the fourth powers of the
        # deviations underflow, the reported moments do not.
        lines = small_pop_csv.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        pop = tmp_path / "scaled.csv"
        pop.write_text(lines[0] + "\n" + "".join(
            f"{float(y) * 2.0**-332!r},{x}\n" for y, x in rows
        ))
        reports = []
        for path in (small_pop_csv, pop):
            out = tmp_path / f"{path.stem}.json"
            rc = main([
                "simulate", "--population", str(path), "--reps", "50", "--n", "5",
                "--seed", "1", "--out", str(out),
            ])
            assert rc == 0
            reports.append(json.loads(out.read_text())["estimators"])
        for plain, scaled in zip(*reports):
            assert (scaled["skewness"], scaled["kurtosis"]) == (plain["skewness"], plain["kurtosis"])

    def test_internal_error_exit_3(self, pop_csv, tmp_path, capsys, monkeypatch):
        import rpratio.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod, "run_simulation", boom)
        rc = main([
            "simulate", "--population", str(pop_csv),
            "--reps", "5", "--n", "5", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        ])
        assert rc == 3
        assert "internal error" in capsys.readouterr().err


class TestUndecodableInput:
    """Input files are read as UTF-8; other bytes exit 2 naming the place."""

    @pytest.fixture()
    def bad_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"y,x\n1,\xff\n2,3\n")
        return path

    @pytest.mark.parametrize(
        "args",
        [
            ["analyze", "{}"],
            ["theory", "--stats", "{}", "--c", "0.6"],
            ["simulate", "--population", "{}", "--reps", "5", "--n", "2", "--seed", "1"],
        ],
    )
    def test_population_csv_exit_2_naming_line(self, bad_csv, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        rc = main([a.format(bad_csv) for a in args])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: line 2: bytes that are not valid UTF-8\n"
        assert not (tmp_path / "report.json").exists()

    def test_stats_json_exit_2_naming_file(self, tmp_path, capsys):
        path = tmp_path / "stats.json"
        path.write_bytes(json.dumps(BENCH_STATS).encode()[:-1] + b', "note": "\xff"}')
        with pytest.raises(EstimationError, match="not valid UTF-8"):
            cli._load_stats(str(path))
        rc = main(["theory", "--stats", str(path), "--c", "0.6"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: stats file {path}: ")
        assert "not valid UTF-8" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_bom_header_message_unchanged(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,x\n1,2\n2,3\n")
        rc = main(["analyze", str(path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: line 1: expected header 'y,x', got '\\ufeffy,x'\n"
        )


class TestSurface:
    def test_aoe_to_stdout(self, capsys):
        rc = main([
            "surface", "--kind", "aoe",
            "--alpha", "0:1:0.25", "--c", "0.6092:0.6092:1",
        ])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert rc == 0
        assert lines[0] == "alpha,beta,c"
        for line in lines[1:]:
            alpha, beta, c = map(float, line.split(","))
            assert (1 - 2 * alpha) * (1 - 2 * beta) == pytest.approx(c, abs=1e-12)

    def test_region_has_indicator_column(self, capsys):
        rc = main([
            "surface", "--kind", "region",
            "--alpha=-0.5:0.5:0.5", "--c", "0.6:0.6:1",
            "--beta", "0:0.4:0.2",
        ])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0] == "alpha,beta,c,indicator"
        assert all(line.split(",")[3] in {"0", "1"} for line in lines[1:])

    def test_region_requires_beta(self, capsys):
        rc = main([
            "surface", "--kind", "region",
            "--alpha", "0:1:0.5", "--c", "0.6:0.6:1",
        ])
        assert rc == 2

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "sheet.csv"
        rc = main([
            "surface", "--kind", "biasfree",
            "--alpha", "0:1:0.5", "--c=-0.5:0.5:0.5",
            "--out", str(out),
        ])
        assert rc == 0
        assert "rows written" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "alpha,beta,c"

    def test_bad_range_exit_2(self, capsys):
        rc = main([
            "surface", "--kind", "aoe", "--alpha", "0:1", "--c", "0.6:0.6:1",
        ])
        assert rc == 2
        assert "start:stop:step" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alpha, message",
        [("0:one:0.5", "non-numeric bound in range '0:one:0.5'"),
         ("0:nan:0.5", "alpha stop must be finite, got nan")],
    )
    def test_bad_range_bound_exit_2(self, alpha, message, capsys):
        rc = main(["surface", "--kind", "aoe", "--alpha", alpha, "--c", "0.6:0.6:1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_over_budget_grid_exit_2_at_once(self, tmp_path, capsys):
        out = tmp_path / "region.csv"
        rc = main([
            "surface", "--kind", "region", "--alpha=0:1:1e-12",
            "--c", "0.6:0.6:1", "--beta", "0:1:0.5", "--out", str(out),
        ])
        assert rc == 2
        assert "budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "beta", ["0:1", "0:one:0.5", "1:0:0.5", "0:nan:0.5", "0:1:1e-12"]
    )
    def test_bad_beta_range_exit_2_leaves_no_out_file(self, beta, tmp_path, capsys):
        out = tmp_path / "region.csv"
        rc = main([
            "surface", "--kind", "region", "--alpha", "0:1:0.5", "--c", "0.6:0.6:1",
            f"--beta={beta}", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["biasfree", "aoe"])
    def test_beta_for_a_computed_beta_exit_2_leaves_no_out_file(self, kind, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        rc = main([
            "surface", "--kind", kind, "--alpha", "0:1:0.5", "--c", "0.6:0.6:1",
            "--beta", "0:1:0.5", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: the {kind} surface computes its beta and takes no beta range\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("out", ["", "/"])
    def test_out_naming_no_file_exits_2_before_any_row(self, tmp_path, monkeypatch, capsys, out):
        def evaluate(*_):
            raise AssertionError("a row was evaluated")

        monkeypatch.setattr(cli, "write_csv", evaluate)
        monkeypatch.chdir(tmp_path)
        rc = main([
            "surface", "--kind", "aoe", "--alpha", "0:1:0.5", "--c", "0.6:0.6:1", "--out", out,
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: --out {out!r} names no file\n"
        assert captured.out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    @pytest.mark.parametrize(
        "kind, alpha, c, beta",
        [
            # 36 rows in alpha slabs of 3 betas x 4 cs = 12 rows.
            (SurfaceKind.DOMINANCE, (-0.5, 0.5, 0.5), (0.3, 1.2, 0.3), (0.0, 0.4, 0.2)),
            # 50 rows, both roots of each (alpha, c) node in turn.
            (SurfaceKind.BIAS_FREE, (-1.0, 1.0, 0.5), (-0.5, 0.5, 0.25), None),
            # 20 rows: four alphas beside the alpha = 1/2 pole, five cs.
            (SurfaceKind.AOE, (0.0, 1.0, 0.25), (0.2, 1.4, 0.3), None),
        ],
        ids=["region", "biasfree", "aoe"],
    )
    def test_blocks_equal_a_per_row_writer(
        self, kind, alpha, c, beta, to_file, tmp_path, monkeypatch, capsys
    ):
        # Blocks of 7 rows split alpha slabs and root pairs, and end short.
        monkeypatch.setattr(population, "_BLOCK_BYTES", 7 * 8 * (4 if beta else 3))
        rows = surface_grid(kind, alpha, c, beta).tolist()
        assert len(rows) % 7
        ranges = {"alpha": alpha, "c": c, "beta": beta}
        argv = ["surface", "--kind", kind.value] + [
            f"--{axis}=" + ":".join(map(repr, bounds)) for axis, bounds in ranges.items() if bounds
        ]
        header = "alpha,beta,c,indicator" if beta else "alpha,beta,c"
        want = header + "\n" + "".join(
            ",".join(map(repr, row[:3])) + (f",{int(row[3])}" if beta else "") + "\n"
            for row in rows
        )
        out = tmp_path / "surface.csv"
        assert main([*argv, "--out", str(out)] if to_file else argv) == 0
        printed = capsys.readouterr().out
        if to_file:
            assert printed == f"{len(rows)} rows written to {out}\n"
            assert out.read_text() == want
        else:
            assert printed == want

    def test_region_grid_is_written_without_a_grid_sized_array(self, tmp_path, capsys):
        # The benchmark grid's rows: held whole, one float column of them
        # alone takes 418 241 * 8 bytes (3.3 MB), and the table 13.4 MB.
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main(["surface", *REGION_ARGS, "--out", str(tmp_path / "region.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert capsys.readouterr().out.startswith("418241 rows written")
        assert peak < 418_241 * 8


PLAN = ["--sigma2", "0.2006", "--margin", "0.0583", "--population-size", "365"]


class TestTopLevel:
    def test_version(self, capsys):
        rc = main(["--version"])
        assert rc == 0
        assert capsys.readouterr().out.strip()

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["theory", "--c", "0.6092", "--aoe"], "--aoe"),
            (["theory", "--stats", "S", "--re"], "--re"),
            (["analyze", "P", "--format", "json"], "--format"),
            (["plan", *PLAN, "--margin-percent", "10"], "--margin-percent"),
            (["plan", *PLAN, "--mean", "0.583"], "--mean"),
        ],
        ids=["aoe", "re", "format", "margin-percent", "mean"],
    )
    def test_removed_option_is_usage_error(self, pop_csv, stats_json, argv, option, capsys):
        # theory prints every block its inputs determine, analyze prints
        # JSON, and plan takes its margin as --margin.
        paths = {"S": str(stats_json), "P": str(pop_csv)}
        rc = main([paths.get(arg, arg) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {option}" in captured.err


class TestEntryPoint:
    """cli.run, the console entry point, in a fresh interpreter."""

    @staticmethod
    def child(*argv):
        """The command and environment of a child that imports the package
        under test, wherever it was found."""
        src = str(Path(rpratio.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return [sys.executable, "-m", "rpratio.cli", *argv], env

    @classmethod
    def run_module(cls, *argv):
        command, env = cls.child(*argv)
        return subprocess.run(command, capture_output=True, text=True, timeout=60, env=env)

    def test_version(self):
        proc = self.run_module("--version")
        assert (proc.returncode, proc.stdout) == (0, "0.1.0\n")

    def test_closed_stdout_exits_1_quietly(self):
        # As `rpratio surface ... | head -1` does: read one line, then close
        # the pipe while the CLI still has megabytes to write.
        command, env = self.child(
            "surface", "--kind", "region", "--alpha=-1:1:0.02", "--beta=-1:1:0.02", "--c=0:2:0.05"
        )
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert proc.stdout.readline() == b"alpha,beta,c,indicator\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert (proc.wait(timeout=60), stderr) == (1, b"")

    @pytest.mark.parametrize(
        "column, what", [("1e308,1.5e308,1.7e308", "mean"), ("1e160,-1e160,2e160", "variance")]
    )
    def test_overflowing_moments_exit_2_with_one_line(self, tmp_path, column, what):
        # A fresh interpreter shows whether numpy's warnings reach stderr.
        pop = tmp_path / "big.csv"
        pop.write_text("y,x\n" + "".join(f"{v},{k}\n" for k, v in enumerate(column.split(","), 1)))
        out = tmp_path / "r.json"
        for argv in (
            ["analyze", str(pop)],
            ["simulate", "--population", str(pop), "--reps", "5", "--n", "2",
             "--seed", "1", "--out", str(out)],
        ):
            proc = self.run_module(*argv)
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr == f"error: the {what} of y overflows double precision\n"
        assert not out.exists()

    def test_huge_alpha_aoe_surface_writes_no_warning(self):
        # 1 - 2 * alpha overflows to -inf at the larger alphas, which stay.
        proc = self.run_module("surface", "--kind", "aoe", "--alpha=0:1e308:2e307", "--c=0:1:1")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "alpha,beta,c\n0.0,0.5,0.0\n0.0,0.0,1.0\n" + "".join(
            f"{alpha},0.5,{c}\n" for alpha in ["2e+307", "4e+307", "6e+307", "8e+307", "1e+308"]
            for c in ["0.0", "1.0"]
        )

    @pytest.mark.parametrize(
        "argv, column, want",
        [
            (["--kind", "region", "--alpha=0:1:1", "--c=0:1:1", "--beta=-1e308:1e308:5e307"],
             1, ["-1e+308", "-5e+307", "0.0", "5e+307", "1e+308"]),
            (["--kind", "aoe", "--alpha=-1e308:1e308:1e308", "--c=0:1:1"],
             0, ["-1e+308", "0.0", "1e+308"]),
        ],
    )
    def test_range_whose_span_overflows_ends_at_its_stop(self, argv, column, want):
        proc = self.run_module("surface", *argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        assert list(dict.fromkeys(row[column] for row in rows)) == want

    def test_missing_population_exit_2(self, tmp_path):
        missing = tmp_path / "absent.csv"
        proc = self.run_module(
            "simulate", "--population", str(missing), "--reps", "5", "--n", "2",
            "--seed", "1", "--out", str(tmp_path / "r.json"),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and str(missing) in proc.stderr
        assert not (tmp_path / "r.json").exists()
