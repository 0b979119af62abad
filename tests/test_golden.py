"""Golden digests: exact report, dump and surface bytes.

The simulate digests were recorded with the scalar per-replication draw
loop, the surface digests with the scalar row-by-row grid, the population
digest with the row-by-row generate writer.  Any change to
how replications are drawn, gathered or evaluated, or to how a surface is
computed or written, must keep them; a change that alters output bytes on
purpose has to record new ones.
"""
import hashlib

import pytest

from rpratio.cli import main

# Paper moments of the N=365 series; the same population the benchmark
# generates at its default seed.
PAPER_GENERATE = [
    "generate", "--size", "365",
    "--mean-y", "0.5832", "--mean-x", "0.6277",
    "--cv-y", "0.7681", "--cv-x", "1.1504", "--r", "0.9125",
    "--seed", "20260823",
]
PAPER_POPULATION_SHA256 = (
    "382709165f6a5a932e5eeb85ded25900184dcdd4d908ef4a9d3a541ec8ef62e4"
)
ALL_ESTIMATORS = (
    "mean,ratio,product,rpr:-0.3349,0.3176,aoe:0.6092,"
    "srivastava:-0.6,reddy:0.6,sahai:0.6,singh:0.6"
)
ACCEPTANCE_REPORT_SHA256 = (
    "c193b7c0a50739564edebc3816fd3df4a2caf239d08dda07f03addd17d59895a"
)
WIDE_REPORT_SHA256 = (
    "828e9af6bae6d5c82dd5da02f4b0551e294f3ecd3e7963b7ed0e717f1f4ee906"
)
WIDE_DUMP_SHA256 = (
    "b21fb03d4dd5a899497b00584138bf849cea72fa655993cfc75c2b7752708bb2"
)
# The benchmark's 101 x 101 x 41 dominance grid, 418 241 rows.
REGION_ARGS = ["--kind", "region", "--alpha=-1:1:0.02", "--beta=-1:1:0.02", "--c=0:2:0.05"]
REGION_SHA256 = "e4a4c6787e910f2a6e91be15574a2b288005068a51945a80ce991e4d868baac8"
# Written to stdout.  The aoe grid crosses the alpha = 1/2 pole.
STDOUT_SURFACES = [
    (
        ["--kind", "biasfree", "--alpha=-1:1:0.05", "--c=-1:1:0.05"],
        "ffba58c73802c75b332ac50018169eccb4dff3be089d950fef88ad79c1f6b142",
    ),
    (
        ["--kind", "aoe", "--alpha=-1:1:0.05", "--c=0:2:0.05"],
        "d232a9bc8ae337795a9d70639fa3d555a3dfa46bf85a34b05f575a6a54f7f14d",
    ),
]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def paper_pop(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "pop365.csv"
    assert main([*PAPER_GENERATE, "--out", str(path)]) == 0
    return path


def test_paper_population_digest(paper_pop):
    assert _sha256(paper_pop) == PAPER_POPULATION_SHA256


def test_acceptance_report_digest(paper_pop, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main([
        "simulate", "--population", str(paper_pop),
        "--reps", "10000", "--n", "112", "--seed", "1234",
        "--estimators", "mean,ratio,product,aoe:0.6092",
        "--out", str(out),
    ])
    assert rc == 0
    assert _sha256(out) == ACCEPTANCE_REPORT_SHA256


def test_all_estimators_dump_digest(paper_pop, tmp_path, capsys):
    out = tmp_path / "report.json"
    dump = tmp_path / "estimates.csv"
    rc = main([
        "simulate", "--population", str(paper_pop),
        "--reps", "2000", "--n", "8", "--seed", "1234",
        "--estimators", ALL_ESTIMATORS,
        "--out", str(out), "--dump-estimates", str(dump),
    ])
    assert rc == 0
    assert _sha256(dump) == WIDE_DUMP_SHA256
    assert _sha256(out) == WIDE_REPORT_SHA256


def test_region_surface_digest(tmp_path, capsys):
    out = tmp_path / "region.csv"
    assert main(["surface", *REGION_ARGS, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"418241 rows written to {out}\n"
    assert _sha256(out) == REGION_SHA256


@pytest.mark.parametrize("args, digest", STDOUT_SURFACES)
def test_stdout_surface_digest(args, digest, capsys):
    assert main(["surface", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
