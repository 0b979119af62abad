"""Golden digests: exact report and dump bytes for fixed seeds.

The digests were recorded with the scalar per-replication draw loop.  Any
change to how replications are drawn, gathered or evaluated must keep them;
a change that alters output bytes on purpose has to record new ones.
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


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def paper_pop(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "pop365.csv"
    assert main([*PAPER_GENERATE, "--out", str(path)]) == 0
    return path


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
