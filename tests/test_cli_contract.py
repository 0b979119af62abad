"""The CLI contract under random argv for all six subcommands.

Whatever the values, a run exits 0, 1 or 2; an exit 2 writes a message and
no output file; JSON on stdout parses with no nan or infinity; and no
warning is raised.  The values mix usable ones with the near-valid ones
that break arithmetic: signed zeros, subnormals, 1e308, nan, inf, text,
sizes past a budget, and populations that are constant, have an all-zero
or zero-mean x, or hold huge or subnormal values.  Sizes stay small, so
every accepted run is quick.
"""
import contextlib
import io
import json
import os
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rpratio.cli import main

# Values that break arithmetic or parsing: signed zeros, subnormals, the
# edge of the double range, non-finite values, text and the empty string.
NASTY = st.sampled_from([
    "0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-300", "-1",
    "1e308", "-1e308", "1.7976931348623157e308", "nan", "inf", "-inf", "1.5", "x", "",
    "10000001", "18446744073709551616",
]) | st.floats().map(repr) | st.integers().map(str)
POPULATIONS = {
    "normal.csv": [(1.0 + 0.1 * i, 2.0 + 0.3 * i - 0.01 * i * i) for i in range(20)],
    "constant_y.csv": [(3.0, 1.0 + i) for i in range(8)],
    "zero_x.csv": [(1.0 + i, 0.0) for i in range(8)],
    "zero_mean_x.csv": [(1.0 + i, i - 3.5) for i in range(8)],
    "huge.csv": [(1e300 * (1 + i % 3), -1e300 * (i % 2) + 1e299) for i in range(8)],
    "subnormal.csv": [(5e-324 * (1 + i), 5e-324 * (8 - i)) for i in range(8)],
}
STATS = {
    "stats.json": {"mean_y": 0.5832, "mean_x": 0.6277, "sd_y": 0.448, "sd_x": 0.7222, "r": 0.9125},
    "tiny_stats.json": {"mean_y": 5e-324, "mean_x": 1e-300, "var_y": 0.0, "sd_x": 1e300, "r": -0.0},
    "huge_stats.json": {"mean_y": 1e308, "mean_x": -1e308, "sd_y": 1e308, "sd_x": 1e-308, "r": 1},
}
BAD_FILES = ["missing.csv", "bad.csv", "bad.json"]
INPUTS = [*POPULATIONS, *STATS, *BAD_FILES]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("contract")
    for name, rows in POPULATIONS.items():
        (folder / name).write_text("y,x\n" + "".join(f"{y!r},{x!r}\n" for y, x in rows))
    for name, stats in STATS.items():
        (folder / name).write_text(json.dumps(stats))
    (folder / "bad.csv").write_text("y,x\n1,nan\n2,3\n")
    (folder / "bad.json").write_text("[1, 2]")
    return folder


def values(*good, nasty=NASTY):
    """One of the good values seven times in eight, else a nasty one.
    Hypothesis favours the ends of a range, so the nasty pick sits inside."""
    pool = st.sampled_from(good) if all(isinstance(v, str) for v in good) else st.one_of(good)
    return st.integers(0, 7).flatmap(lambda k: nasty if k == 4 else pool)


def rarely(tokens):
    """tokens one time in five, else no tokens."""
    return st.integers(0, 4).flatmap(lambda k: tokens if k == 2 else st.just([]))


def joined(*parts):
    """The argv tokens of every part, in order."""
    return st.tuples(*parts).map(lambda tokens: sum(tokens, []))


def option(name, strategy):
    """argv tokens of one option: --name=value, or the value alone for a
    positional name, which does not start with "-"."""
    return strategy.map(lambda v: [f"{name}={v}" if name[0] == "-" else v])


POINT = values("0.5", "-0.335", "0.3176", "0.1", "-0.0", "1e200", "-2")
CONFIDENCE = values("0.9", "0.95", "0.9999999999999999", "5e-324", "1e-300")
DESIGN = option("--design", values("5,17", "1,2", "112,365", "2,2", "0,10", "5", "a,b"))
# A size past the 10^7 budgets fails at once; a size in between would be
# slow, so no pool holds one.
SIZE_NASTY = st.sampled_from(["0", "-1", "1e3", "x", "", "10000001", "18446744073709551616"])
SEED = values("0", "1", "1234", str(2**64), str(2**70))
RANGE = values(
    "-1:1:0.5", "0:2:0.25", "0:1:1", "1:0:0.5", "-0.0:5e-324:5e-324", "0:1e308:1e308",
    "0:0:1", "0.5:0.5:0.1", "-1e308:1e308:1e308",
    nasty=NASTY | st.sampled_from(["0:1", "a:b:c", "0:1:0.5:2", "0:1:0", "0:1:-1",
                                   "0:1:5e-324", "nan:1:1", "-1e308:1e308:1"]),
)
TOKENS = st.sampled_from([
    "mean", "ratio", "product", "aoe:0.6092", "aoe:0.5", "aoe:1e308", "aoe:-0.0",
    "rpr:-0.335,0.3176", "rpr:1e308,0", "rpr:-0.0,5e-324", "rpr:2,-1",
])
POPULATION = values(*POPULATIONS, nasty=st.sampled_from(BAD_FILES))
C = values("0.6092", "0.5", "0.25", "-0.3", "1e308")
STATS_FILE = values(*STATS, "normal.csv", "huge.csv", nasty=st.sampled_from(BAD_FILES))
# Each subcommand's (required, optional) options, each a strategy of argv
# tokens.  The point and the surface kind come with their partners.
COMMANDS = {
    "analyze": (
        [option("population", POPULATION)],
        [DESIGN, option("--format", values("json", "text"))],
    ),
    "plan": (
        [option("--sigma2", values("0.2006", "1", "1e-300", "1e308")),
         option("--population-size", values("365", "2", "100", str(2**70))),
         values(option("--margin", values("0.0583", "0.1", "1e-10", "1e200")),
                joined(option("--margin-percent", values("10", "0.5")),
                       option("--mean", values("0.583", "-2"))),
                nasty=option("--margin-percent", NASTY) | option("--mean", NASTY))],
        [option("--confidence", CONFIDENCE)],
    ),
    "theory": (
        [values(option("--stats", STATS_FILE), option("--c", C),
                joined(option("--stats", STATS_FILE), option("--c", C)), nasty=st.just([]))],
        [values(joined(option("--alpha", POINT), option("--beta", POINT)),
                nasty=option("--alpha", POINT) | option("--beta", POINT)),
         DESIGN, rarely(st.just(["--aoe"])), rarely(st.just(["--re"]))],
    ),
    "simulate": (
        [option("--population", POPULATION),
         option("--reps", values("1", "2", "7", "30", nasty=SIZE_NASTY)),
         option("--n", values("1", "2", "5", "7", "19")), option("--seed", SEED)],
        [option("--confidence", CONFIDENCE),
         option("--estimators", values(
             st.lists(TOKENS, min_size=1, max_size=4, unique=True).map(",".join),
             nasty=NASTY | st.sampled_from(
                 ["aoe:nan", "rpr:1", "bogus", "mean,mean", "mean,,ratio"]
             ),
         )),
         option("--out", values("report.json", "dump.csv")),
         option("--dump-estimates", values("dump.csv", "report.json"))],
    ),
    "surface": (
        [option("--kind", values("biasfree", "aoe"))
         | joined(option("--kind", values("region")), option("--beta", RANGE)),
         option("--alpha", RANGE), option("--c", RANGE)],
        [rarely(option("--beta", RANGE)), option("--out", st.just("surface.csv"))],
    ),
    "generate": (
        [option("--size", values("3", "10", "40", nasty=SIZE_NASTY)),
         option("--mean-y", values("1", "0.5832", "1e300", "5e-324")),
         option("--mean-x", values("2", "0.6277", "1e-300")),
         option("--cv-y", values("0.3", "0.7681", "1e-300", "2")),
         option("--cv-x", values("0.4", "1.1504", "1e-300", "1e100")),
         option("--r", values("0.5", "0.9125", "-0.9", "0", "-0.0")),
         option("--seed", SEED), option("--out", st.just("pop.csv"))],
        [],
    ),
}
JSON_COMMANDS = {"analyze", "plan", "theory"}


@st.composite
def arguments(draw, required, optional):
    """argv options: each required one 39 times in 40 and each optional one
    half the time."""
    argv = []
    for i, tokens in enumerate(required + optional):
        k = draw(st.integers(0, 39))
        if (k != 20) if i < len(required) else k % 2:
            argv += draw(tokens)
    return argv


def reject(constant):
    raise AssertionError(f"{constant} in JSON output")


def run(argv, inputs, folder):
    """rc, stdout, stderr and the warnings of main(argv), run in folder so
    that every output lands there, with input names read from inputs."""
    resolved = []
    for arg in argv:
        name, eq, value = arg.partition("=")
        if value in INPUTS or arg in INPUTS:
            arg = f"{name}={inputs / value}" if eq else str(inputs / arg)
        resolved.append(arg)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(resolved)
    finally:
        os.chdir(cwd)
    return rc, out.getvalue(), err.getvalue(), caught


@pytest.mark.parametrize("command", sorted(COMMANDS))
@given(data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_contract(command, inputs, data):
    argv = data.draw(arguments(*COMMANDS[command]), label="argv")
    folder = Path(tempfile.mkdtemp(dir=inputs))
    try:
        rc, out, err, caught = run([command, *argv], inputs, folder)
        assert rc in (0, 1, 2), (rc, err)
        assert not caught, [str(w.message) for w in caught]
        assert "Warning" not in err
        if rc == 2:
            assert err.strip(), "exit 2 without a message"
            assert not any(folder.iterdir()), sorted(p.name for p in folder.iterdir())
        elif rc == 0 and command in JSON_COMMANDS and "--format=text" not in argv:
            json.loads(out, parse_constant=reject)
    finally:
        shutil.rmtree(folder)
