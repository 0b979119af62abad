"""Tests of the benchmark itself, on shrunken copies of its workloads.

    python -m pytest perfbench/test_perfbench.py
"""
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from checks import SimulateChecker

BENCHMARK = json.loads((run.REPO / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}

SMALL = {
    "simulate_wide": dataclasses.replace(workloads.WORKLOADS["simulate_wide"], reps=200),
    "surface_region": dataclasses.replace(
        workloads.WORKLOADS["surface_region"], alpha="-1:1:0.25", beta="-1:1:0.25", c="0:2:0.5"
    ),
}


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrunken workloads, with outputs under a temporary directory."""
    for name, workload in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_printed_metric_names_are_declared(small, name, trace):
    outcome = run.run(name, seed=1, seconds=0, trace=trace)
    result = outcome["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], outcome["details"]["problems"]
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for metric, value in result["metrics"].items():
        assert value["unit"] == declared[metric]


def test_workload_names_match_the_benchmark_file():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_on_a_hand_built_tree():
    def span(id, name, start, end, parent, count=1, busy=None):
        return {"id": id, "name": name, "start": start, "end": end, "parent": parent,
                "call": "c", "count": count, "busy": end - start if busy is None else busy}

    tree = [
        span(0, "cli.main", 0.0, 10.0, None),
        span(1, "simulation.run_simulation", 1.0, 7.0, 0),
        # 40 leaf calls spread over [1.5, 6.5] but busy for 3.5 s of it.
        span(2, "sampling.srswor", 1.5, 6.5, 1, count=40, busy=3.5),
        span(3, "simulation.write_estimates_csv", 6.5, 7.0, 1),
        span(4, "population.load_population_csv", 0.25, 0.75, 0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 10.0 - 6.0 - 0.5, 1: 6.0 - 3.5 - 0.5, 2: 3.5, 3: 0.5, 4: 0.5})
    assert spans.check_spans(tree) == []
    times = spans.per_call_times(tree, spans.TIME_METRICS, ["c"])["c"]
    assert times["cli.self_s"] == pytest.approx(3.5)
    assert times["simulation.self_s"] == pytest.approx(2.0)
    assert times["sampling.srswor_s"] == pytest.approx(3.5)
    # Children busier than their parent are reported, not silently clipped.
    tree[3] = span(3, "simulation.write_estimates_csv", 6.5, 9.5, 1)
    assert spans.check_spans(tree) != []


def test_traced_calls_add_up_to_their_wall_time(small):
    outcome = run.run("simulate_wide", seed=1, seconds=0, trace=True)
    records = [json.loads(line) for line in
               (run.REPO / outcome["details"]["span_file"]).read_text().splitlines()]
    selfs = spans.self_times(records)
    roots = [r for r in records if r["name"] == spans.ROOT and r["call"].startswith("call-")]
    assert [r["busy"] for r in roots] == outcome["details"]["traced_call_s"]
    for root in roots:
        children = sum(r["busy"] for r in records if r["parent"] == root["id"])
        assert selfs[root["id"]] + children == pytest.approx(root["busy"], abs=1e-12)
        assert selfs[root["id"]] >= 0.0
    leaf = next(r for r in records if r["name"] == "sampling.srswor")
    assert leaf["count"] == SMALL["simulate_wide"].reps


def test_corrupted_report_is_counted_as_failed(small):
    from rpratio import cli

    workload = SMALL["simulate_wide"]
    for argv in workload.setup_argvs(1, small):
        assert cli.main(argv) == 0
    checker = workload.checker(1, small, {})
    argv = workload.argv(1, small)
    tally = run.Tally()
    run.attempt(tally, checker, argv)
    assert (tally.attempted, tally.failed) == (1, 0)

    def corrupting(fn):
        result = fn()
        report = small / "report.json"
        report.write_text(report.read_text().replace('"coverage": 0.', '"coverage": 1.', 1))
        return result, 0.0, 0.0

    run.attempt(tally, checker, argv, corrupting)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "differs from the first call" in tally.problems[0]


def test_default_seed_digest_mismatch_is_a_problem(small):
    from rpratio import cli

    workload = SMALL["simulate_wide"]
    for argv in workload.setup_argvs(1, small):
        assert cli.main(argv) == 0
    assert cli.main(workload.argv(1, small)) == 0
    checker = SimulateChecker(workload, workloads.SIMULATE_SEED + 1, small, "0" * 64)
    assert checker.check() == ["report.json sha256 differs from the recorded digest"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate_acceptance",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
