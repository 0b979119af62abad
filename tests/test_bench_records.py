"""The benchmark trajectory files, BENCH_<workload>.json at the repository
root, against the workloads and metrics that BENCHMARK.json declares."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORD_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_trajectory_files_exist():
    assert RECORD_FILES


@pytest.mark.parametrize("path", RECORD_FILES, ids=lambda p: p.name)
def test_records_name_declared_workloads_and_metrics(path):
    workload = path.stem.removeprefix("BENCH_")
    assert workload in WORKLOADS
    records = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(records, list) and records
    for i, record in enumerate(records):
        where = f"{path.name}[{i}]"
        assert record["workload"] == workload, where
        assert record["claimed_metric"] in (None, *END_TO_END), where
        assert record["seeds"], where
        for seed, runs in record["seeds"].items():
            for side in ("parent", "change"):
                for metric in END_TO_END:
                    q = runs[side][metric]
                    assert q["q1"] <= q["median"] <= q["q3"], f"{where} seed {seed} {side} {metric}"
