"""Run every workload once and print every end-to-end metric by name.

    python3 perfbench/summary.py [--seed 0] [--seconds N]

Each workload runs in its own process through run.py, with its correctness
checks, so peak_rss_mb is that workload's own.  The table lists each
metric with its unit, then the raw wall times from the run details (not
gated, see run.py), then the workload's attempted and failed calls and
error rate.  The exit code is 0 only if every workload was correct.
--seconds defaults to BENCHMARK.json's run_seconds.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
RAW = (("wall_p50_s", "s"), ("wall_tail_s", "s"), ("items_per_s", "1/s"))


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    all_correct = True
    print(f"{'workload':<20} {'metric':<14} {'value':>16} unit")
    for workload in spec["workloads"]:
        name = workload["name"]
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            print(f"{name:<20} benchmark error: {done.stderr.strip()}")
            all_correct = False
            continue
        details, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
        for metric in spec["end_to_end"]:
            m = result["metrics"][metric["name"]]
            print(f"{name:<20} {metric['name']:<14} {m['value']:>16.6g} {m['unit']}")
        for raw, unit in RAW:
            print(f"{name:<20} {raw:<14} {details[raw]:>16.6g} {unit} (raw)")
        attempted, failed = result["attempted"], result["failed"]
        print(f"{name:<20} {'error_rate':<14} {failed / attempted:>16.6g} "
              f"({failed} of {attempted} calls failed)")
        for problem in details["problems"]:
            print(f"{name:<20}   {problem}")
        all_correct = all_correct and result["correct"]
    print("all outputs correct" if all_correct else "INCORRECT OUTPUTS")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
