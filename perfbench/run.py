"""Run one benchmark workload of rpratio and print its metrics.

    python3 perfbench/run.py --workload simulate_acceptance --seed 0 --seconds 20 --trace 0

The program is driven from outside, through `rpratio.cli.main(argv)` with
the argv a user would type, in this one process on its main thread
(`--threads` stays at its default of 1).  Calls are made one after another
for `--seconds` (see repeat), and every call's outputs are checked (see
checks.py).

--trace 0 prints the end-to-end metrics named in BENCHMARK.json:

- setup_s: median over SETUP_REPEATS fresh processes of the time to start,
  import rpratio and write the workload's inputs with `rpratio generate`;
- wall_p50_ref: median call wall time, each call divided by the mean of
  the reference kernel's times right before and right after it (unit
  "ref", see reference.py), which cancels drift in machine speed;
- wall_tail_ref: the same per-call ratio at the highest percentile that
  still has TAIL_BEYOND calls above it (the fastest call when a run has
  fewer);
- items_per_ref: work per reference-kernel time (estimator evaluations,
  or rows);
- peak_rss_mb: peak resident set of this process.

The raw wall times (wall_p50_s, wall_tail_s, items_per_s) are in the run
details.  They move with the machine's speed, so they are not gated.

Failed calls are counted in `failed` out of `attempted`; their ratio is the
error rate.  --trace 1 alternates untraced and traced calls, adds one
untimed counting call, and prints the per-layer metrics (see spans.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it holds the environment
and run details, which are also saved with the span file under
perfbench/out/<workload>/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
TRACED_SETUPS = 3
MIN_CALLS = 3
TAIL_BEYOND = 10
MAX_PROBLEMS_KEPT = 20


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Tally:
    """Attempted and failed calls, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS_KEPT - len(self.problems)
            self.problems += [f"call {self.attempted}: {p}" for p in problems[:room]]


def invoke(argv: list[str], runner=None):
    """Call rpratio.cli.main(argv) with stdout captured.

    Returns (exit code or None, captured stdout, wall seconds, error).
    `runner` wraps the call (traced or counted) and returns
    (result, start, end) like Tracer.run; None times the plain call."""
    from rpratio import cli

    def call():
        try:
            return cli.main(argv), None
        except Exception as exc:  # an escaped exception is a failed call
            return None, f"cli.main raised {exc!r}"

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if runner is None:
            start = time.perf_counter()
            (rc, error) = call()
            end = time.perf_counter()
        else:
            (rc, error), start, end = runner(call)
    return rc, out.getvalue(), end - start, error


def attempt(tally: Tally, checker, argv, runner=None) -> tuple[float, str]:
    """One checked call; returns its wall time and captured stdout."""
    rc, stdout, wall, error = invoke(argv, runner)
    if error:
        problems = [error]
    elif rc != 0:
        problems = [f"exit code {rc}"]
    else:
        problems = checker.check()
    tally.record(problems)
    return wall, stdout


def repeat(seconds: float, step) -> None:
    """Call step() for `seconds`: a step starts only while it is expected,
    from the median step so far, to end in time; at least MIN_CALLS run."""
    began = time.perf_counter()
    durations: list[float] = []
    while len(durations) < MIN_CALLS or (
        time.perf_counter() - began + statistics.median(durations) <= seconds
    ):
        start = time.perf_counter()
        step()
        durations.append(time.perf_counter() - start)


def timed_setups(workload, seed: int, workdir: Path) -> list[float]:
    """Wall time of SETUP_REPEATS fresh processes writing the inputs."""
    command = [sys.executable, str(HERE / "setup_inputs.py"),
               workload.name, str(seed), str(workdir)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(command, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchmarkError(
                f"set-up exited {done.returncode}: {done.stderr.strip()}"
            )
    return times


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, calls beyond it) of the highest percentile with
    at least TAIL_BEYOND calls above it; the fastest call if none has."""
    ordered = sorted(walls)
    i = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(workload, seed: int, seconds: float, workdir: Path, digests: dict):
    from reference import timed_kernel

    setups = timed_setups(workload, seed, workdir)
    checker = workload.checker(seed, workdir, digests)
    argv = workload.argv(seed, workdir)
    tally = Tally()
    walls = []
    refs = [timed_kernel()]

    def call_then_reference():
        walls.append(attempt(tally, checker, argv)[0])
        refs.append(timed_kernel())

    repeat(seconds, call_then_reference)
    ratios = [wall / ((before + after) / 2) for wall, before, after in zip(walls, refs, refs[1:])]
    items = workload.items_per_call() * len(walls)
    tail_ratio, tail_pct, tail_beyond = tail(ratios)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_p50_ref": (statistics.median(ratios), "ref"),
        "wall_tail_ref": (tail_ratio, "ref"),
        "items_per_ref": (items / sum(ratios), "1/ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "wall_p50_s": statistics.median(walls),
        "wall_tail_s": tail(walls)[0],
        "items_per_s": items / sum(walls),
        "wall_tail_percentile": tail_pct,
        "wall_tail_calls_beyond": tail_beyond,
        "items_per_call": workload.items_per_call(),
        "setup_s_samples": setups,
        "call_s": walls,
        "reference_s": refs,
    }
    return tally, metrics, details, None


def run_traced(workload, seed: int, seconds: float, workdir: Path, digests: dict):
    from spans import SETUP_TIME_METRICS, TIME_METRICS, Counts, Tracer, check_spans, median_times

    tracer = Tracer()
    setup_calls = []
    for i in range(TRACED_SETUPS):
        for j, setup_argv in enumerate(workload.setup_argvs(seed, workdir)):
            call_id = f"setup-{i}-{j}"
            rc, _, _, error = invoke(setup_argv, lambda fn: tracer.run(call_id, fn))
            if error or rc != 0:
                raise BenchmarkError(f"set-up {setup_argv} failed: {error or rc}")
            setup_calls.append(call_id)
    checker = workload.checker(seed, workdir, digests)
    argv = workload.argv(seed, workdir)
    tally = Tally()
    plain, traced, traced_calls = [], [], []

    def untraced_then_traced():
        plain.append(attempt(tally, checker, argv)[0])
        call_id = f"call-{len(traced)}"
        traced.append(attempt(tally, checker, argv, lambda fn: tracer.run(call_id, fn))[0])
        traced_calls.append(call_id)

    repeat(seconds, untraced_then_traced)

    counts = Counts()
    _, stdout = attempt(tally, checker, argv, lambda fn: (counts.run(fn), 0.0, 0.0))
    metrics = {name: (value, "count") for name, value in counts.values.items()}
    dump = workload.dump_path(workdir)
    metrics["simulation.dump_rows"] = (_data_lines(dump) if dump else 0, "count")
    metrics["cli.bytes_out"] = (
        len(stdout.encode()) + sum(p.stat().st_size for p in workload.outputs(workdir)),
        "bytes",
    )
    for name, value in median_times(tracer.spans, TIME_METRICS, traced_calls).items():
        metrics[name] = (value, "s")
    setup_times = (median_times(tracer.spans, SETUP_TIME_METRICS, setup_calls)
                   if setup_calls else dict.fromkeys(SETUP_TIME_METRICS, 0.0))
    for name, value in setup_times.items():
        metrics[name] = (value, "s")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")

    span_file = workdir / f"spans-seed{seed}.jsonl"
    tracer.write_jsonl(span_file)
    details = {
        "untraced_call_s": plain,
        "traced_call_s": traced,
        "span_file": os.path.relpath(span_file, REPO),
        "span_count": len(tracer.spans),
    }
    return tally, metrics, details, check_spans(tracer.spans)


def _data_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def git_commit() -> str | None:
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of src/**/*.py, naming the code version without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the printed result plus its details."""
    if not (SRC / "rpratio" / "__init__.py").is_file():
        raise BenchmarkError(f"no rpratio sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS.get(workload_name)
    if workload is None:
        raise BenchmarkError(f"unknown workload {workload_name!r}; one of {sorted(WORKLOADS)}")
    digests = json.loads((HERE / "digests.json").read_text()) if seed == DEFAULT_SEED else {}
    workdir = OUT / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    runner = run_traced if trace else run_plain
    tally, metrics, details, trace_problems = runner(workload, seed, seconds, workdir, digests)
    result = {
        "correct": tally.failed == 0 and not trace_problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    details.update(
        workload=workload.name,
        trace=int(trace),
        seconds=seconds,
        error_rate=tally.failed / tally.attempted,
        problems=tally.problems + (trace_problems or []),
        environment=environment(seed),
    )
    return {"details": details, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 1
    record = OUT / args.workload / f"result-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(outcome, indent=2) + "\n")
    print(json.dumps(outcome["details"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
