"""Spans and counts recorded around calls into rpratio's layers.

The benchmark never edits the program.  For the length of one call it
replaces the public functions in LAYER_FUNCTIONS, in every rpratio module
namespace that refers to them, with wrappers, and puts the originals back
afterwards.  Two kinds of wrapper exist and never run in the same call:

- Timing wrappers (Tracer) record spans: name, start, end, parent and call
  id.  Functions called thousands of times per call (the leaves) are
  recorded as one aggregate span per parent span, holding the call count
  and the summed busy time, so the trace stays small.
- Counting wrappers (Counts) tally calls, drawn indices, singular draws and
  rows.  They inspect results and exceptions, which costs time, so they run
  in a separate untimed call and never inside a timed trace.

A span's self time is its duration minus the busy time of its child spans.
Children of one span run one after another on one thread, so their busy
times never overlap and simply add up.  If a later version of the program
stops calling one of these functions, no span is recorded for it and its
work shows up in its caller's self time instead.
"""
from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, public function, aggregated as a leaf)
LAYER_FUNCTIONS = (
    ("rpratio.population", "load_population_csv", False),
    ("rpratio.synthetic", "generate_population", False),
    ("rpratio.simulation", "run_simulation", False),
    ("rpratio.simulation", "write_estimates_csv", False),
    ("rpratio.sampling", "srswor", True),
    ("rpratio.estimators", "estimate", True),
    ("rpratio.theory", "surface_grid", False),
    ("rpratio.theory", "dominates", True),
)

# The root span of every call: the benchmark's own call of rpratio.cli.main.
ROOT = "cli.main"

# Per-layer time metric -> (span name, "busy" or "self"), medians over calls.
TIME_METRICS = {
    "sampling.srswor_s": ("sampling.srswor", "busy"),
    "estimators.estimate_s": ("estimators.estimate", "busy"),
    "simulation.run_s": ("simulation.run_simulation", "busy"),
    "simulation.self_s": ("simulation.run_simulation", "self"),
    "simulation.dump_s": ("simulation.write_estimates_csv", "busy"),
    "population.load_s": ("population.load_population_csv", "busy"),
    "theory.surface_grid_s": ("theory.surface_grid", "busy"),
    "theory.self_s": ("theory.surface_grid", "self"),
    "theory.dominates_s": ("theory.dominates", "busy"),
    "cli.self_s": (ROOT, "self"),
}
# Taken over the set-up calls (`rpratio generate`) instead.
SETUP_TIME_METRICS = {
    "synthetic.generate_s": ("synthetic.generate_population", "busy"),
}

# Counted per call by Counts: span name -> metric counting its calls ...
CALL_COUNTS = {
    "sampling.srswor": "sampling.srswor_calls",
    "estimators.estimate": "estimators.estimate_calls",
    "theory.dominates": "theory.dominates_calls",
}
# ... and span name -> (metric, size of one result).
RESULT_COUNTS = {
    "sampling.srswor": ("sampling.indices_drawn", len),
    "population.load_population_csv": ("population.rows", lambda pop: pop.size),
    "theory.surface_grid": ("theory.grid_rows", len),
}
# Singular draws: SingularDenominatorError raised out of estimate.
SINGULAR = ("estimators.estimate", "estimators.singular")


def span_name(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


@contextmanager
def patched(make_wrapper):
    """Replace each LAYER_FUNCTIONS entry by make_wrapper(name, fn, leaf)
    wherever an rpratio module refers to it; restore the originals on exit."""
    replaced = []
    try:
        for module_name, function, leaf in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), function, None)
            if original is None:
                continue
            wrapper = make_wrapper(span_name(module_name, function), original, leaf)
            for name, module in list(sys.modules.items()):
                if module is None or name.partition(".")[0] != "rpratio":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


class _Open:
    """A span still running, and the leaf aggregates of its children."""

    __slots__ = ("record", "leaves")

    def __init__(self, record: dict):
        self.record = record
        self.leaves: dict[str, list] = {}


class Tracer:
    """Keeps spans in memory; write_jsonl saves them once the run is over."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[_Open] = []
        self._next_id = 0
        self._call = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def _open(self, name: str, start: float) -> _Open:
        parent = self._stack[-1].record["id"] if self._stack else None
        node = _Open({"id": self._new_id(), "name": name, "start": start,
                      "end": None, "parent": parent, "call": self._call,
                      "count": 1, "busy": None})
        self._stack.append(node)
        return node

    def _close(self, end: float) -> None:
        node = self._stack.pop()
        record = node.record
        record["end"] = end
        record["busy"] = end - record["start"]
        self.spans.append(record)
        for name, (count, busy, first, last) in node.leaves.items():
            self.spans.append({
                "id": self._new_id(), "name": name, "start": first, "end": last,
                "parent": record["id"], "call": self._call,
                "count": count, "busy": busy,
            })

    def run(self, call_id: str, fn):
        """Run fn() as one traced call; return (result, start, end).

        The root span's start and end are the call's own clock readings,
        taken inside the installed wrappers, so the root's duration is the
        call's wall time."""
        self._call = call_id
        clock = time.perf_counter
        with patched(self._wrapper):
            node = self._open(ROOT, 0.0)
            start = clock()
            try:
                result = fn()
            finally:
                end = clock()
                node.record["start"] = start
                self._close(end)
        return result, start, end

    def _wrapper(self, name, fn, leaf):
        clock = time.perf_counter
        stack = self._stack
        if leaf:
            def traced_leaf(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    acc = stack[-1].leaves.get(name)
                    if acc is None:
                        stack[-1].leaves[name] = [1, end - start, start, end]
                    else:
                        acc[0] += 1
                        acc[1] += end - start
                        acc[3] = end
            return traced_leaf

        def traced(*args, **kwargs):
            self._open(name, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(clock())
        return traced

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its busy time minus the busy time of its children."""
    child_busy: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_busy[span["parent"]] += span["busy"]
    return {span["id"]: span["busy"] - child_busy[span["id"]] for span in spans}


def check_spans(spans: list[dict], tolerance: float = 1e-9) -> list[str]:
    """Every span's children must fit inside it, so no self time is negative."""
    selfs = self_times(spans)
    return [
        f"children of span {span['id']} ({span['name']}) exceed it by {-selfs[span['id']]!r} s"
        for span in spans
        if selfs[span["id"]] < -tolerance
    ]


def per_call_times(spans: list[dict], metrics: dict, calls) -> dict[str, dict[str, float]]:
    """call id -> metric -> seconds, for the given calls."""
    selfs = self_times(spans)
    table = {call: dict.fromkeys(metrics, 0.0) for call in calls}
    for span in spans:
        row = table.get(span["call"])
        if row is None:
            continue
        for metric, (name, kind) in metrics.items():
            if span["name"] == name:
                row[metric] += span["busy"] if kind == "busy" else selfs[span["id"]]
    return table


def median_times(spans: list[dict], metrics: dict, calls) -> dict[str, float]:
    table = per_call_times(spans, metrics, calls)
    return {m: statistics.median(row[m] for row in table.values()) for m in metrics}


class Counts:
    """Tallies made by counting wrappers during one untimed call."""

    def __init__(self):
        from rpratio.errors import SingularDenominatorError

        self._singular_error = SingularDenominatorError
        self.values = dict.fromkeys(
            [*CALL_COUNTS.values(), *(m for m, _ in RESULT_COUNTS.values()), SINGULAR[1]], 0
        )

    def run(self, fn):
        with patched(self._wrapper):
            return fn()

    def _wrapper(self, name, fn, leaf):
        values = self.values
        calls = CALL_COUNTS.get(name)
        metric, size = RESULT_COUNTS.get(name, (None, None))
        singular_error = self._singular_error if name == SINGULAR[0] else ()

        def counted(*args, **kwargs):
            if calls:
                values[calls] += 1
            try:
                result = fn(*args, **kwargs)
            except singular_error:
                values[SINGULAR[1]] += 1
                raise
            if metric:
                values[metric] += size(result)
            return result
        return counted
