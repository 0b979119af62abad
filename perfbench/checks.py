"""Correctness checks run on the outputs of every timed call.

A check returns a list of problems; an empty list means the call passed.
The runner counts a call with any problem as failed, so a wrong output
always shows in `failed` and never disappears from `attempted`.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np


def read_population(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The y and x columns of a population CSV, parsed with float()."""
    ys, xs = [], []
    with open(path) as fh:
        fh.readline()
        for line in fh:
            y, x = line.split(",")
            ys.append(float(y))
            xs.append(float(x))
    return np.array(ys), np.array(xs)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class SimulateChecker:
    """Checks one `simulate` workload's report (and dump, if it writes one).

    - report.json is byte-identical across every call of the run;
    - at the default seed it matches the recorded sha256;
    - the `mean` row's mse_empirical lies within MSE_TOLERANCE_SE Monte
      Carlo standard errors of the exact SRSWOR variance (1 - f) S_y^2 / n;
    - with a dump, its first DUMP_REPS replications equal values recomputed
      from the public `srswor` and `estimate`.
    """

    # The standard error used is the normal-theory one, V * sqrt(2 / reps)
    # for a mean of squared deviations with variance V.  Sample means from
    # skewed populations at n = 8 have heavier tails, which makes the true
    # error up to ~25% larger, so 6 of these errors still exceed 4.5 true ones.
    MSE_TOLERANCE_SE = 6.0
    DUMP_REPS = 3

    def __init__(self, workload, simulate_seed: int, workdir: Path,
                 digest: str | None):
        self.workload = workload
        self.simulate_seed = simulate_seed
        self.report_path = workdir / "report.json"
        self.dump_path = workload.dump_path(workdir)
        self.digest = digest
        self.reference: bytes | None = None
        self.y, self.x = read_population(workload.population(workdir))
        N, n = len(self.y), workload.n
        self.exact_var = (1.0 - n / N) * float(np.var(self.y, ddof=1)) / n
        self.mse_se = self.exact_var * math.sqrt(2.0 / workload.reps)

    def check(self) -> list[str]:
        try:
            data = self.report_path.read_bytes()
        except OSError as exc:
            return [f"report.json unreadable: {exc}"]
        problems = []
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            problems.append("report.json differs from the first call's")
        if self.digest is not None and sha256_hex(data) != self.digest:
            problems.append("report.json sha256 differs from the recorded digest")
        try:
            report = json.loads(data)
            meta = report["meta"]
            rows = report["estimators"]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"report.json is malformed: {exc!r}")
            return problems
        problems += self._check_meta(meta)
        problems += self._check_mean_mse(rows)
        if self.dump_path is not None and not problems:
            problems += self._check_dump(meta)
        return problems

    def _check_meta(self, meta) -> list[str]:
        want = {"reps": self.workload.reps, "n": self.workload.n,
                "population_size": len(self.y), "seed": self.simulate_seed}
        got = {key: meta.get(key) for key in want}
        return [] if got == want else [f"report meta {got} != {want}"]

    def _check_mean_mse(self, rows) -> list[str]:
        row = next((r for r in rows if r.get("label") == "mean"), None)
        if row is None:
            return ["report has no 'mean' row"]
        mse = row.get("mse_empirical")
        limit = self.MSE_TOLERANCE_SE * self.mse_se
        if not isinstance(mse, float) or not abs(mse - self.exact_var) <= limit:
            return [
                f"mean mse_empirical {mse!r} is more than {limit!r} from the "
                f"exact SRSWOR variance {self.exact_var!r}"
            ]
        return []

    def expected_dump_lines(self, meta) -> list[str]:
        from rpratio import (
            SampleSummary,
            SingularDenominatorError,
            estimate,
            parse_estimator,
            srswor,
        )

        N, n = len(self.y), self.workload.n
        Ybar, Xbar = float(self.y.mean()), float(self.x.mean())
        half = meta["half_width"]
        lines = []
        for rep in range(self.DUMP_REPS):
            idx = srswor(N, n, self.simulate_seed, stream=rep)
            s = SampleSummary(float(self.y[idx].mean()), float(self.x[idx].mean()), Xbar)
            for label in meta["estimators"]:
                try:
                    value = estimate(parse_estimator(label), s)
                except SingularDenominatorError:
                    lines.append(f"{rep},{label},nan,0")
                    continue
                covered = int(abs(value - Ybar) <= half)
                lines.append(f"{rep},{label},{value!r},{covered}")
        return lines

    def _check_dump(self, meta) -> list[str]:
        expected = self.expected_dump_lines(meta)
        try:
            with open(self.dump_path) as fh:
                header = fh.readline()
                got = [fh.readline().rstrip("\n") for _ in expected]
        except OSError as exc:
            return [f"dump unreadable: {exc}"]
        problems = []
        if header != "rep,estimator,estimate,covered\n":
            problems.append(f"dump header {header!r}")
        for want, line in zip(expected, got):
            if line != want:
                problems.append(f"dump row {line!r} != recomputed {want!r}")
        return problems


def parse_axis(text: str) -> tuple[float, float, int]:
    """(start, step, count) of an inclusive 'start:stop:step' range."""
    start, stop, step = (float(t) for t in text.split(":"))
    return start, step, round((stop - start) / step) + 1


def dominance_factors(alpha: float, beta: float, c: float) -> tuple[float, ...]:
    """The paper's sign conditions for beating mean, ratio and product.

    With w = (1 - 2 alpha)(1 - 2 beta), the first-order MSE differences
    mse(baseline) - mse(alpha, beta), divided by fpc * Ybar^2 * Cx^2, are

        mean:    w (2c - w)
        ratio:   (1 - w)(1 + w - 2c)
        product: (1 + w)(1 - w + 2c)

    A row dominates all three when each product is positive.  The six
    factors are returned so callers can skip rows where one of them is zero
    to rounding, whose sign float arithmetic does not decide.
    """
    w = (1.0 - 2.0 * alpha) * (1.0 - 2.0 * beta)
    return (w, 2.0 * c - w, 1.0 - w, 1.0 + w - 2.0 * c, 1.0 + w, 1.0 - w + 2.0 * c)


def dominates_all(factors: tuple[float, ...]) -> bool:
    it = iter(factors)
    return all(a * b > 0.0 for a, b in zip(it, it))


class SurfaceChecker:
    """Checks one `surface --kind region` output.

    - the header, and a row count equal to the product of the axis lengths;
    - for SAMPLE_ROWS rows drawn with the workload seed, the grid values
      sit where the row's position says and the indicator matches the
      paper's three sign conditions (rows on a sign boundary are skipped).
    """

    SAMPLE_ROWS = 500
    BOUNDARY = 1e-9
    GRID_TOLERANCE = 1e-9

    def __init__(self, workload, seed: int, workdir: Path):
        self.path = workdir / "region.csv"
        self.axes = [parse_axis(t) for t in (workload.alpha, workload.beta, workload.c)]
        self.expected = self.expected_rows(workload)
        self.rng = random.Random(seed)

    @staticmethod
    def expected_rows(workload) -> int:
        return math.prod(parse_axis(t)[2] for t in (workload.alpha, workload.beta, workload.c))

    def check(self) -> list[str]:
        # Streamed line by line so the check adds almost nothing to the
        # process's peak resident set, which is a measured metric.
        expected = self.expected
        sample = set(self.rng.sample(range(expected), min(self.SAMPLE_ROWS, expected)))
        problems = []
        rows = 0
        try:
            with open(self.path) as fh:
                header = fh.readline()
                for line in fh:
                    if rows in sample:
                        problems += self._check_row(rows, line.rstrip("\n"))
                    rows += 1
        except OSError as exc:
            return [f"surface output unreadable: {exc}"]
        if header != "alpha,beta,c,indicator\n":
            problems.insert(0, f"surface header {header!r}")
        if rows != expected:
            problems.insert(0, f"surface has {rows} rows, expected {expected}")
        return problems

    def _check_row(self, row: int, line: str) -> list[str]:
        try:
            *values, flag = line.split(",")
            alpha, beta, c = (float(v) for v in values)
            indicator = int(flag)
        except ValueError:
            return [f"surface row {row} malformed: {line!r}"]
        (a0, da, _), (b0, db, nb), (c0, dc, nc) = self.axes
        ia, rest = divmod(row, nb * nc)
        ib, ic = divmod(rest, nc)
        want = (a0 + da * ia, b0 + db * ib, c0 + dc * ic)
        if any(abs(g - w) > self.GRID_TOLERANCE for g, w in zip((alpha, beta, c), want)):
            return [f"surface row {row} is {line!r}, expected grid point {want}"]
        factors = dominance_factors(alpha, beta, c)
        if min(abs(f) for f in factors) < self.BOUNDARY:
            return []
        if indicator != int(dominates_all(factors)):
            return [f"surface row {row} {line!r}: indicator disagrees with the sign conditions"]
        return []
