"""The benchmark's workloads: their inputs, argv, work per call and checks.

Every workload is a plain `rpratio` command line.  Inputs are derived from
the workload seed: seed s uses population seed 20260823 + s and simulate
seed 1234 + s, so the default seed 0 reproduces the paper populations and
the acceptance report.  The program only ever sees the generated files and
the argv.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from checks import SimulateChecker, SurfaceChecker

DEFAULT_SEED = 0
POPULATION_SEED = 20260823
SIMULATE_SEED = 1234

# Paper moments: mean_y, mean_x, cv_y, cv_x and r of the N=365 series.
PAPER_MOMENTS = (
    ("--mean-y", "0.5832"),
    ("--mean-x", "0.6277"),
    ("--cv-y", "0.7681"),
    ("--cv-x", "1.1504"),
    ("--r", "0.9125"),
)

ALL_ESTIMATORS = (
    "mean,ratio,product,rpr:-0.3349,0.3176,aoe:0.6092,"
    "srivastava:-0.6,reddy:0.6,sahai:0.6,singh:0.6"
)


def _estimator_count(tokens: str) -> int:
    # rpr:<alpha>,<beta> is the one token holding a comma of its own.
    return tokens.count(",") + 1 - tokens.count("rpr:")


@dataclass(frozen=True)
class Simulate:
    """`rpratio simulate` over a population generated at setup."""

    name: str
    size: int
    reps: int
    n: int
    estimators: str
    dump: bool = False

    def population(self, workdir: Path) -> Path:
        return workdir / f"pop{self.size}.csv"

    def dump_path(self, workdir: Path) -> Path | None:
        return workdir / "estimates.csv" if self.dump else None

    def outputs(self, workdir: Path) -> list[Path]:
        paths = [workdir / "report.json", workdir / "report.manifest.json"]
        if self.dump:
            paths.append(self.dump_path(workdir))
        return paths

    def setup_argvs(self, seed: int, workdir: Path) -> list[list[str]]:
        argv = ["generate", "--size", str(self.size)]
        for flag, value in PAPER_MOMENTS:
            argv += [flag, value]
        argv += ["--seed", str(POPULATION_SEED + seed),
                 "--out", str(self.population(workdir))]
        return [argv]

    def argv(self, seed: int, workdir: Path) -> list[str]:
        argv = [
            "simulate", "--population", str(self.population(workdir)),
            "--reps", str(self.reps), "--n", str(self.n),
            "--seed", str(SIMULATE_SEED + seed),
            "--estimators", self.estimators,
            "--out", str(workdir / "report.json"),
        ]
        if self.dump:
            argv += ["--dump-estimates", str(self.dump_path(workdir))]
        return argv

    def items_per_call(self) -> int:
        """Estimator evaluations: reps times estimators."""
        return self.reps * _estimator_count(self.estimators)

    def checker(self, seed: int, workdir: Path, digests: dict):
        return SimulateChecker(self, SIMULATE_SEED + seed, workdir, digests.get(self.name))


@dataclass(frozen=True)
class Surface:
    """`rpratio surface --kind region`; it needs no input files."""

    name: str
    alpha: str
    beta: str
    c: str

    def dump_path(self, workdir: Path) -> None:
        return None

    def outputs(self, workdir: Path) -> list[Path]:
        return [workdir / "region.csv"]

    def setup_argvs(self, seed: int, workdir: Path) -> list[list[str]]:
        return []

    def argv(self, seed: int, workdir: Path) -> list[str]:
        return [
            "surface", "--kind", "region", f"--alpha={self.alpha}",
            f"--beta={self.beta}", f"--c={self.c}",
            "--out", str(workdir / "region.csv"),
        ]

    def items_per_call(self) -> int:
        """Rows written."""
        return SurfaceChecker.expected_rows(self)

    def checker(self, seed: int, workdir: Path, digests: dict):
        return SurfaceChecker(self, seed, workdir)


WORKLOADS = {
    w.name: w
    for w in (
        Simulate("simulate_acceptance", size=365, reps=10_000, n=112,
                 estimators="mean,ratio,product,aoe:0.6092"),
        Simulate("simulate_wide", size=365, reps=20_000, n=8,
                 estimators=ALL_ESTIMATORS, dump=True),
        Surface("surface_region", alpha="-1:1:0.02", beta="-1:1:0.02",
                c="0:2:0.05"),
    )
}
