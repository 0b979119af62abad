"""Command-line interface.

Subcommands: analyze, plan, theory, simulate, surface, generate.  Exit code
0 on success, 1 when the reader closes standard output early, 2 for input
or usage problems, 3 for unexpected internal failures.  simulate and
generate write a small run manifest next to their primary output; volatile
facts (timestamp, wall time) live only there, so the reports themselves are
byte-identical across reruns of one seed.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import EstimationError, PoleAtHalfError
from .estimators import (
    Product,
    Ratio,
    RatioProductRatio,
    SampleMean,
    UnbiasedAOE,
    _split_estimators,
    parse_estimator,
)
from .population import (
    SummaryStats,
    load_population_csv,
    summarize,
    write_csv,
)
from .sampling import SamplingDesign, _real, plan_sample_size
from .simulation import SimConfig, run_simulation, write_estimates_csv
from .synthetic import MomentTargets, generate_population
from .theory import (
    Baseline,
    Branch,
    SurfaceKind,
    _surface,
    aoe_parameters,
    biasfree_betas,
    dominates,
    family_theory,
    minimal_mse1,
    mse1_grad,
    relative_efficiency,
)

__all__ = ["main", "run"]

def _dump_json(payload) -> str:
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:  # nan or infinity, which JSON cannot represent
        raise EstimationError(
            "result is not finite; the inputs overflow double precision"
        ) from None


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


# Parsed values a manifest records elsewhere, or that name outputs.
_NOT_INPUTS = frozenset({"command", "func", "seed", "out", "dump_estimates"})


def _require_file_names(*outputs: tuple[str, str | None]) -> None:
    """Refuse each (flag, path) output whose path is given but names no
    file, such as "" or "/"."""
    for flag, path in outputs:
        if path is not None and not Path(path).name:
            raise EstimationError(f"{flag} {path!r} names no file")


def _manifest_path(out_path: Path) -> Path:
    return out_path.with_name(out_path.stem + ".manifest.json")


@contextlib.contextmanager
def _outputs():
    """Yield output(path), which makes the file at path if none is there and
    returns path, for the caller to open and write.  If the block raises,
    the files that output made are removed and the error goes on, so a
    failed command leaves no file it made and keeps every file it found."""
    made = []

    def output(path):
        with contextlib.suppress(FileExistsError):
            open(path, "x").close()
            made.append(path)
        return path

    try:
        yield output
    except BaseException:
        for path in made:
            os.remove(path)
        raise


def _write_manifest(path: Path, args, outputs: list[str], started: float) -> None:
    """Write the manifest at path: the command, its seed, every other parsed
    value as an input, in parser order, the outputs, and the wall time since
    started, a time.perf_counter() reading."""
    payload = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "inputs": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS},
        "outputs": outputs,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    path.write_text(_dump_json(payload))


def _parse_design(text: str):
    try:
        n_text, N_text = text.split(",")
        return SamplingDesign(int(n_text), int(N_text))
    except ValueError:
        raise EstimationError(
            f"bad design {text!r}; expected 'n,N' such as '112,365'"
        ) from None


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise EstimationError(
            f"bad range {text!r}; expected 'start:stop:step'"
        )
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise EstimationError(f"non-numeric bound in range {text!r}") from None


_STATS_KEYS = (
    "mean_y", "mean_x", "var_y", "var_x", "sd_y", "sd_x", "cov_xy", "r", "cv_y", "cv_x", "c",
)


def _stats_payload(st: SummaryStats) -> dict:
    return {key: getattr(st, key) for key in _STATS_KEYS}


def _load_stats(path_text: str) -> SummaryStats:
    path = Path(path_text)
    if path.suffix.lower() == ".csv":
        return summarize(load_population_csv(path))
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise EstimationError(
            f"stats file {path}: byte {exc.start} is not valid UTF-8"
        ) from None
    except json.JSONDecodeError as exc:
        raise EstimationError(f"stats file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise EstimationError(
            f"stats file {path}: expected a JSON object, got {type(raw).__name__}"
        )

    def number(key: str):
        if key not in raw:
            raise EstimationError(f"stats file {path} missing key {key!r}")
        return _real(raw[key], f"stats file {path}: {key}")

    def sd(axis: str):
        if f"sd_{axis}" in raw:
            return number(f"sd_{axis}")
        var = number(f"var_{axis}")
        if var < 0:
            raise EstimationError(f"stats file {path}: var_{axis} is negative")
        return math.sqrt(var)

    sd_y, sd_x = sd("y"), sd("x")
    return SummaryStats.from_moments(
        mean_y=number("mean_y"), mean_x=number("mean_x"),
        sd_y=sd_y, sd_x=sd_x, r=number("r"),
    )


def _cmd_analyze(args) -> int:
    pop = load_population_csv(args.population)
    st = summarize(pop)
    payload = {"population_size": pop.size, **_stats_payload(st)}
    if args.design is not None:
        d = _parse_design(args.design)
        payload["design"] = {
            "n": d.n, "N": d.N, "f": d.f, "fpc_rate": d.fpc_rate,
        }
    sys.stdout.write(_dump_json(payload))
    return 0


def _cmd_plan(args) -> int:
    plan = plan_sample_size(
        args.sigma2, args.margin, args.confidence, args.population_size
    )
    sys.stdout.write(_dump_json({
        "sigma2": args.sigma2,
        "margin": plan.d,
        "confidence": plan.confidence,
        "z": plan.z,
        "population_size": args.population_size,
        "n0": plan.n0,
        "n": plan.n,
    }))
    return 0


def _cmd_theory(args) -> int:
    for unusable, message in (
        (args.beta is None and args.alpha is not None, "--alpha needs --beta"),
        (args.alpha is None and args.beta is not None, "--beta needs --alpha"),
        (args.design is not None and not args.stats, "--design needs --stats"),
        (args.design is not None and args.alpha is None, "--design needs --alpha and --beta"),
        (args.c is None and not args.stats, "needs --stats and/or --c"),
    ):
        if unusable:
            raise EstimationError(f"theory {message}")
    st = _load_stats(args.stats) if args.stats else None
    c = args.c if args.c is not None else st.c
    payload: dict = {"c": c}

    if args.alpha is not None:  # a point comes with --beta
        alpha, beta = args.alpha, args.beta
        payload["alpha"] = alpha
        payload["beta"] = beta
        payload["dominates"] = {
            over.value: dominates(over, alpha, beta, c) for over in Baseline
        }
        payload["biasfree_betas"] = list(biasfree_betas(alpha, c))
        if args.design is not None:  # a design comes with --stats
            d = _parse_design(args.design)
            first = family_theory(RatioProductRatio(alpha, beta), st, d)
            payload["bias1"] = first.bias1
            payload["mse1"] = first.mse1
            payload["gradient"] = list(mse1_grad(alpha, beta, st, d))
            payload["minimal_mse1"] = minimal_mse1(st, d)

    try:
        aoe = {}
        for branch in (Branch.MINUS_MINUS, Branch.PLUS_PLUS):
            sol = aoe_parameters(c, branch)
            aoe[branch.value.replace("-", "_")] = {
                "alpha_star": sol.alpha_star if sol.is_real else None,
                "beta_star": sol.beta_star if sol.is_real else None,
                "is_real": sol.is_real,
            }
        payload["aoe"] = aoe
    except PoleAtHalfError as exc:
        payload["aoe"] = None
        payload["aoe_note"] = str(exc)

    if st is not None:
        payload["re_vs_sample_mean_percent"] = {
            "ratio": 100.0 * relative_efficiency(SampleMean(), Ratio(), st),
            "product": 100.0 * relative_efficiency(SampleMean(), Product(), st),
            "aoe_at_c": 100.0 * relative_efficiency(SampleMean(), UnbiasedAOE(c), st),
        }
    sys.stdout.write(_dump_json(payload))
    return 0


def _report_payload(result) -> dict:
    orders = sorted(
        result.ranking.counts.items(), key=lambda item: (-item[1], item[0])
    )
    return {
        "meta": result.meta,
        "estimators": [dataclasses.asdict(rep) for rep in result.reports],
        "ranking": {
            "excluded_draws": result.ranking.excluded_draws,
            "orders": [
                {"order": list(order), "count": count} for order, count in orders
            ],
        },
    }


def _cmd_simulate(args) -> int:
    started = time.perf_counter()
    _require_file_names(("--out", args.out), ("--dump-estimates", args.dump_estimates))
    out = Path(args.out)
    outputs = [str(out), *([args.dump_estimates] if args.dump_estimates is not None else [])]
    # A file written twice would lose an output that the manifest lists.
    paths = [*outputs, str(_manifest_path(out))]
    if len(set(map(os.path.realpath, paths))) < len(paths):
        raise EstimationError(f"the outputs must be different files: {', '.join(paths)}")
    pop = load_population_csv(args.population)
    specs = tuple(parse_estimator(tok) for tok in _split_estimators(args.estimators))
    cfg = SimConfig(
        reps=args.reps, n=args.n, seed=args.seed,
        confidence=args.confidence, estimators=specs,
    )
    result = run_simulation(pop, cfg)
    with _outputs() as output:
        if args.dump_estimates is not None:
            write_estimates_csv(output(args.dump_estimates), result)
        output(out).write_text(_dump_json(_report_payload(result)))
        _write_manifest(output(_manifest_path(out)), args, outputs, started)
    width = max(len(rep.label) for rep in result.reports)
    sys.stdout.write(
        f"{'estimator':<{width}}  coverage  mse           re_vs_mean\n"
    )
    for rep in result.reports:
        mse = "n/a" if rep.mse_empirical is None else f"{rep.mse_empirical:.6e}"
        re = "n/a" if rep.re_vs_sample_mean is None else f"{100 * rep.re_vs_sample_mean:9.2f}%"
        sys.stdout.write(
            f"{rep.label:<{width}}  {rep.coverage:8.4f}  {mse:12s}  {re}\n"
        )
    sys.stdout.write(f"report written to {out}\n")
    return 0


def _cmd_surface(args) -> int:
    _require_file_names(("--out", args.out))
    grid = _surface(
        SurfaceKind(args.kind),
        _parse_range(args.alpha),
        _parse_range(args.c),
        _parse_range(args.beta) if args.beta else None,
    )
    header = ",".join(grid.names)
    if args.out is not None:
        with _outputs() as output, open(output(args.out), "w") as fh:
            write_csv(fh, header, grid.rows, grid.columns, grid.block)
        sys.stdout.write(f"{grid.rows} rows written to {args.out}\n")
    else:
        write_csv(sys.stdout, header, grid.rows, grid.columns, grid.block)
    return 0


def _cmd_generate(args) -> int:
    started = time.perf_counter()
    _require_file_names(("--out", args.out))
    targets = MomentTargets(
        size=args.size, mean_y=args.mean_y, mean_x=args.mean_x,
        cv_y=args.cv_y, cv_x=args.cv_x, r=args.r,
    )
    pop = generate_population(targets, args.seed)
    st = summarize(pop)
    out = Path(args.out)
    with _outputs() as output:
        with open(output(out), "w", newline="") as fh:
            write_csv(
                fh, "y,x", pop.size, [None, None],
                lambda start, stop: [pop.y[start:stop], pop.x[start:stop]],
            )
        _write_manifest(output(_manifest_path(out)), args, [str(out)], started)
    sys.stdout.write(f"{pop.size} rows written to {out} (c={st.c!r})\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpratio",
        description="Ratio-product-ratio estimation of a finite population mean",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="summarize a y,x population CSV")
    p.add_argument("population")
    p.add_argument("--design", help="sample design as 'n,N'")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("plan", help="sample size for a target margin")
    p.add_argument("--sigma2", type=_finite_float, required=True)
    p.add_argument("--margin", type=_finite_float, required=True)
    p.add_argument("--confidence", type=_finite_float, default=0.90)
    p.add_argument("--population-size", type=int, required=True)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("theory", help="first-order bias/MSE/dominance at (alpha, beta)")
    p.add_argument("--alpha", type=_finite_float)
    p.add_argument("--beta", type=_finite_float)
    p.add_argument("--stats", help="population CSV or stats JSON file")
    p.add_argument("--c", type=_finite_float, help="moment ratio override")
    p.add_argument("--design", help="sample design as 'n,N'")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("simulate", help="Monte Carlo estimator comparison")
    p.add_argument("--population", required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--confidence", type=_finite_float, default=0.90)
    p.add_argument(
        "--estimators", default="mean,ratio,product",
        help="comma-separated tokens, e.g. 'mean,ratio,product,aoe:0.6092'",
    )
    p.add_argument("--out", default="report.json")
    p.add_argument("--dump-estimates", help="per-replication CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("surface", help="tabulate a parameter-space surface")
    p.add_argument("--kind", choices=[k.value for k in SurfaceKind], required=True)
    p.add_argument("--alpha", required=True, help="grid as 'start:stop:step'")
    p.add_argument("--c", required=True, help="grid as 'start:stop:step'")
    p.add_argument("--beta", help="grid as 'start:stop:step' (region only)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("generate", help="synthesize a population CSV with given moments")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--mean-y", type=_finite_float, required=True)
    p.add_argument("--mean-x", type=_finite_float, required=True)
    p.add_argument("--cv-y", type=_finite_float, required=True)
    p.add_argument("--cv-x", type=_finite_float, required=True)
    p.add_argument("--r", type=_finite_float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does).  Point stdout at
        # devnull so that the flush at exit cannot fail again; say nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (EstimationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - invariant escapes
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    run()
