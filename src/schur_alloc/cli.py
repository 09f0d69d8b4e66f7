"""Command-line front end: allocate, shrink, seriate, simulate.

Exit codes: 0 success, 2 invalid input or configuration, 3 numerical failure.
Logging level comes from the SCHUR_ALLOC_LOG environment variable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys

from .allocator import MODES, TERMINALS, AllocationConfig, allocate
from .covmat import empirical_covariance, read_matrix_csv, read_returns_csv, write_matrix_csv
from .errors import InputError, NumericalError, SchurAllocError
from .portfolio import FITNESS_KINDS, portfolio_variance
from .schur import GammaPair
from .seriation import SERIATION_METHODS, seriate
from .shrinkage import DEFAULT_GRID_STEP, weak_shrink
from .sim import (
    PROFILES,
    ExperimentConfig,
    run_experiment,
    summarize,
    write_result_csv,
    write_summary_csv,
    write_summary_svg,
)

log = logging.getLogger("schur_alloc")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _configure_logging() -> None:
    level = os.environ.get("SCHUR_ALLOC_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_cov(args):
    if args.cov:
        return read_matrix_csv(args.cov)
    return empirical_covariance(read_returns_csv(args.returns))


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _allocation_config(args) -> AllocationConfig:
    return AllocationConfig(
        gammas=GammaPair(args.gamma, args.gamma_b),
        mode=args.mode,
        fitness=args.fitness,
        terminal=args.terminal,
        terminal_size=args.m,
        seriation=args.seriation,
    )


def cmd_allocate(args) -> int:
    cov = _load_cov(args)
    config = _allocation_config(args)
    report = allocate(cov, config)
    payload = {
        "labels": report.labels,
        "weights": report.weights.tolist(),
        "gamma": config.gammas.gamma_c,
        "gamma_b": config.gammas.gamma_b,
        "mode": config.mode,
        "diagnostics": {
            "variance": portfolio_variance(cov, report.weights),
            "order": list(report.order.order),
            "splits": [dataclasses.asdict(s) for s in report.splits],
        },
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_shrink(args) -> int:
    cov = _load_cov(args)
    result = weak_shrink(cov, grid_step=args.grid_step)
    base = (args.out or "shrink").removesuffix(".json")
    payload = {
        "xi": result.xi,
        "weights": result.weights.tolist(),
        "clipped_variance": result.clipped_variance,
        "skipped_xi": result.skipped.tolist(),
        "shrunk_csv": f"{base}_shrunk.csv",
        "curve_csv": f"{base}_curve.csv",
    }
    write_matrix_csv(payload["shrunk_csv"], result.shrunk)
    with open(payload["curve_csv"], "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["xi", "clipped_variance"])
        for xi, variance in result.curve:
            writer.writerow([f"{xi:.17g}", f"{variance:.17g}"])
    _emit(payload, args.out)
    return EXIT_OK


def cmd_seriate(args) -> int:
    cov = _load_cov(args)
    perm = seriate(cov, method=args.method)
    _emit({"order": list(perm.order)}, args.out)
    return EXIT_OK


def _parse_gamma_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InputError(f"bad gamma grid {text!r}: {exc}")


def cmd_simulate(args) -> int:
    if args.config:
        with open(args.config) as handle:
            config = ExperimentConfig.from_dict(json.load(handle))
    else:
        base = dict(PROFILES[args.profile])
        for key in ("p", "rho", "a", "o", "trials"):
            if getattr(args, key) is not None:
                base[key] = getattr(args, key)
        config = ExperimentConfig(
            gamma_grid=_parse_gamma_grid(args.gamma_grid),
            seed=args.seed, **base,
        )
    log.info("running %d trials at p=%d", config.trials, config.p)
    result = run_experiment(config)
    for trial, message in result.errors:
        log.warning("trial %d failed: %s", trial, message)
    summary = summarize(result)
    write_result_csv(result, args.out)
    write_summary_csv(summary, args.summary)
    if args.svg:
        write_summary_svg(summary, args.svg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schur-alloc",
        description="Hierarchical portfolio allocation from HRP to minimum variance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cov_input(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--cov", help="covariance matrix CSV")
        group.add_argument("--returns", help="returns panel CSV (covariance is estimated)")

    p_alloc = sub.add_parser("allocate", help="compute portfolio weights")
    add_cov_input(p_alloc)
    p_alloc.add_argument("--gamma", type=float, default=0.0)
    p_alloc.add_argument("--gamma-b", type=float, default=None)
    p_alloc.add_argument("--mode", choices=MODES, default="schur_debiased")
    p_alloc.add_argument("--fitness", choices=FITNESS_KINDS, default="subportfolio_variance")
    p_alloc.add_argument("--terminal", choices=TERMINALS, default="minvar")
    p_alloc.add_argument("--m", type=int, default=5, help="terminal portfolio size")
    p_alloc.add_argument("--seriation", choices=SERIATION_METHODS, default="single_linkage")
    p_alloc.add_argument("--out", help="write weights JSON here instead of stdout")
    p_alloc.set_defaults(func=cmd_allocate)

    p_shrink = sub.add_parser("shrink", help="weak adaptive shrinkage")
    add_cov_input(p_shrink)
    p_shrink.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p_shrink.add_argument("--out", help="JSON output path (CSV siblings derived from it)")
    p_shrink.set_defaults(func=cmd_shrink)

    p_ser = sub.add_parser("seriate", help="emit the seriation order")
    add_cov_input(p_ser)
    p_ser.add_argument("--method", choices=SERIATION_METHODS, default="single_linkage")
    p_ser.add_argument("--out")
    p_ser.set_defaults(func=cmd_seriate)

    p_sim = sub.add_parser("simulate", help="out-of-sample gamma sweep")
    p_sim.add_argument("--config", help="experiment config JSON")
    p_sim.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    p_sim.add_argument("-p", type=int, default=None, help="asset count")
    p_sim.add_argument("--rho", type=float, default=None)
    p_sim.add_argument("--a", type=int, default=None, help="anchor samples")
    p_sim.add_argument("--o", type=int, default=None, help="observation samples")
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.add_argument("--gamma-grid", default="0,0.25,0.5,0.75,1")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default="simulation.csv", help="per-trial results CSV")
    p_sim.add_argument("--summary", default="summary.csv", help="per-gamma summary CSV")
    p_sim.add_argument("--svg", help="optional mean-curve SVG")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SchurAllocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
