"""Benchmark of schur_alloc's `allocate` on three closed-loop workloads.

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ./src. With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it runs the
same untraced loop, then the first units again under the outside-in tracer,
and prints the per-layer metrics. A correctness gate runs after the timed
region in both modes; a failed check makes the exit code 1. The last line
of standard output is one JSON object with the result. See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported anywhere in this process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SUM_TOL = 1e-10          # |sum(weights) - 1|
EXACT_ATOL = 1e-8        # gamma = 1 weights against normalized Sigma^-1 1
REFERENCE_RTOL = 1e-9    # desk reference ratio


def import_package():
    """Import schur_alloc from ./src, refusing any other copy."""
    if not (SRC / "schur_alloc" / "__init__.py").is_file():
        raise ImportError(f"no schur_alloc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import schur_alloc

    if Path(schur_alloc.__file__).resolve().parent != SRC / "schur_alloc":
        raise ImportError(f"schur_alloc imported from {schur_alloc.__file__}, not {SRC}")
    return schur_alloc


def import_seconds() -> float:
    """Time `import numpy, schur_alloc` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import numpy, schur_alloc; "
            "print(time.perf_counter() - t); print(schur_alloc.__file__)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, path = done.stdout.split()[:2]
    if Path(path).resolve().parent != SRC / "schur_alloc":
        raise ImportError(f"child imported schur_alloc from {path}")
    return float(seconds)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": nproc, "src_lines": src_lines}


def setup(workload, seed, allocate):
    """SETUP_REPEATS set-ups, each: imports, the first input, and one warm-up
    call on a small matrix from the same generator. Returns the median set-up
    time and the first input."""
    from workloads import SMALL_P

    times = []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds()
        start = perf_counter()
        first = workload.estimate(seed, 0)
        allocate(workload.estimate(seed, 0, SMALL_P), workload.allocation())
        times.append(imports + perf_counter() - start)
    return statistics.median(times), first


def closed_loop(workload, seed, call, seconds, min_units):
    """Run units back to back until `seconds` have passed and at least
    `min_units` are done. Returns per unit (oos variances, end time)."""
    units = []
    start = perf_counter()
    while len(units) < min_units or perf_counter() - start < seconds:
        call.unit = len(units)
        oos = workload.run_unit(seed, call.unit, call)
        units.append((oos, perf_counter() - start))
    return units


def oos_ratio(units):
    pairs = [u for u, _ in units if 0.0 in u and 1.0 in u]
    if not pairs:
        return math.nan
    return (sum(u[1.0] for u in pairs) / len(pairs)) / (sum(u[0.0] for u in pairs) / len(pairs))


def end_to_end(call, units, workload, setup_s, rss_mb):
    """Metrics as {name: (value, unit, note)}."""
    lat = call.latencies
    n = len(lat)
    wall = units[-1][1]
    if n >= 11:
        tail_rank, tail_label = n - 10, f"p{100 * (n - 10) / n:.0f}"
    else:
        tail_rank, tail_label = n, "max"
    return {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} set-ups"),
        "allocs_per_s": (n / wall, "1/s", f"{n} calls in {wall:.2f} s, {len(units)} units"),
        "alloc_p50_s": (statistics.median(lat), "s", f"median of {n} calls"),
        "alloc_tail_s": (sorted(lat)[tail_rank - 1], "s",
                         f"{tail_label} of {n} calls, {n - tail_rank} beyond it"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss after the timed loop"),
        "failed_frac": (call.failed / call.attempted, "ratio",
                        f"{call.failed} of {call.attempted} calls raised"),
        "oos_ratio_g1": (oos_ratio(units[:workload.units]), "ratio",
                         f"first {workload.units} units"),
    }


def gate(sa, workload, seed, first, calls, traced):
    """Correctness checks, run outside the timed region: [(name, ok, detail)]."""
    from tracer import Tracer
    from workloads import DESK_REFERENCE_RATIO, DESK_REFERENCE_SEED, SMALL_P, Calls

    checks = []
    bad = [key for c in (calls, traced) if c for key, w in c.weights.items()
           if not (np.all(np.isfinite(w)) and abs(w.sum() - 1.0) <= SUM_TOL)]
    checks.append(("weights finite and sum to 1", not bad, f"bad: {bad[:3]}"))

    ok = calls.first_input is not None and np.array_equal(calls.first_input, first)
    checks.append(("timed loop's first input equals the set-up input", ok, ""))
    g0 = calls.weights.get((0, 0.0))
    hrp = sa.allocate(first, replace(workload.allocation(), mode="hrp")).weights
    ok = g0 is not None and np.array_equal(g0, hrp)
    checks.append(("gamma 0 weights bitwise equal hrp weights on the first input", ok, ""))

    small = workload.estimate(seed, 0, SMALL_P)
    exact_cfg = sa.AllocationConfig(gammas=1.0, fitness="minvar_variance", adaptive_cap=False)
    try:
        w = sa.allocate(small, exact_cfg).weights
        x = np.linalg.solve(small, np.ones(len(small)))
        err = float(np.abs(w - x / x.sum()).max())
    except sa.errors.SchurAllocError as exc:
        err = f"{type(exc).__name__}: {exc}"
    checks.append((f"gamma 1 exact minimum variance, p={SMALL_P}, atol {EXACT_ATOL}",
                   isinstance(err, float) and err <= EXACT_ATOL, f"max error {err}"))

    cfg = workload.allocation().with_gamma(1.0)
    plain = sa.allocate(small, cfg).weights
    tracer = Tracer()
    tracer.install()
    try:
        traced_small = sa.allocator.allocate(small, cfg).weights
    finally:
        tracer.restore()
    ok = np.array_equal(plain, traced_small) and len(tracer.spans) > 0
    if traced:
        ok = ok and all(np.array_equal(w, calls.weights.get(key))
                        for key, w in traced.weights.items())
    checks.append(("traced and untraced weights bitwise identical", ok, ""))

    if workload.name == "desk_sweep":
        oos = workload.run_unit(DESK_REFERENCE_SEED, 0, Calls())
        ratio = oos[1.0] / oos[0.0]
        ok = math.isclose(ratio, DESK_REFERENCE_RATIO, rel_tol=REFERENCE_RTOL)
        checks.append(("desk reference oos ratio", ok,
                       f"{ratio!r} vs recorded {DESK_REFERENCE_RATIO!r}"))
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    try:
        sa = import_package()
    except ImportError as exc:
        print(f"cannot import schur_alloc: {exc}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS, Calls

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()
    if not 1 <= env["blas_threads"] <= env["nproc"]:
        raise SystemExit(f"BLAS threads {env['blas_threads']} outside 1..nproc={env['nproc']}")

    setup_s, first = setup(workload, args.seed, sa.allocate)
    calls = Calls()
    units = closed_loop(workload, args.seed, calls, args.seconds, workload.units)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced, layers = None, {}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        traced = Calls()
        tracer = Tracer()
        tracer.install()
        try:
            traced_units = closed_loop(workload, args.seed, traced, 0.0, workload.units)
        finally:
            tracer.restore()
        wall = traced_units[-1][1]
        layers = tracer.metrics(wall)
        untraced_wall = units[len(traced_units) - 1][1]
        layers["trace.overhead_frac"] = (wall / untraced_wall - 1.0, "ratio")
        tracer.write_spans(stem.with_name(stem.name + "-spans.jsonl"))

    checks = gate(sa, workload, args.seed, first, calls, traced)
    correct = all(ok for _, ok, _ in checks)

    e2e = end_to_end(calls, units, workload, setup_s, rss_mb)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, one caller")
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<14} {value:>14.6g} {unit:<6} {note}")
    for name, (value, unit) in layers.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for name, ok, detail in checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}" + (f"  ({detail})" if not ok else ""))
    print("env " + json.dumps(env))

    chosen = layers if args.trace else {k: v[:2] for k, v in e2e.items() if k != "failed_frac"}
    attempted = calls.attempted + (traced.attempted if traced else 0)
    failed = calls.failed + (traced.failed if traced else 0)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}}
    stem.with_suffix(".json").write_text(json.dumps(
        {"env": env, "end_to_end": e2e, "per_layer": layers, "checks": checks, **result},
        indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
