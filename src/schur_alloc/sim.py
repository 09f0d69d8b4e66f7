"""Monte-Carlo out-of-sample study: anchor -> true covariance -> noisy
estimate -> gamma sweep, with per-trial variance normalized to gamma = 0."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .allocator import AllocationConfig, allocate, checked_keys
from .covmat import empirical_covariance, rand_symm_cov, sample_gaussian
from .errors import EmptyResult, InputError, SchurAllocError
from .portfolio import portfolio_variance

DEFAULT_GAMMA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def default_allocation() -> AllocationConfig:
    # One weak shrinkage per terminal block serves its weights and its parent's fitness.
    return AllocationConfig(mode="schur_debiased", fitness="weak_minvar_variance",
                            terminal="weak_minvar", terminal_size=5)


@dataclass
class ExperimentConfig:
    p: int = 40                    # asset count
    rho: float = 0.35              # anchor equicorrelation
    a: int = 60                    # samples defining the "true" covariance
    o: int = 30                    # observation samples for the estimate
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    trials: int = 20
    seed: int = 0
    allocation: AllocationConfig = field(default_factory=default_allocation)
    jitter_sigma: float = 0.0      # lognormal variance jitter on the anchor

    def __post_init__(self):
        self.gamma_grid = tuple(float(g) for g in self.gamma_grid)
        if self.p < 2 * self.allocation.terminal_size:
            raise InputError(
                f"p={self.p} must be at least twice the terminal size "
                f"{self.allocation.terminal_size}"
            )
        if self.a < 2 or self.o < 2:
            raise InputError("a and o must both be at least 2")
        if self.trials < 1:
            raise InputError("need at least one trial")
        if 0.0 not in self.gamma_grid:
            raise InputError("gamma grid must contain 0 (the normalization anchor)")
        for g in self.gamma_grid:
            if not (0.0 <= g <= 1.0):
                raise InputError(f"gamma {g} outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "p": self.p, "rho": self.rho, "a": self.a, "o": self.o,
            "gamma_grid": list(self.gamma_grid), "trials": self.trials,
            "seed": self.seed, "jitter_sigma": self.jitter_sigma,
            "allocation": self.allocation.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = checked_keys(cls, data, nullable=("allocation",))
        allocation = data.pop("allocation", None)
        if allocation is not None:
            allocation = AllocationConfig.from_dict(allocation)
        else:
            allocation = default_allocation()
        return cls(allocation=allocation, **data)


# "full" is a large, slow configuration; "desk" keeps runs interactive.
# Override `a` freely: the anchor sample count is a free parameter.
PROFILES = {
    "full": dict(p=500, rho=0.35, a=150, o=60, trials=3),
    "desk": dict(p=40, rho=0.35, a=60, o=30, trials=20),
}


@dataclass
class TrialRow:
    trial: int
    gamma: float
    oos_variance: float
    normalized: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[TrialRow]
    errors: list[tuple[int, str]] = field(default_factory=list)


def _run_trial(config: ExperimentConfig, trial: int) -> list[TrialRow]:
    # Per-trial stream so trials are order-independent and parallelizable.
    rng = np.random.default_rng([config.seed, trial])
    anchor = rand_symm_cov(config.p, config.rho, rng, jitter_sigma=config.jitter_sigma)
    sigma_true = empirical_covariance(sample_gaussian(anchor, config.a, rng))
    sigma_est = empirical_covariance(sample_gaussian(sigma_true, config.o, rng))

    by_gamma = {}
    for gamma in config.gamma_grid:
        report = allocate(sigma_est, config.allocation.with_gamma(gamma))
        by_gamma[gamma] = portfolio_variance(sigma_true, report.weights)
    base = by_gamma[0.0]
    return [
        TrialRow(trial=trial, gamma=g, oos_variance=v, normalized=v / base)
        for g, v in sorted(by_gamma.items())
    ]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    rows: list[TrialRow] = []
    errors: list[tuple[int, str]] = []
    for trial in range(config.trials):
        try:
            rows.extend(_run_trial(config, trial))
        except SchurAllocError as exc:
            errors.append((trial, f"{type(exc).__name__}: {exc}"))
    return ExperimentResult(config=config, rows=rows, errors=errors)


def summarize(result: ExperimentResult) -> list[dict]:
    """Per-gamma mean, median and 10/90 quantiles of normalized variance."""
    if not result.rows:
        raise EmptyResult("experiment produced no rows")
    by_gamma: dict[float, list[float]] = {}
    for row in result.rows:
        by_gamma.setdefault(row.gamma, []).append(row.normalized)
    summary = []
    for gamma in sorted(by_gamma):
        vals = np.asarray(by_gamma[gamma])
        summary.append({
            "gamma": gamma,
            "mean": float(vals.mean()),
            "median": float(np.median(vals)),
            "q10": float(np.quantile(vals, 0.10)),
            "q90": float(np.quantile(vals, 0.90)),
        })
    return summary


def write_result_csv(result: ExperimentResult, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trial", "gamma", "oos_variance", "normalized"])
        for row in result.rows:
            writer.writerow([row.trial, f"{row.gamma:.17g}",
                             f"{row.oos_variance:.17g}", f"{row.normalized:.17g}"])


def write_summary_csv(summary: list[dict], path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["gamma", "mean", "median", "q10", "q90"])
        for row in summary:
            writer.writerow([f"{row[key]:.17g}"
                             for key in ("gamma", "mean", "median", "q10", "q90")])


def write_summary_svg(summary: list[dict], path,
                      width: int = 640, height: int = 400) -> None:
    """Minimal line chart of mean normalized variance versus gamma."""
    if not summary:
        raise EmptyResult("nothing to plot")
    xs = [row["gamma"] for row in summary]
    ys = [row["mean"] for row in summary]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    pad = 50

    def sx(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="2"/>',
    ]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>')
        parts.append(
            f'<text x="{sx(x):.2f}" y="{height - pad + 20}" font-size="12" '
            f'text-anchor="middle">{x:g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 10}" font-size="13" '
        'text-anchor="middle">gamma</text>'
    )
    parts.append(
        f'<text x="15" y="{height / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 15 {height / 2:.0f})">mean normalized variance</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as handle:
        handle.write("\n".join(parts))
