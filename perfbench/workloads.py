"""The three benchmark workloads. Each turns a seed into inputs and runs one
closed-loop unit at a time: the next `allocate` starts only after the
previous one returns. Every unit reports, per requested gamma, the variance
of the allocated weights under the true covariance.

Module attributes of schur_alloc are looked up at call time, so that the
tracer's replacements are the ones called.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from schur_alloc import allocator, covmat, sim
from schur_alloc.errors import SchurAllocError

# Size of the small matrices used for the warm-up call and the exactness check.
SMALL_P = 20
# Seed of the factor model behind scale_1000; run seeds only change the samples.
MODEL_SEED = 20241108


class Calls:
    """The `allocate` callable handed to a workload: times and keeps every call."""

    def __init__(self):
        self.unit = 0
        self.latencies: list[float] = []
        self.failed = 0
        self.weights: dict[tuple[int, float], np.ndarray] = {}   # (unit, gamma) -> weights
        self.first_input: np.ndarray | None = None               # unit 0, gamma 0 input

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def __call__(self, cov, config):
        start = perf_counter()
        try:
            report = allocator.allocate(cov, config)
        except SchurAllocError:
            self.failed += 1
            raise
        self.latencies.append(perf_counter() - start)
        gamma = config.gammas.gamma_c
        self.weights[(self.unit, gamma)] = report.weights
        if self.unit == 0 and gamma == 0.0:
            self.first_input = covmat.cov_values(cov)
        return report


class SimWorkload:
    """One Monte-Carlo trial of `run_experiment` per unit, with the paper's
    simulation allocation (weak_minvar fitness and terminal)."""

    def __init__(self, name, p, rho, a, o, gamma_grid, units):
        self.name = name
        self.p, self.rho, self.a, self.o = p, rho, a, o
        self.gamma_grid = gamma_grid
        self.units = units          # units always run; the quality metric uses these

    def allocation(self):
        return sim.default_allocation()

    def experiment(self, seed: int, index: int) -> sim.ExperimentConfig:
        return sim.ExperimentConfig(p=self.p, rho=self.rho, a=self.a, o=self.o,
                                    gamma_grid=self.gamma_grid, trials=1,
                                    seed=seed * 100_000 + index)

    def estimate(self, seed: int, index: int, p: int | None = None) -> np.ndarray:
        """The estimate unit `index` allocates; mirrors the trial's random stream."""
        rng = np.random.default_rng([self.experiment(seed, index).seed, 0])
        anchor = covmat.rand_symm_cov(p or self.p, self.rho, rng)
        true = covmat.empirical_covariance(covmat.sample_gaussian(anchor, self.a, rng))
        return covmat.empirical_covariance(covmat.sample_gaussian(true, self.o, rng)).values

    def run_unit(self, seed: int, index: int, call: Calls) -> dict[float, float]:
        saved = sim.allocate
        sim.allocate = call
        try:
            result = sim.run_experiment(self.experiment(seed, index))
        finally:
            sim.allocate = saved
        return {row.gamma: row.oos_variance for row in result.rows}


class FactorWorkload:
    """Sample covariances of T = 3n draws from a k-factor model, allocated at
    gamma 0 and gamma 1 with the default `AllocationConfig`."""

    def __init__(self, name, n, factors, units):
        self.name = name
        self.n, self.factors = n, factors
        self.units = units
        self.gamma_grid = (0.0, 1.0)

    def allocation(self):
        return allocator.AllocationConfig()

    def model(self, n: int) -> np.ndarray:
        """The true covariance: fixed for the workload, the same for every seed."""
        rng = np.random.default_rng([MODEL_SEED, n])
        loadings = rng.normal(0.0, 0.25, (n, self.factors))
        loadings[:, 0] += 0.6                       # market factor
        true = loadings @ loadings.T + np.diag(rng.uniform(0.2, 0.6, n))
        return (true + true.T) / 2.0

    def matrices(self, seed: int, index: int, n: int | None = None):
        """(true covariance, sample covariance of unit `index`)."""
        true = self.model(n or self.n)
        rng = np.random.default_rng([seed, index])
        sample = covmat.sample_gaussian(true, 3 * len(true), rng)
        return true, covmat.empirical_covariance(sample).values

    def estimate(self, seed: int, index: int, p: int | None = None) -> np.ndarray:
        return self.matrices(seed, index, p)[1]

    def run_unit(self, seed: int, index: int, call: Calls) -> dict[float, float]:
        true, est = self.matrices(seed, index)
        out = {}
        for gamma in self.gamma_grid:
            try:
                weights = call(est, self.allocation().with_gamma(gamma)).weights
            except SchurAllocError:
                continue
            out[gamma] = float(weights @ true @ weights)
        return out


DESK = dict(p=40, rho=0.35, a=60, o=30)

WORKLOADS = {
    "desk_sweep": SimWorkload("desk_sweep", **DESK,
                              gamma_grid=(0.0, 0.25, 0.5, 0.75, 1.0), units=15),
    "scale_1000": FactorWorkload("scale_1000", n=1000, factors=10, units=2),
    "rankdef_250": SimWorkload("rankdef_250", p=250, rho=0.35, a=150, o=60,
                               gamma_grid=(0.0, 1.0), units=2),
}

# Normalized gamma = 1 out-of-sample variance of desk_sweep's unit 0 at
# seed 0 (trial 0 of the paper's desk experiment), recorded with OpenBLAS
# pinned to one thread.
DESK_REFERENCE_SEED = 0
DESK_REFERENCE_RATIO = 1.0145163315522279
