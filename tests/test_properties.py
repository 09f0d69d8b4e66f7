"""Property tests for `allocate` on hard inputs: rank-deficient sample
covariances (T < n), per-asset scales spread over 10^-6..10^6 and
near-duplicate assets. Every call ends in finite weights that sum to 1 or in
a typed error, gamma = 0 is HRP bit for bit, and relabelling the assets
relabels the weights bit for bit. On well-conditioned sample covariances,
gamma = 1 with the cap off is the minimum-variance portfolio."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_alloc import AllocationConfig, allocate
from schur_alloc.errors import SchurAllocError
from schur_alloc.sim import default_allocation


def t_lt_n(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.cov(rng.standard_normal((int(rng.integers(3, n)), n)), rowvar=False)


def ill_scaled(rng: np.random.Generator, n: int) -> np.ndarray:
    vol = 10.0 ** rng.uniform(-6.0, 6.0, n)
    cov = np.cov(rng.standard_normal((int(rng.integers(3, 2 * n)), n)), rowvar=False)
    return cov * np.outer(vol, vol)


def near_duplicate(rng: np.random.Generator, n: int) -> np.ndarray:
    # a quarter of the assets repeat another one plus noise of scale 1e-8..1e-3
    x = rng.standard_normal((3 * n, n))
    copies = rng.choice(n, size=max(1, n // 4), replace=False)
    noise = 10.0 ** rng.uniform(-8.0, -3.0)
    x[:, copies] = x[:, rng.choice(n, size=copies.size)] + noise * rng.standard_normal(
        (3 * n, copies.size))
    return np.cov(x, rowvar=False)


CONFIGS = {"default": AllocationConfig(), "paper": default_allocation()}


def outcome(cov: np.ndarray, config: AllocationConfig):
    """The weights, or the type of the SchurAllocError raised; anything else propagates."""
    try:
        return allocate(cov, config).weights
    except SchurAllocError as exc:
        return type(exc)


@given(seed=st.integers(0, 2**32 - 1),
       make=st.sampled_from([t_lt_n, ill_scaled, near_duplicate]),
       n=st.integers(6, 24),
       terminal_size=st.sampled_from([1, 5]),
       adaptive_cap=st.booleans(),
       config=st.sampled_from(sorted(CONFIGS)))
@settings(max_examples=100, deadline=None)
def test_hard_inputs_end_in_weights_or_typed_error(seed, make, n, terminal_size, adaptive_cap,
                                                   config):
    cov = make(np.random.default_rng(seed), n)
    cfg = replace(CONFIGS[config], terminal_size=terminal_size, adaptive_cap=adaptive_cap)
    results = {gamma: outcome(cov, cfg.with_gamma(gamma)) for gamma in (0.0, 0.5, 1.0)}
    for result in results.values():
        if isinstance(result, np.ndarray):
            assert np.all(np.isfinite(result))
            assert abs(result.sum() - 1.0) <= 1e-9
    hrp = outcome(cov, replace(cfg, mode="hrp"))
    if isinstance(hrp, np.ndarray):
        np.testing.assert_array_equal(results[0.0], hrp, strict=True)
    else:
        assert results[0.0] is hrp


@given(seed=st.integers(0, 2**32 - 1),
       make=st.sampled_from([t_lt_n, ill_scaled, near_duplicate]),
       n=st.integers(6, 24),
       terminal_size=st.sampled_from([1, 5]),
       adaptive_cap=st.booleans(),
       config=st.sampled_from(sorted(CONFIGS)))
@settings(max_examples=100, deadline=None)
def test_permutation_equivariance(seed, make, n, terminal_size, adaptive_cap, config):
    rng = np.random.default_rng(seed)
    cov = make(rng, n)
    perm = rng.permutation(n)
    cfg = replace(CONFIGS[config], terminal_size=terminal_size, adaptive_cap=adaptive_cap)
    for gamma in (0.0, 0.5, 1.0):
        original = outcome(cov, cfg.with_gamma(gamma))
        relabelled = outcome(cov[np.ix_(perm, perm)], cfg.with_gamma(gamma))
        if isinstance(original, np.ndarray):
            np.testing.assert_array_equal(relabelled, original[perm], strict=True)
        else:
            assert relabelled is original


@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(6, 24),
       terminal_size=st.sampled_from([1, 2, 5]))
@settings(max_examples=100, deadline=None)
def test_exact_minimum_variance_at_gamma_one(seed, n, terminal_size):
    cov = np.cov(np.random.default_rng(seed).standard_normal((3 * n, n)), rowvar=False)
    cfg = AllocationConfig(gammas=1.0, fitness="minvar_variance", terminal="minvar",
                           terminal_size=terminal_size, adaptive_cap=False)
    x = np.linalg.solve(cov, np.ones(n))
    np.testing.assert_allclose(allocate(cov, cfg).weights, x / x.sum(), rtol=0.0, atol=1e-12)
