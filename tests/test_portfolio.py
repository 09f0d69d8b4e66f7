import numpy as np
import pytest

from schur_alloc import (
    allocate_exact,
    fitness,
    min_var_general,
    min_var_unit,
    portfolio_variance,
    weak_shrink,
)
from schur_alloc.errors import (
    DegenerateConstraint,
    DimensionMismatch,
    InputError,
    NumericalError,
    SingularCovariance,
    ZeroNormalizer,
)
from schur_alloc.seriation import Permutation, permute_matrix, permute_vector

from conftest import UNSTABLE_MINVAR, equicorrelated, random_pd


class TestMinVarUnit:
    def test_identity(self):
        np.testing.assert_allclose(min_var_unit(np.eye(3)), np.full(3, 1 / 3))

    def test_equicorrelated_is_equal_weight(self):
        for rho in (-0.3, 0.0, 0.5, 0.9):
            np.testing.assert_allclose(
                min_var_unit(equicorrelated(3, rho)), np.full(3, 1 / 3), atol=1e-12
            )

    def test_unstable_reference(self, unstable_4x4):
        np.testing.assert_allclose(min_var_unit(unstable_4x4), UNSTABLE_MINVAR, atol=1e-3)

    def test_singular_rejected(self):
        with pytest.raises(SingularCovariance):
            min_var_unit(np.ones((2, 2)))

    def test_scale_invariant(self):
        rng = np.random.default_rng(0)
        cov = random_pd(rng, 5)
        np.testing.assert_allclose(min_var_unit(cov), min_var_unit(3.7 * cov), atol=1e-12)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(1)
        cov = random_pd(rng, 6)
        w = min_var_unit(cov)
        for _ in range(5):
            perm = Permutation(tuple(rng.permutation(6).tolist()))
            np.testing.assert_allclose(
                min_var_unit(permute_matrix(cov, perm)), permute_vector(w, perm),
                atol=1e-12,
            )

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(2)
        for n in range(2, 9):
            cov = random_pd(rng, n)
            inv = np.linalg.inv(cov)
            brute = inv @ np.ones(n) / (np.ones(n) @ inv @ np.ones(n))
            np.testing.assert_allclose(min_var_unit(cov), brute, atol=1e-8)


class TestMinVarGeneral:
    def test_identity_unit_budget(self):
        sol = min_var_general(np.eye(4), np.ones(4))
        np.testing.assert_allclose(sol.weights, np.full(4, 0.25))
        assert sol.fitness == pytest.approx(0.25)

    def test_two_asset_half_budget(self):
        q = np.array([[0.75, 0.25], [0.25, 0.75]])
        sol = min_var_general(q, np.array([0.5, 0.5]))
        np.testing.assert_allclose(sol.values, [0.5, 0.5])
        assert sol.fitness == pytest.approx(2.0)
        np.testing.assert_allclose(sol.weights, [1.0, 1.0])

    def test_unit_budget_reduces_to_min_var_unit(self):
        rng = np.random.default_rng(3)
        cov = random_pd(rng, 5)
        sol = min_var_general(cov, np.ones(5))
        np.testing.assert_allclose(sol.weights, min_var_unit(cov), atol=1e-12)

    def test_values_equal_weights_over_fitness(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            cov = random_pd(rng, 4)
            b = rng.standard_normal(4) + 2.0
            sol = min_var_general(cov, b)
            np.testing.assert_allclose(sol.values * sol.fitness, sol.weights, atol=1e-10)
            assert sol.weights @ b == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            min_var_general(np.eye(3), np.ones(2))


class TestPortfolioVariance:
    def test_identity(self):
        w = np.array([0.2, 0.3, 0.5])
        assert portfolio_variance(np.eye(3), w) == pytest.approx((w**2).sum())

    def test_equicorrelated_equal_weights(self):
        w = np.full(3, 1 / 3)
        assert portfolio_variance(equicorrelated(3, 0.5), w) == pytest.approx(2 / 3)

    def test_single_asset_weight(self):
        cov = equicorrelated(3, 0.2) * 1.7
        w = np.array([1.0, 0.0, 0.0])
        assert portfolio_variance(cov, w) == pytest.approx(cov[0, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            portfolio_variance(np.eye(3), np.ones(4))


class TestFitness:
    def test_subportfolio_variance(self):
        cov = equicorrelated(2, 0.4)
        nu = fitness(cov, "subportfolio_variance", child_weights=np.array([0.5, 0.5]))
        assert nu == pytest.approx((1 + 0.4) / 2)

    def test_subportfolio_requires_weights(self):
        with pytest.raises(InputError):
            fitness(np.eye(2), "subportfolio_variance")

    def test_minvar_variance_identity(self):
        assert fitness(np.eye(5), "minvar_variance") == pytest.approx(0.2)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            fitness(np.eye(2), "sharpe")

    def test_large_units_keep_every_verdict(self):
        # a dollar covariance (sigma ~ $10M) solves to |x| ~ 1e-14: the budget tests
        # compare |1' x| with DEFAULT_RCOND * sum|x|, so no absolute floor rejects it
        rng = np.random.default_rng(22)
        for _ in range(30):
            cov = random_pd(rng, int(rng.integers(2, 9)))
            big = 1e14 * cov
            shrunk, shrunk_big = weak_shrink(cov), weak_shrink(big)
            assert shrunk_big.xi == shrunk.xi
            np.testing.assert_allclose(shrunk_big.weights, shrunk.weights, rtol=0, atol=1e-12)
            np.testing.assert_allclose(min_var_unit(big), min_var_unit(cov), rtol=0, atol=1e-12)
            nu = fitness(cov, "minvar_variance")
            assert fitness(big, "minvar_variance") == pytest.approx(1e14 * nu, rel=1e-12)

    def test_scaling_behaviour(self):
        rng = np.random.default_rng(5)
        cov = random_pd(rng, 4)
        w = np.full(4, 0.25)
        c = 2.5
        assert fitness(c * cov, "subportfolio_variance", child_weights=w) == pytest.approx(
            c * fitness(cov, "subportfolio_variance", child_weights=w)
        )
        assert fitness(c * cov, "minvar_variance") == pytest.approx(
            c * fitness(cov, "minvar_variance")
        )
        assert fitness(c * cov, "weak_minvar_variance") == pytest.approx(
            c * fitness(cov, "weak_minvar_variance")
        )


@pytest.mark.parametrize("solve, expected", [
    (min_var_unit, ZeroNormalizer),
    (lambda q: fitness(q, "minvar_variance"), ZeroNormalizer),
    (lambda q: min_var_general(q, np.ones(2)), DegenerateConstraint),
    (allocate_exact, NumericalError),
], ids=["min_var_unit", "fitness", "min_var_general", "allocate_exact"])
def test_vanishing_budget_raises(solve, expected):
    # diag(1, -1) is well conditioned, but its solution x = (1, -1) has b'x = 0
    with pytest.raises(NumericalError) as excinfo:
        solve(np.diag([1.0, -1.0]))
    assert excinfo.type is expected
