import tracemalloc

import numpy as np
import pytest

from schur_alloc import (
    CovarianceMatrix,
    allocate,
    empirical_covariance,
    is_positive_definite,
    rand_symm_cov,
    sample_gaussian,
)
from schur_alloc.covmat import (
    SYMMETRY_RTOL,
    read_matrix_csv,
    read_returns_csv,
    write_matrix_csv,
)
from schur_alloc.errors import (
    DimensionMismatch,
    InvalidRho,
    NonFiniteInput,
    NotPSD,
    TooFewSamples,
)

from conftest import equicorrelated, random_pd


class TestCovarianceMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            CovarianceMatrix(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatch):
            CovarianceMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    @pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-13, 1e-200])
    def test_asymmetry_rejected_at_any_scale(self, scale):
        # the tolerance is relative to the largest entry, with no floor at unit scale
        with pytest.raises(DimensionMismatch):
            allocate(scale * np.array([[1.0, 0.5], [0.2, 2.0]]))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_exact_symmetry_accepted_at_any_scale(self, scale):
        weights = allocate(scale * np.array([[1.0, 0.5], [0.5, 2.0]])).weights
        np.testing.assert_allclose(weights, [0.75, 0.25], rtol=0, atol=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteInput):
            CovarianceMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_label_count_checked(self):
        with pytest.raises(DimensionMismatch):
            CovarianceMatrix(np.eye(2), labels=["a"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_anywhere_rejected(self, bad):
        for i, j in ((0, 0), (0, 4), (4, 0), (2, 3)):
            values = np.eye(5) + 0.25
            values[i, j] = bad
            with pytest.raises(NonFiniteInput):
                CovarianceMatrix(values)

    def test_symmetry_verdict_unchanged(self):
        # the verdict of |v_ij - v_ji| > SYMMETRY_RTOL * max |v|, taken as one dense pass
        rng = np.random.default_rng(31)
        verdicts = []
        for _ in range(200):
            n = int(rng.integers(1, 60))
            values = random_pd(rng, n) * 10.0 ** rng.uniform(-100.0, 100.0)
            values *= rng.choice([-1.0, 1.0])
            i, j = rng.integers(0, n, 2)
            values[i, j] += float(rng.choice([-1.0, 1.0])) * SYMMETRY_RTOL \
                * np.abs(values).max() * float(rng.choice([0.5, 0.999, 1.001, 2.0]))
            dense = bool(np.abs(values - values.T).max() > SYMMETRY_RTOL * np.abs(values).max())
            try:
                CovarianceMatrix(values)
                rejected = False
            except DimensionMismatch:
                rejected = True
            assert rejected == dense
            verdicts.append(dense)
        assert any(verdicts) and not all(verdicts)

    def test_validation_holds_one_square_temporary(self):
        values = random_pd(np.random.default_rng(32), 1000)
        tracemalloc.start()
        try:
            CovarianceMatrix(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= values.nbytes + 2 ** 20      # v - v' and O(n) more, not 3 n x n arrays


class TestEmpiricalCovariance:
    def test_hand_computed_two_columns(self):
        panel = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        cov = empirical_covariance(panel)
        np.testing.assert_allclose(cov.values, [[4.0 / 3.0, 0.0], [0.0, 0.0]])

    def test_constant_column_gives_zero_row(self):
        rng = np.random.default_rng(0)
        panel = rng.standard_normal((50, 3))
        panel[:, 1] = 7.25
        cov = empirical_covariance(panel).values
        assert np.all(cov[1] == 0.0)
        assert np.all(cov[:, 1] == 0.0)

    def test_duplicate_columns_symmetric(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(30)
        cov = empirical_covariance(np.column_stack([col, col])).values
        assert cov[0, 0] == cov[1, 1] == cov[0, 1]

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            empirical_covariance(np.ones((1, 3)))

    def test_non_finite(self):
        with pytest.raises(NonFiniteInput):
            empirical_covariance(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_output_is_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            panel = rng.standard_normal((rng.integers(2, 30), rng.integers(1, 8)))
            cov = empirical_covariance(panel).values
            assert np.linalg.eigvalsh(cov).min() > -1e-10


class TestRandSymmCov:
    def test_dim_one(self):
        cov = rand_symm_cov(1, 0.9, np.random.default_rng(0))
        np.testing.assert_array_equal(cov.values, [[1.0]])

    def test_equicorrelation_structure(self):
        cov = rand_symm_cov(3, 0.35, np.random.default_rng(0)).values
        off = cov[~np.eye(3, dtype=bool)]
        assert off.mean() == pytest.approx(0.35)
        assert np.linalg.eigvalsh(cov).min() > 0.0

    def test_rho_zero_is_identity(self):
        cov = rand_symm_cov(4, 0.0, np.random.default_rng(0)).values
        np.testing.assert_array_equal(cov, np.eye(4))

    def test_unit_diagonal_and_min_eigenvalue(self):
        for dim, rho in [(2, 0.5), (5, 0.9), (10, 0.1)]:
            cov = rand_symm_cov(dim, rho, np.random.default_rng(0)).values
            np.testing.assert_array_equal(np.diag(cov), np.ones(dim))
            assert np.linalg.eigvalsh(cov).min() == pytest.approx(1.0 - rho)

    def test_invalid_rho(self):
        with pytest.raises(InvalidRho):
            rand_symm_cov(3, -0.6, np.random.default_rng(0))
        with pytest.raises(InvalidRho):
            rand_symm_cov(3, 1.0, np.random.default_rng(0))

    def test_jitter_keeps_symmetry(self):
        cov = rand_symm_cov(6, 0.3, np.random.default_rng(3), jitter_sigma=0.5).values
        np.testing.assert_allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > 0.0


class TestSampleGaussian:
    def test_zero_covariance_gives_zero_samples(self):
        panel = sample_gaussian(np.zeros((3, 3)), 7, np.random.default_rng(0))
        np.testing.assert_array_equal(panel.values, np.zeros((7, 3)))

    def test_large_sample_recovers_identity(self):
        panel = sample_gaussian(np.eye(2), 100_000, np.random.default_rng(42))
        cov = empirical_covariance(panel).values
        np.testing.assert_allclose(cov, np.eye(2), atol=0.05)

    def test_deterministic_given_seed(self):
        cov = equicorrelated(4, 0.3)
        a = sample_gaussian(cov, 25, np.random.default_rng(7)).values
        b = sample_gaussian(cov, 25, np.random.default_rng(7)).values
        np.testing.assert_array_equal(a, b)

    def test_rank_deficient_psd_accepted(self):
        cov = np.ones((3, 3))  # rank one
        panel = sample_gaussian(cov, 10, np.random.default_rng(0)).values
        np.testing.assert_allclose(panel[:, 0], panel[:, 1])

    def test_indefinite_rejected(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPSD):
            sample_gaussian(cov, 5, np.random.default_rng(0))


class TestIsPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3), tol=0.0)

    def test_rank_one(self):
        assert not is_positive_definite(np.ones((2, 2)), tol=1e-12)

    def test_equicorrelated_half(self):
        # eigenvalues are 1 - rho (twice) and 1 + 2 rho
        assert is_positive_definite(equicorrelated(3, 0.5))


class TestCsv:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        cov = CovarianceMatrix(random_pd(rng, 4), labels=["a", "b", "c", "d"])
        path = tmp_path / "cov.csv"
        write_matrix_csv(path, cov)
        back = read_matrix_csv(path)
        assert back.labels == cov.labels
        np.testing.assert_array_equal(back.values, cov.values)

    def test_matrix_without_header(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("1.0,0.5\n0.5,1.0\n")
        cov = read_matrix_csv(path)
        assert cov.labels is None
        np.testing.assert_array_equal(cov.values, [[1.0, 0.5], [0.5, 1.0]])

    def test_returns_round_trip(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("x,y\n0.1,0.2\n-0.1,0.0\n0.05,0.1\n")
        panel = read_returns_csv(path)
        assert panel.labels == ["x", "y"]
        assert panel.values.shape == (3, 2)

    @pytest.mark.parametrize("reader, text", [
        (read_matrix_csv, "1,0.5\n0.5\n"),
        (read_matrix_csv, "a,b\n1,0.5\n0.5,1,0\n"),
        (read_returns_csv, "x,y\n0.1,0.2\n0.3\n0.1,0.2\n"),
    ])
    def test_ragged_rows_named(self, tmp_path, reader, text):
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        with pytest.raises(DimensionMismatch, match="row 2 of the .* data has .* row 1 has 2"):
            reader(path)

    @pytest.mark.parametrize("reader, text", [
        (read_matrix_csv, "1,0.5\n0.5,x\n"),
        (read_returns_csv, "x,y\n0.1,0.2\n0.3,?\n"),
    ])
    def test_non_numeric_entry(self, tmp_path, reader, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(NonFiniteInput, match="non-numeric"):
            reader(path)
