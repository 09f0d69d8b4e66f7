import warnings

import numpy as np
import pytest

from schur_alloc._linalg import DEFAULT_RCOND, check_conditioning, checked_solve, symmetrize
from schur_alloc.errors import NumericalError, SingularCovariance


def _reference_check_conditioning(matrix, exc=NumericalError):
    """The SVD guard that the eigenvalue guard replaced, for n >= 2."""
    singular_values = np.linalg.svd(matrix, compute_uv=False)
    if singular_values[0] <= 0.0 or singular_values[-1] / singular_values[0] < DEFAULT_RCOND:
        raise exc("matrix is singular or ill-conditioned")


def verdict(guard, matrix) -> bool:
    try:
        guard(matrix, NumericalError)
    except NumericalError:
        return False
    return True


def ill_conditioned_corpus(seed: int, per_kind: int):
    """(kind, symmetric matrix) with condition numbers between 1e10 and 1e14, n in 2..200,
    each kind scaled by 1e-6, 1 and 1e6."""
    rng = np.random.default_rng(seed)

    def orthogonal(n):
        return np.linalg.qr(rng.standard_normal((n, n)))[0]

    def spectrum(n, kappa, signs):
        q = orthogonal(n)
        return symmetrize((q * (signs * np.geomspace(1.0, 1.0 / kappa, n))) @ q.T)

    def pd(n, kappa):
        return spectrum(n, kappa, np.ones(n))

    def indefinite(n, kappa):
        signs = rng.choice([-1.0, 1.0], n)
        signs[int(rng.integers(n))] = -1.0
        return spectrum(n, kappa, signs)

    def ridge(n, kappa):
        # a full-rank Gram matrix shifted so that (top + delta) / (bottom + delta) = kappa
        m = rng.standard_normal((n, n))
        gram = m @ m.T
        lam = np.linalg.eigvalsh(gram)
        delta = (lam[-1] - kappa * lam[0]) / (kappa - 1.0)
        return symmetrize(gram + delta * np.eye(n))

    def t_lt_n(n, kappa):
        # a rank-deficient sample covariance whose null space is lifted to top / kappa
        x = rng.standard_normal((max(1, n // 2), n))
        cov = x.T @ x / x.shape[0]
        return symmetrize(cov + np.linalg.eigvalsh(cov)[-1] / (kappa - 1.0) * np.eye(n))

    def near_duplicate(n, kappa):
        # asset n-1 repeats asset 0 plus independent noise of variance ~ top / kappa
        base = pd(n - 1, 10.0)
        cov = np.empty((n, n))
        cov[:-1, :-1] = base
        cov[-1, :-1] = cov[:-1, -1] = base[0]
        cov[-1, -1] = base[0, 0] + 2.0 * np.linalg.eigvalsh(base)[-1] / kappa
        return cov

    makers = {"pd": pd, "indefinite": indefinite, "ridge": ridge, "t_lt_n": t_lt_n,
              "near_duplicate": near_duplicate}
    for kind, make in makers.items():
        for _ in range(per_kind):
            n = int(rng.integers(2, 201))
            matrix = make(n, 10.0 ** rng.uniform(10.0, 14.0))
            for scale in (1e-6, 1.0, 1e6):
                yield kind, scale * matrix


class TestCheckConditioning:
    def test_matches_svd_guard_off_the_boundary(self):
        # the eigenvalue and SVD ratios differ by rounding alone, so a verdict
        # may differ only where sigma_min / sigma_max lies within 1% of rcond
        verdicts = set()
        for kind, matrix in ill_conditioned_corpus(31, 14):
            ok = verdict(check_conditioning, matrix)
            verdicts.add(ok)
            if ok != verdict(_reference_check_conditioning, matrix):
                singular_values = np.linalg.svd(matrix, compute_uv=False)
                ratio = singular_values[-1] / singular_values[0]
                assert abs(ratio / DEFAULT_RCOND - 1.0) <= 0.01, (kind, matrix.shape, ratio)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("pivot, ok", [(1e-12, True), (-1e-12, True), (0.0, False),
                                           (2e-12, True), (-2e-12, True), (1e-300, True),
                                           (np.nan, False), (1e-310, False), (5e-324, False)])
    def test_one_by_one_pivot(self, pivot, ok):
        # a 1x1 ratio is 1 at any scale: only a zero, NaN or subnormal pivot fails, so
        # the division by an accepted pivot stays finite and warns of nothing
        matrix = np.array([[pivot]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verdict(check_conditioning, matrix) == ok
            if ok:
                x = checked_solve(matrix, np.ones(1))
                assert x[0] == 1.0 / pivot and np.isfinite(x[0])

    @pytest.mark.parametrize("matrix", [np.zeros((3, 3)), np.ones((4, 4)),
                                        np.array([[1.0, 2.0], [2.0, 4.0]])])
    def test_singular_rejected(self, matrix):
        with pytest.raises(SingularCovariance, match="singular or ill-conditioned"):
            checked_solve(matrix, np.ones(matrix.shape[0]), exc=SingularCovariance)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_nan_rejected(self, entry):
        # eigvalsh returns NaNs where the SVD did not converge; neither may pass
        matrix = np.eye(3)
        matrix[entry] = matrix[entry[::-1]] = np.nan
        with pytest.raises(SingularCovariance):
            check_conditioning(matrix, exc=SingularCovariance)
        with pytest.raises(np.linalg.LinAlgError):
            _reference_check_conditioning(matrix)
