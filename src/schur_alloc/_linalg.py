"""Internal solve helpers with an explicit conditioning guard.

The guard expects a symmetric matrix. Its singular values are then the
magnitudes of its eigenvalues, so one `eigvalsh` gives the verdict an SVD
would, at a fraction of the cost. Every caller passes a symmetric matrix:
a complementary block, an augmented matrix A'', a terminal block, or a
validated or symmetrized input.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# Solves are rejected when the reciprocal condition number falls below this; the
# budget tests, weak shrinkage's grid-point test and the cap's certificates read it too.
DEFAULT_RCOND = 1e-12


def check_conditioning(matrix: np.ndarray,
                       exc: type[NumericalError] = NumericalError) -> None:
    """Raise `exc` when |lambda|_min / |lambda|_max < DEFAULT_RCOND, or when |lambda|_max
    is zero, NaN or subnormal: a ratio test, so Sigma and c * Sigma get one verdict
    at every size, and a 1x1 matrix that passes has a finite reciprocal.

    `matrix` must be symmetric; only its lower triangle is read.
    """
    magnitudes = np.abs(np.linalg.eigvalsh(matrix))
    largest, smallest = magnitudes.max(), magnitudes.min()
    if not largest >= np.finfo(float).tiny or smallest / largest < DEFAULT_RCOND:
        raise exc(
            f"matrix is singular or ill-conditioned (rcond ~ "
            f"{smallest / max(largest, np.finfo(float).tiny):.2e})"
        )


def checked_solve(matrix: np.ndarray, rhs: np.ndarray,
                  exc: type[NumericalError] = NumericalError) -> np.ndarray:
    """Solve matrix @ x = rhs for a symmetric matrix, raising `exc` on singular or
    ill-conditioned input."""
    matrix = np.asarray(matrix, dtype=float)
    check_conditioning(matrix, exc)
    return _solve(matrix, rhs, exc)


def _solve(matrix: np.ndarray, rhs: np.ndarray, exc: type[NumericalError]) -> np.ndarray:
    """Solve matrix @ x = rhs for a float matrix that passed check_conditioning."""
    if matrix.shape[0] == 1:
        return np.asarray(rhs, dtype=float) / matrix[0, 0]
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as err:
        raise exc(str(err))


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """(matrix + matrix.T) / 2.0, halved in the one new array that holds the sum."""
    out = matrix + matrix.T
    out /= 2.0
    return out
