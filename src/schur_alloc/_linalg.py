"""Internal solve helpers with an explicit conditioning guard."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# Solves are rejected when the reciprocal condition number falls below this.
DEFAULT_RCOND = 1e-12


def check_conditioning(matrix: np.ndarray, rcond: float = DEFAULT_RCOND,
                       exc: type[NumericalError] = NumericalError) -> None:
    """Raise `exc` on a 1x1 pivot |p| <= rcond, or on sigma_min / sigma_max < rcond."""
    if matrix.shape[0] == 1:
        if abs(matrix[0, 0]) <= rcond:
            raise exc("1x1 system with near-zero pivot")
        return
    singular_values = np.linalg.svd(matrix, compute_uv=False)
    if singular_values[0] <= 0.0 or singular_values[-1] / singular_values[0] < rcond:
        raise exc(
            f"matrix is singular or ill-conditioned (rcond ~ "
            f"{singular_values[-1] / max(singular_values[0], np.finfo(float).tiny):.2e})"
        )


def checked_solve(matrix: np.ndarray, rhs: np.ndarray,
                  rcond: float = DEFAULT_RCOND,
                  exc: type[NumericalError] = NumericalError) -> np.ndarray:
    """Solve matrix @ x = rhs, raising `exc` on singular or ill-conditioned input."""
    matrix = np.asarray(matrix, dtype=float)
    check_conditioning(matrix, rcond, exc)
    if matrix.shape[0] == 1:
        return np.asarray(rhs, dtype=float) / matrix[0, 0]
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as err:
        raise exc(str(err))


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    return (matrix + matrix.T) / 2.0
