"""Weak adaptive shrinkage: scale off-diagonal mass by xi, picking the xi
that minimizes the original-covariance variance of the long-only-clipped
minimum-variance portfolio."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import DEFAULT_RCOND, symmetrize
from .covmat import cov_values
from .errors import AllNonPositive, NoFeasibleXi, XiOutOfRange, ZeroVariance

# Grid resolution for the xi search. 0.001 resolves the reference 4x4
# example's true minimizer (0.976); a 0.005 grid misses it.
DEFAULT_GRID_STEP = 0.001
# Finest grid accepted: at most 10,001 points. The grid is solved in chunks,
# so this bounds time, not memory.
MIN_GRID_STEP = 1e-4
# Entries per chunk of grid points (rows x n): each chunk's arrays stay cache-sized.
_GRID_CHUNK = 2**15


@dataclass
class ShrinkageResult:
    xi: float
    shrunk: np.ndarray
    weights: np.ndarray          # min-var weights of the shrunk matrix (may be slightly short)
    clipped_variance: float      # variance of the clipped weights under the ORIGINAL matrix
    # rows (xi, clipped variance) of the grid points that solved, and the xi of those that did not
    curve: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    skipped: np.ndarray = field(default_factory=lambda: np.empty(0))


def scale_off_diagonal(cov, xi: float) -> np.ndarray:
    """xi * Sigma + (1 - xi) * diag(Sigma): diagonal untouched, off-diagonal scaled."""
    values = cov_values(cov)
    if not (0.0 <= xi <= 1.0):
        raise XiOutOfRange(f"xi={xi} outside [0, 1]")
    return _scale_off_diagonal(values, xi)


def _scale_off_diagonal(values: np.ndarray, xi: float) -> np.ndarray:
    """`scale_off_diagonal` of validated values and an xi in [0, 1]."""
    return xi * values + (1.0 - xi) * np.diag(np.diag(values))


def long_only_clip(weights) -> np.ndarray:
    """Zero out short positions and renormalize the surviving weights to sum 1."""
    weights = np.asarray(weights, dtype=float)
    clipped = np.where(weights > 0.0, weights, 0.0)
    total = clipped.sum()
    if total <= 0.0:
        raise AllNonPositive("no positive weight to renormalize")
    return clipped / total


def weak_shrink(cov, grid_step: float = DEFAULT_GRID_STEP,
                rcond: float = DEFAULT_RCOND) -> ShrinkageResult:
    """Grid-search xi in [0, 1]; ties broken toward smaller xi.

    At each xi the min-var portfolio of the shrunk matrix is clipped long-only
    and its variance is judged by the original matrix. With s = sqrt(diag) and
    the correlation matrix R = S^-1 Sigma S^-1 = Q diag(lambda) Q', the shrunk
    matrix is S Q diag(1 - xi + xi * lambda) Q' S, so one eigendecomposition
    of R solves every grid point. A grid point is skipped and recorded when
    the spectrum 1 - xi + xi * lambda has min|.| / max|.| below `rcond` (a
    conditioning test on the correlation form, blind to the variances'
    scale), when its x = shrunk^-1 1 has |1' x| <= rcond * sum|x| (a ratio
    that reads no units either), or when it has no positive weight. The grid
    is solved and scored in chunks of `_GRID_CHUNK` entries, so memory is
    O(n^2 + 2^15) whatever the step.
    """
    if not (MIN_GRID_STEP <= grid_step <= 1.0):
        raise XiOutOfRange(f"grid_step={grid_step!r} outside [MIN_GRID_STEP={MIN_GRID_STEP}, 1]")
    values = cov_values(cov)
    variances_diag = np.diag(values)
    if variances_diag.min() <= 0.0:
        raise ZeroVariance("weak shrinkage needs strictly positive variances")
    steps = int(round(1.0 / grid_step))
    grid = np.linspace(0.0, 1.0, steps + 1)

    s = np.sqrt(variances_diag)
    lam, q = np.linalg.eigh(symmetrize(values / np.outer(s, s)))
    u = q.T @ (1.0 / s)
    valid = np.zeros(grid.size, dtype=bool)
    variances = np.full(grid.size, np.nan)
    best, best_weights = -1, None
    rows = max(1, _GRID_CHUNK // s.size)
    for first in range(0, grid.size, rows):
        chunk = slice(first, first + rows)
        g = grid[chunk, None]
        # each row ascends (eigh's lambda ascends, xi >= 0), so its ends give max|.|
        # and, unless the row changes sign, min|.|
        spec = (1.0 - g) + g * lam
        lo, hi = spec[:, 0], spec[:, -1]
        small = np.where(lo > 0.0, lo, -hi)
        cross = (lo <= 0.0) & (hi >= 0.0)
        small[cross] = np.abs(spec[cross]).min(axis=1)
        ok = small >= rcond * np.maximum(-lo, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = ((u / spec) @ q.T) / s
            denom = x.sum(axis=1)
            ok &= np.isfinite(denom) & (np.abs(denom) > rcond * np.abs(x).sum(axis=1))
            weights = np.where(ok[:, None], x / denom[:, None], np.nan)
            clipped = np.where(weights > 0.0, weights, 0.0)
            mass = clipped.sum(axis=1)
            ok &= mass > 0.0
            clipped = clipped / mass[:, None]
        var = ((clipped @ values) * clipped).sum(axis=1)
        valid[chunk], variances[chunk] = ok, var
        local = int(np.argmin(np.where(ok, var, np.inf)))
        if ok[local] and (best < 0 or var[local] < variances[best]):
            best, best_weights = first + local, x[local] / denom[local]

    if best < 0:
        raise NoFeasibleXi("minimum-variance solve failed at every grid point")
    xi = float(grid[best])
    return ShrinkageResult(
        xi=xi,
        shrunk=_scale_off_diagonal(values, xi),
        weights=best_weights,
        clipped_variance=float(variances[best]),
        curve=np.column_stack((grid[valid], variances[valid])),
        skipped=grid[~valid],
    )
