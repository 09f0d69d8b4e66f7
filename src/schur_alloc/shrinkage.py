"""Weak adaptive shrinkage: scale off-diagonal mass by xi, picking the xi
that minimizes the original-covariance variance of the long-only-clipped
minimum-variance portfolio.

`weak_shrink` scores every point of its grid. The allocator's recursion uses
`_search_xi`, which runs the same scan coarse to fine on the default grid."""

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
# The recursion's xi search: stride of its coarse pass and half-width of its
# windows, in points of the default grid, and how far above the lowest coarse
# variance, relatively, a coarse step whose positive weights change is scanned.
_COARSE = 20
_KINK_RANGE = 1e-3


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


def _spectrum(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(s, lambda, Q, Q' s^-1) of validated values, with s = sqrt(diag) and
    Q diag(lambda) Q' = S^-1 Sigma S^-1: all a grid point's solve needs."""
    variances_diag = np.diag(values)
    if variances_diag.min() <= 0.0:
        raise ZeroVariance("weak shrinkage needs strictly positive variances")
    s = np.sqrt(variances_diag)
    lam, q = np.linalg.eigh(symmetrize(values / np.outer(s, s)))
    return s, lam, q, q.T @ (1.0 / s)


def _scan(values: np.ndarray, spectrum, xis: np.ndarray, rcond: float):
    """Solve and score the ascending grid points `xis` in chunks of `_GRID_CHUNK` entries.

    Returns (valid mask, clipped variances, whether each point's set of positive
    weights differs from the previous point's, index of the first minimum among
    the valid points or -1, its unclipped weights).
    """
    s, lam, q, u = spectrum
    valid = np.zeros(xis.size, dtype=bool)
    variances = np.full(xis.size, np.nan)
    turns = np.zeros(xis.size, dtype=bool)
    best, best_weights, previous = -1, None, None
    rows = max(1, _GRID_CHUNK // s.size)
    for first in range(0, xis.size, rows):
        chunk = slice(first, first + rows)
        g = xis[chunk, None]
        # each row ascends (eigh's lambda ascends, xi >= 0), so its ends give max|.|
        # and, unless the row changes sign, min|.|
        spec = (1.0 - g) + g * lam
        lo, hi = spec[:, 0], spec[:, -1]
        small = np.where(lo > 0.0, lo, -hi)
        cross = (lo <= 0.0) & (hi >= 0.0)
        small[cross] = np.abs(spec[cross]).min(axis=1)
        ok = small >= rcond * np.maximum(-lo, hi)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x = ((u / spec) @ q.T) / s
            denom = x.sum(axis=1)
            ok &= np.isfinite(denom) & (np.abs(denom) > rcond * np.abs(x).sum(axis=1))
            weights = np.where(ok[:, None], x / denom[:, None], np.nan)
            positive = weights > 0.0
            clipped = np.where(positive, weights, 0.0)
            mass = clipped.sum(axis=1)
            ok &= mass > 0.0
            clipped = clipped / mass[:, None]
        var = ((clipped @ values) * clipped).sum(axis=1)
        valid[chunk], variances[chunk] = ok, var
        turns[first + 1:first + len(positive)] = (positive[1:] != positive[:-1]).any(axis=1)
        if previous is not None:
            turns[first] = (positive[0] != previous).any()
        previous = positive[-1]
        local = int(np.argmin(np.where(ok, var, np.inf)))
        if ok[local] and (best < 0 or var[local] < variances[best]):
            best, best_weights = first + local, x[local] / denom[local]
    return valid, variances, turns, best, best_weights


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
    has round(1 / grid_step) equal steps, so a step of 0.3 searches thirds.
    It is solved and scored in chunks of `_GRID_CHUNK` entries, so memory is
    O(n^2 + 2^15) whatever the step. Every grid point is scored and reported;
    the allocator's recursion scores fewer with `_search_xi`.
    """
    if not (MIN_GRID_STEP <= grid_step <= 1.0):
        raise XiOutOfRange(f"grid_step={grid_step!r} outside [MIN_GRID_STEP={MIN_GRID_STEP}, 1]")
    values = cov_values(cov)
    grid = np.linspace(0.0, 1.0, int(round(1.0 / grid_step)) + 1)
    valid, variances, _, best, weights = _scan(values, _spectrum(values), grid, rcond)
    if best < 0:
        raise NoFeasibleXi("minimum-variance solve failed at every grid point")
    xi = float(grid[best])
    return ShrinkageResult(
        xi=xi,
        shrunk=_scale_off_diagonal(values, xi),
        weights=weights,
        clipped_variance=float(variances[best]),
        curve=np.column_stack((grid[valid], variances[valid])),
        skipped=grid[~valid],
    )


def _search_xi(values: np.ndarray) -> tuple[float, np.ndarray, float]:
    """`weak_shrink(values)`'s (xi, weights, clipped variance), searched coarse to fine.

    For the allocator's recursion, on a trusted block at the default grid and
    rcond. Every `_COARSE`-th grid point is scored first (51 points). Then one
    scan covers the points within two coarse steps of the coarse curve's
    lowest point, within one of its second-lowest local minimum, within one
    of xi = 0.98 (the last two coarse steps, where the spectrum
    1 - xi + xi * lambda is smallest and the curve moves fastest), and every
    coarse step whose set of positive weights changes and which has an end
    within `_KINK_RANGE` (relative) of the lowest coarse variance. The
    clipped curve is smooth except at such kinks, where a weight reaches
    zero, and a kink can dip below both ends of its step. The windows hold at
    most 81 + 41 + 41 = 163 points, plus 21 per such step, each taken by index
    from the full grid; ties still go to the smaller xi. With no feasible coarse
    point the whole grid is scanned, so `NoFeasibleXi` is raised where
    `weak_shrink` raises it.
    """
    spectrum = _spectrum(values)
    grid = np.linspace(0.0, 1.0, int(round(1.0 / DEFAULT_GRID_STEP)) + 1)
    coarse = np.arange(0, grid.size, _COARSE)
    valid, variances, turns, _, _ = _scan(values, spectrum, grid[coarse], DEFAULT_RCOND)
    picked = np.arange(grid.size)
    if valid.any():
        curve = np.where(valid, variances, np.inf)
        padded = np.concatenate(([np.inf], curve, [np.inf]))
        minima = np.flatnonzero(valid & (curve <= padded[:-2]) & (curve <= padded[2:]))
        # the lowest minimum is the lowest point, the first of equals
        lowest = coarse[minima[np.argsort(curve[minima], kind="stable")[:2]]]
        window = np.zeros(grid.size, dtype=bool)
        for centre, half in ((lowest[0], 2 * _COARSE), *((c, _COARSE) for c in lowest[1:]),
                             (grid.size - 1 - _COARSE, _COARSE)):
            window[max(0, centre - half):centre + half + 1] = True
        near = curve.min() + _KINK_RANGE * abs(curve.min())
        for step in np.flatnonzero(turns[1:] & (np.minimum(curve[:-1], curve[1:]) <= near)):
            window[coarse[step]:coarse[step + 1] + 1] = True
        picked = np.flatnonzero(window)
    _, variances, _, best, weights = _scan(values, spectrum, grid[picked], DEFAULT_RCOND)
    if best < 0:
        raise NoFeasibleXi("minimum-variance solve failed at every grid point")
    return float(grid[picked[best]]), weights, float(variances[best])
