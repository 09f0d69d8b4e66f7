"""Covariance matrices: construction, validation, sampling, CSV I/O."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._linalg import symmetrize
from .errors import (
    DimensionMismatch,
    InvalidRho,
    NonFiniteInput,
    NotPSD,
    TooFewSamples,
)

# Tolerance for accepting a matrix as symmetric, relative to its largest entry.
SYMMETRY_RTOL = 1e-12


def _validated_square(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] == 0:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {values.shape}")
    low, high = float(values.min()), float(values.max())   # a NaN or inf shows here
    if not (np.isfinite(low) and np.isfinite(high)):
        raise NonFiniteInput("matrix contains NaN or infinite entries")
    diff = values - values.T
    if np.abs(diff, out=diff).max() > SYMMETRY_RTOL * max(high, -low):
        raise DimensionMismatch("matrix is not symmetric within tolerance")
    return values


@dataclass
class CovarianceMatrix:
    """A symmetric square covariance matrix with optional asset labels."""

    values: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self):
        self.values = _validated_square(self.values)
        if self.labels is not None and len(self.labels) != self.n:
            raise DimensionMismatch(
                f"{len(self.labels)} labels for a {self.n}x{self.n} matrix"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class ReturnsPanel:
    """T periods of per-asset returns, one column per asset."""

    values: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DimensionMismatch(f"expected a 2-d panel, got shape {self.values.shape}")
        if self.labels is not None and len(self.labels) != self.values.shape[1]:
            raise DimensionMismatch("label count does not match column count")


def cov_values(cov) -> np.ndarray:
    """Coerce a CovarianceMatrix or array-like to a validated ndarray."""
    if isinstance(cov, CovarianceMatrix):
        return cov.values
    return _validated_square(cov)


def empirical_covariance(samples: ReturnsPanel | np.ndarray) -> CovarianceMatrix:
    """Demeaned sample covariance with divisor T-1."""
    labels = None
    if isinstance(samples, ReturnsPanel):
        labels = samples.labels
        values = samples.values
    else:
        values = np.asarray(samples, dtype=float)
        if values.ndim != 2:
            raise DimensionMismatch(f"expected a 2-d panel, got shape {values.shape}")
    t = values.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):
        mean = values.mean(axis=0) if t else np.zeros(values.shape[1])
    # a NaN or inf entry makes its column's mean non-finite, so only then (or when a
    # column sum overflows) is the panel read entry by entry
    if not np.isfinite(mean).all() and not np.isfinite(values).all():
        raise NonFiniteInput("returns panel contains NaN or infinite entries")
    if t < 2:
        raise TooFewSamples(f"need at least 2 periods, got {t}")
    centered = values - mean
    cov = centered.T @ centered
    del centered
    cov /= t - 1
    cov = symmetrize(cov)
    return CovarianceMatrix(cov, labels)


def rand_symm_cov(dim: int, rho: float, rng: np.random.Generator,
                  jitter_sigma: float = 0.0) -> CovarianceMatrix:
    """Equicorrelation anchor matrix: unit diagonal, constant off-diagonal rho.

    With jitter_sigma > 0 the unit variances are replaced by lognormal
    draws, giving an "approximately constant" off-diagonal covariance
    while keeping the correlation structure exact.
    """
    if dim < 1:
        raise DimensionMismatch(f"dim must be positive, got {dim}")
    lo = -1.0 / (dim - 1) if dim > 1 else -1.0
    if not (lo < rho < 1.0):
        raise InvalidRho(f"rho={rho} outside positive-definite range ({lo}, 1) for dim={dim}")
    corr = np.full((dim, dim), float(rho))
    np.fill_diagonal(corr, 1.0)
    if jitter_sigma > 0.0:
        vol = np.exp(rng.normal(0.0, jitter_sigma, size=dim))
        corr = corr * np.outer(vol, vol)
    return CovarianceMatrix(corr)


def sample_gaussian(cov, count: int, rng: np.random.Generator,
                    tol: float = 1e-8) -> ReturnsPanel:
    """Draw `count` i.i.d. zero-mean Gaussian samples with the given covariance.

    Uses a Cholesky factor when the matrix is positive definite; a
    rank-deficient but PSD matrix falls back to an eigenvalue factor with
    small negative eigenvalues (within tol) clipped to zero.
    """
    values = cov_values(cov)
    labels = cov.labels if isinstance(cov, CovarianceMatrix) else None
    if count < 1:
        raise DimensionMismatch(f"count must be positive, got {count}")
    n = values.shape[0]
    try:
        factor = np.linalg.cholesky(values)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(values)
        if eigvals.min() < -tol:
            raise NotPSD("covariance is not positive semi-definite within tolerance")
        factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    z = rng.standard_normal((count, n))
    return ReturnsPanel(z @ factor.T, labels)


def is_positive_definite(cov, tol: float = 0.0) -> bool:
    """True iff the smallest eigenvalue exceeds tol."""
    values = cov_values(cov)
    try:
        return bool(np.linalg.eigvalsh(values).min() > tol)
    except np.linalg.LinAlgError:
        return False


# --- CSV formats ------------------------------------------------------------
#
# Matrix CSV: optional single header row of labels, then n rows of n decimals.
# Panel CSV: header row of labels, then T data rows.


def _is_numeric_row(row: list[str]) -> bool:
    try:
        for cell in row:
            float(cell)
    except ValueError:
        return False
    return True


def _numeric_rows(path, rows: list[list[str]], what: str) -> np.ndarray:
    """Data rows as a float array: DimensionMismatch names the first row whose
    length differs from the first row's, NonFiniteInput a non-numeric entry."""
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise DimensionMismatch(f"{path}: row {number} of the {what} data has "
                                    f"{len(row)} entries, row 1 has {len(rows[0])}")
    try:
        return np.array([[float(cell) for cell in row] for row in rows], dtype=float)
    except ValueError as exc:
        raise NonFiniteInput(f"{path}: non-numeric {what} entry ({exc})")


def read_matrix_csv(path) -> CovarianceMatrix:
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise DimensionMismatch(f"{path}: empty matrix file")
    labels = None
    if not _is_numeric_row(rows[0]):
        labels = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
    return CovarianceMatrix(_numeric_rows(path, rows, "matrix"), labels)


def write_matrix_csv(path, cov: CovarianceMatrix | np.ndarray) -> None:
    labels = cov.labels if isinstance(cov, CovarianceMatrix) else None
    values = cov_values(cov)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if labels is not None:
            writer.writerow(labels)
        for row in values:
            writer.writerow([f"{x:.17g}" for x in row])


def read_returns_csv(path) -> ReturnsPanel:
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if len(rows) < 2:
        raise TooFewSamples(f"{path}: need a header row and at least one data row")
    labels = [cell.strip() for cell in rows[0]]
    return ReturnsPanel(_numeric_rows(path, rows[1:], "return"), labels)
