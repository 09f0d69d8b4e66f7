"""Closed-form minimum-variance portfolios and sub-portfolio fitness measures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_RCOND, checked_solve
from .covmat import cov_values
from .errors import (
    DegenerateConstraint,
    DimensionMismatch,
    InputError,
    NumericalError,
    SingularCovariance,
    SingularQ,
    ZeroNormalizer,
)
from .shrinkage import DEFAULT_GRID_STEP, weak_shrink

# Inverse fitness measures nu(). Inter-group capital is split 1/nu : 1/nu.
#   subportfolio_variance  w_child' Sigma w_child for the child's own weights
#   minvar_variance        1 / (1' Sigma^-1 1)
#   weak_minvar_variance   variance (under Sigma) of the min-var weights of the
#                          weak-shrunk Sigma
#   diag_sum_squares       sum_i Sigma_ii^2 -- a diagonal-only rule kept for
#                          regression tests; not recommended
FITNESS_KINDS = (
    "subportfolio_variance",
    "minvar_variance",
    "weak_minvar_variance",
    "diag_sum_squares",
)


@dataclass
class ScaledSolution:
    """Solution of Q x = b read as a scaled minimum-variance portfolio.

    values = Q^-1 b, weights satisfy b' w = 1 and fitness is the variance
    of that constrained portfolio, so values = weights / fitness.
    """

    values: np.ndarray
    fitness: float
    weights: np.ndarray


def budget(b: np.ndarray, x: np.ndarray, rcond: float,
           exc: type[NumericalError], message: str) -> float:
    """b' x, raising `exc` when |b' x| <= rcond * sum|x|, a ratio that reads no units."""
    denom = float(b @ x)
    if abs(denom) <= rcond * float(np.abs(x).sum()):
        raise exc(message)
    return denom


def min_var_unit(cov, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Minimum-variance weights with a unit budget constraint: Sigma^-1 1 normalized."""
    return _min_var_unit(cov_values(cov), rcond)


def _min_var_unit(values: np.ndarray, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    ones = np.ones(values.shape[0])
    x = checked_solve(values, ones, rcond=rcond, exc=SingularCovariance)
    return x / budget(ones, x, rcond, ZeroNormalizer, "1' Sigma^-1 1 vanishes; weights undefined")


def min_var_general(q, b, rcond: float = DEFAULT_RCOND) -> ScaledSolution:
    """Minimum variance subject to b' w = 1 (general linear budget)."""
    q = cov_values(q)
    b = np.asarray(b, dtype=float)
    if b.shape != (q.shape[0],):
        raise DimensionMismatch(f"b has shape {b.shape} for a {q.shape} matrix")
    x = checked_solve(q, b, rcond=rcond, exc=SingularQ)
    denom = budget(b, x, rcond, DegenerateConstraint,
                   "b' Q^-1 b vanishes; constrained portfolio undefined")
    return ScaledSolution(values=x, fitness=1.0 / denom, weights=x / denom)


def portfolio_variance(cov, w) -> float:
    return _portfolio_variance(cov_values(cov), w)


def _portfolio_variance(values: np.ndarray, w) -> float:
    w = np.asarray(w, dtype=float)
    if w.shape != (values.shape[0],):
        raise DimensionMismatch(f"weights shape {w.shape} for a {values.shape} matrix")
    return float(w @ values @ w)


def fitness(cov, kind: str, child_weights=None,
            shrink_grid_step: float = DEFAULT_GRID_STEP, rcond: float = DEFAULT_RCOND) -> float:
    """Evaluate the inverse fitness nu of a (possibly augmented) covariance block."""
    return _fitness(cov_values(cov), kind, child_weights,
                    shrink_grid_step=shrink_grid_step, rcond=rcond)


def _fitness(values: np.ndarray, kind: str, child_weights,
             shrunk_weights: np.ndarray | None = None, *,
             shrink_grid_step: float = DEFAULT_GRID_STEP, rcond: float = DEFAULT_RCOND) -> float:
    """`fitness` of trusted values; `shrunk_weights`, if given, is `weak_shrink(values).weights`."""
    if kind == "subportfolio_variance":
        if child_weights is None:
            raise InputError("subportfolio_variance requires child weights")
        return _portfolio_variance(values, child_weights)
    if kind == "minvar_variance":
        ones = np.ones(values.shape[0])
        x = checked_solve(values, ones, rcond=rcond, exc=SingularCovariance)
        return 1.0 / budget(ones, x, rcond, ZeroNormalizer, "1' Sigma^-1 1 vanishes")
    if kind == "weak_minvar_variance":
        if shrunk_weights is None:
            shrunk_weights = weak_shrink(values, grid_step=shrink_grid_step, rcond=rcond).weights
        return _portfolio_variance(values, shrunk_weights)
    if kind == "diag_sum_squares":
        return float(np.sum(np.diag(values) ** 2))
    raise InputError(f"unknown fitness kind {kind!r}; expected one of {FITNESS_KINDS}")
