"""Block splitting and Schur-complement covariance augmentations.

For a split Sigma = [[A, B], [C, D]] with C = B' the blended complement is
A^c(gamma) = A - gamma * S and the inherited constraint vector is
b_A(gamma) = 1 - gamma * t, with S = B D^-1 C and t = B D^-1 1 (and the
mirror images for the D side). S and t do not depend on gamma: each split
side solves them once, through the conditioning guard, and keeps them on
its BlockSplit. Every gamma-dependent quantity -- the complement, the
b-vector, both closed-form limits of the gamma cap and the augmentation --
is then affine in S and t. The augmented matrix A'' = A^c / (b_A b_A') serves
both the recursion and the capital split: the inter-group matrix
(A^c^-1 * b_A b_A')^-1 is diag(1/b_A) A^c diag(1/b_A), which is A''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import DEFAULT_RCOND, check_conditioning, checked_solve, symmetrize
from .covmat import cov_values
from .errors import (
    BadIndex,
    DegenerateBVector,
    InputError,
    SingularComplement,
    SingularComplementBlock,
)

# Floor on b-vector entries before pointwise division.
DEFAULT_EPS_B = 1e-6
# Positive-definiteness margin used by the adaptive gamma cap.
DEFAULT_EPS_PD = 1e-8
# The cap is rounded down to a multiple of this, so it lies strictly inside both limits.
CAP_STEP = 2.0 ** -20

HEAD, TAIL = "A", "D"


@dataclass(frozen=True)
class GammaPair:
    """Blend strengths: gamma_c for the Schur complement, gamma_b for the b-vector."""

    gamma_c: float
    gamma_b: float | None = None

    def __post_init__(self):
        if self.gamma_b is None:
            object.__setattr__(self, "gamma_b", self.gamma_c)
        for name in ("gamma_c", "gamma_b"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise InputError(f"{name}={value} outside [0, 1]")

    @property
    def zero(self) -> bool:
        return self.gamma_c == 0.0 and self.gamma_b == 0.0

    def scaled(self, factor: float) -> "GammaPair":
        return GammaPair(self.gamma_c * factor, self.gamma_b * factor)


@dataclass
class BlockSplit:
    """Views of a covariance matrix split at index k.

    The gamma-independent products S and t of each side are solved on first
    use and kept, keyed by (side, product, rcond), for the life of the split.
    """

    parent: np.ndarray
    k: int
    _solved: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def a(self) -> np.ndarray:
        return self.parent[: self.k, : self.k]

    @property
    def b(self) -> np.ndarray:
        return self.parent[: self.k, self.k:]

    @property
    def c(self) -> np.ndarray:
        return self.parent[self.k:, : self.k]

    @property
    def d(self) -> np.ndarray:
        return self.parent[self.k:, self.k:]


def split(cov, k: int) -> BlockSplit:
    values = cov_values(cov)
    n = values.shape[0]
    if not (1 <= k < n):
        raise BadIndex(f"split index k={k} outside [1, {n - 1}]")
    return BlockSplit(values, k)


def _own_and_other(sp: BlockSplit, side: str):
    """(own block, cross block from own rows, complementary block)."""
    if side == HEAD:
        return sp.a, sp.b, sp.d
    if side == TAIL:
        return sp.d, sp.c, sp.a
    raise InputError(f"side must be {HEAD!r} or {TAIL!r}, got {side!r}")


def _product(sp: BlockSplit, side: str, name: str, rcond: float) -> np.ndarray:
    """S = cross @ other^-1 @ cross' or t = cross @ other^-1 @ 1, solved once."""
    key = (side, name, rcond)
    if key not in sp._solved:
        _, cross, other = _own_and_other(sp, side)
        rhs = cross.T if name == "S" else np.ones(other.shape[0])
        solved = checked_solve(other, rhs, rcond=rcond, exc=SingularComplementBlock)
        sp._solved[key] = cross @ solved
    return sp._solved[key]


def schur_complement(sp: BlockSplit, side: str, gamma_c: float,
                     rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Blended complement: own - gamma_c * cross @ other^-1 @ cross'."""
    own, _, _ = _own_and_other(sp, side)
    if gamma_c == 0.0:
        return own.copy()
    return symmetrize(own - gamma_c * _product(sp, side, "S", rcond))


def b_vector(sp: BlockSplit, side: str, gamma_b: float,
             carry: np.ndarray | None = None,
             rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Constraint vector inherited from the complementary block.

    With the default all-ones carry this is b = 1 - gamma_b * cross @ other^-1 @ 1;
    a non-default carry propagates an outer constraint through the split.
    """
    own, cross, other = _own_and_other(sp, side)
    if carry is None:
        ones = np.ones(own.shape[0])
        return ones if gamma_b == 0.0 else ones - gamma_b * _product(sp, side, "t", rcond)
    n = sp.parent.shape[0]
    carry = np.asarray(carry, dtype=float)
    if carry.shape != (n,):
        raise InputError(f"carry has shape {carry.shape}, expected ({n},)")
    if side == HEAD:
        carry_own, carry_other = carry[: sp.k], carry[sp.k:]
    else:
        carry_own, carry_other = carry[sp.k:], carry[: sp.k]
    if gamma_b == 0.0:
        return carry_own.copy()
    solved = checked_solve(other, carry_other, rcond=rcond, exc=SingularComplementBlock)
    return carry_own - gamma_b * (cross @ solved)


def augment_intra(sp: BlockSplit, side: str, gammas: GammaPair,
                  eps_b: float = DEFAULT_EPS_B,
                  rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Augmented matrix A'' = A^c / (b b'), an exact copy of the raw block at gamma = 0.

    Otherwise raises DegenerateBVector on an |b| entry below eps_b, and
    SingularComplement, the allocator's cue to halve gamma, when the side is
    ill-conditioned: a 1x1 side on either pivot of (A^c^-1 * b b')^-1, a
    larger one when sigma_min / sigma_max of A'' falls below rcond.
    """
    if gammas.zero:
        return _own_and_other(sp, side)[0].copy()
    comp = schur_complement(sp, side, gammas.gamma_c, rcond=rcond)
    b = b_vector(sp, side, gammas.gamma_b, rcond=rcond)
    if np.abs(b).min() < eps_b:
        raise DegenerateBVector(f"|b| entry below {eps_b} before pointwise division")
    intra = comp / np.outer(b, b)
    if intra.shape[0] == 1:
        check_conditioning(comp, rcond, SingularComplement)
        check_conditioning((1.0 / comp) * (b * b), rcond, SingularComplement)
    else:
        check_conditioning(intra, rcond, SingularComplement)
    return intra


def max_feasible_gamma(sp: BlockSplit, side: str,
                       eps_pd: float = DEFAULT_EPS_PD,
                       eps_b: float = DEFAULT_EPS_B,
                       rcond: float = DEFAULT_RCOND) -> float:
    """Largest gamma in [0, 1] on the CAP_STEP grid keeping A - gamma S - eps_pd I
    positive definite and b = 1 - gamma t >= eps_b, for 0 < eps_b < 1.

    The limits are (1 - eps_b) / max t and, with L L' = A - eps_pd I, 1 / the
    top eigenvalue of the pencil L^-1 S L^-T; each binds only below 1. Every
    blend is PD when A - S - eps_pd I is, so a Cholesky of it skips the pencil.
    The cap is 0.0 when the complementary block is singular or A - eps_pd I is not PD.
    """
    try:
        t, s = _product(sp, side, "t", rcond), _product(sp, side, "S", rcond)
        shifted = _own_and_other(sp, side)[0].copy()
        shifted.flat[:: shifted.shape[0] + 1] -= eps_pd
        factor = np.linalg.cholesky(shifted)
    except (SingularComplementBlock, np.linalg.LinAlgError):
        return 0.0
    shifted -= s
    try:
        np.linalg.cholesky(shifted)
        top = 0.0
    except np.linalg.LinAlgError:
        top = np.linalg.eigvalsh(np.linalg.solve(factor, np.linalg.solve(factor, s).T))[-1]
    limit = min((1.0 - eps_b) / max(t.max(), 1.0 - eps_b), 1.0 / max(top, 1.0))
    return math.floor(limit / CAP_STEP) * CAP_STEP
