"""Block splitting and Schur-complement covariance augmentations.

For a split Sigma = [[A, B], [C, D]] with C = B' the blended complement is
A^c(gamma) = A - gamma * S and the inherited constraint vector is
b_A(gamma) = 1 - gamma * t, with S = B D^-1 C and t = B D^-1 1 (and the
mirror images for the D side). S and t do not depend on gamma: each split
side guards its complementary block once, solves S and t once, and keeps
the verdict and both products on its BlockSplit; a constraint carried
through the split (allocate_exact) reuses that verdict. Every
gamma-dependent quantity -- the complement, the b-vector, both closed-form
limits of the gamma cap and the augmentation -- is then affine in S and t.
The augmented matrix A'' = A^c / (b_A b_A') serves both the recursion and
the capital split: the inter-group matrix (A^c^-1 * b_A b_A')^-1 is
diag(1/b_A) A^c diag(1/b_A), which is A''.

A guard is one `eigvalsh` (check_conditioning) unless what the gamma cap
has found already decides it. The cap factors each side's A - eps_pd I by
Cholesky once, so lambda_min(A) > eps_pd where that succeeds; and for every
gamma up to the cap, A - gamma S - eps_pd I is a convex combination of two
PD matrices, so PD too. For a PD matrix lambda_min <= min diag <= max diag
<= lambda_max <= trace, and the congruence by diag(1/b) moves lambda_min
and lambda_max apart by at most (max|b| / min|b|)^2 (Horn & Johnson,
Matrix Analysis, 4.2-4.3). Three certificates follow, each with a factor 2
of slack for rounding:

  (i)   a complementary block passes where the other side's factorization
        succeeded and eps_pd / trace(block) >= 2 rcond;
  (ii)  at a gamma_c under the cap, A'' passes where
        eps_pd / trace(A^c) * (min|b| / max|b|)^2 >= 2 rcond;
  (iii) at a gamma_c under the cap, A'' fails where
        min diag(A'') < rcond / 2 * max diag(A'').

With the cap off nothing is factored, and every guard is an `eigvalsh`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from ._linalg import DEFAULT_RCOND, _solve, check_conditioning, symmetrize
from .covmat import cov_values
from .errors import (
    BadIndex,
    DegenerateBVector,
    InputError,
    NumericalError,
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

    @classmethod
    def coerce(cls, value) -> "GammaPair":
        """`value` as a GammaPair: itself, one real number, or a (gamma_c[, gamma_b]) tuple or
        list whose gamma_b may be None. Anything else raises InputError."""
        if isinstance(value, cls):
            return value
        parts = list(value) if isinstance(value, (tuple, list)) else [value]
        if len(parts) == 2 and parts[1] is None:
            parts.pop()
        if 0 < len(parts) <= 2 and all(isinstance(p, Real) and not isinstance(p, bool)
                                       for p in parts):
            return cls(*map(float, parts))
        raise InputError(f"gammas needs a GammaPair, a number or a (gamma_c, gamma_b) pair, "
                         f"got {type(value).__name__} {value!r}")

    @property
    def zero(self) -> bool:
        return self.gamma_c == 0.0 and self.gamma_b == 0.0

    def scaled(self, factor: float) -> "GammaPair":
        return GammaPair(self.gamma_c * factor, self.gamma_b * factor)


@dataclass
class BlockSplit:
    """Views of a covariance matrix split at index k.

    The gamma-independent products S and t of each side are solved on first
    use and kept, keyed by (side, product, rcond), for the life of the split,
    beside the conditioning verdict on that side's complementary block, keyed
    by (side, "guard", rcond). The gamma cap keeps whether own - eps_pd I
    is PD, as (side, "margin") -> (eps_pd, verdict), and (side, "cap") ->
    (eps_pd, cap). One side's cap leaves the other side's Cholesky factor
    under (side, "factor") -> (eps_pd, factor or None) until that side's own
    cap takes it.
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


def _opposite(side: str) -> str:
    return TAIL if side == HEAD else HEAD


def _guard(matrix: np.ndarray, rcond: float, exc: type[NumericalError],
           certificate: bool | str | None) -> None:
    """check_conditioning(matrix, rcond, exc), unless a certificate has decided:
    True passes, a message raises `exc` with it, and None leaves it to `eigvalsh`."""
    if certificate is None:
        check_conditioning(matrix, rcond, exc)
    elif certificate is not True:
        raise exc(certificate)


def _solve_other(sp: BlockSplit, side: str, rhs: np.ndarray, rcond: float) -> np.ndarray:
    """other^-1 @ rhs. The complementary block is guarded on the first call for
    (side, rcond), by certificate (i) where the other side's block was factored;
    a failed verdict is kept and raised again on every later call."""
    other = _own_and_other(sp, side)[2]
    key = (side, "guard", rcond)
    if key not in sp._solved:
        eps_pd, pd = sp._solved.get((_opposite(side), "margin"), (0.0, False))
        certified = pd and eps_pd / np.trace(other) >= 2.0 * rcond
        try:
            _guard(other, rcond, SingularComplementBlock, True if certified else None)
            sp._solved[key] = None
        except SingularComplementBlock as err:
            sp._solved[key] = str(err)
    if sp._solved[key] is not None:
        raise SingularComplementBlock(sp._solved[key])
    return _solve(other, rhs, SingularComplementBlock)


def _product(sp: BlockSplit, side: str, name: str, rcond: float) -> np.ndarray:
    """S = cross @ other^-1 @ cross' or t = cross @ other^-1 @ 1, solved once."""
    key = (side, name, rcond)
    if key not in sp._solved:
        _, cross, other = _own_and_other(sp, side)
        rhs = cross.T if name == "S" else np.ones(other.shape[0])
        sp._solved[key] = cross @ _solve_other(sp, side, rhs, rcond)
    return sp._solved[key]


def schur_complement(sp: BlockSplit, side: str, gamma_c: float,
                     rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Blended complement: own - gamma_c * cross @ other^-1 @ cross', built and
    symmetrized in one buffer."""
    own, _, _ = _own_and_other(sp, side)
    if gamma_c == 0.0:
        return own.copy()
    comp = np.multiply(_product(sp, side, "S", rcond), gamma_c)
    return symmetrize(np.subtract(own, comp, out=comp))


def b_vector(sp: BlockSplit, side: str, gamma_b: float,
             carry: np.ndarray | None = None,
             rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Constraint vector inherited from the complementary block.

    With the default all-ones carry this is b = 1 - gamma_b * cross @ other^-1 @ 1;
    a non-default carry propagates an outer constraint through the split.
    """
    own, cross, _ = _own_and_other(sp, side)
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
    return carry_own - gamma_b * (cross @ _solve_other(sp, side, carry_other, rcond))


def _intra_certificate(sp: BlockSplit, side: str, gamma_c: float, comp: np.ndarray,
                       b: np.ndarray, rcond: float) -> bool | str | None:
    """Certificates (ii) and (iii) for A'' = comp / (b b'), or None: both need
    gamma_c under this side's cap, where comp - eps_pd I is PD."""
    eps_pd, cap = sp._solved.get((side, "cap"), (0.0, -1.0))
    if not (eps_pd > 0.0 and gamma_c <= cap):
        return None
    abs_b = np.abs(b)
    if eps_pd / np.trace(comp) * (abs_b.min() / abs_b.max()) ** 2 >= 2.0 * rcond:
        return True
    diag = np.diagonal(comp) / (b * b)     # bitwise the diagonal of A''
    ratio = diag.min() / diag.max()
    if ratio < rcond / 2.0:
        return (f"augmented matrix is ill-conditioned (min / max diagonal {ratio:.2e}, "
                f"an upper bound on |lambda|min / |lambda|max, below rcond / 2)")
    return None


def augment_intra(sp: BlockSplit, side: str, gammas: GammaPair,
                  eps_b: float = DEFAULT_EPS_B,
                  rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Augmented matrix A'' = A^c / (b b'), an exact copy of the raw block at gamma = 0.

    Otherwise raises DegenerateBVector on an |b| entry below eps_b, and
    SingularComplement, the allocator's cue to halve gamma, when A'' fails
    check_conditioning, whose ratio test gives Sigma and c * Sigma one verdict
    at every size: a 1x1 side fails only on a zero, NaN or subnormal A^c / b^2.
    Under this side's cap, certificates (ii) and (iii) give that verdict first.
    """
    if gammas.zero:
        return _own_and_other(sp, side)[0].copy()
    comp = schur_complement(sp, side, gammas.gamma_c, rcond=rcond)
    b = b_vector(sp, side, gammas.gamma_b, rcond=rcond)
    if np.abs(b).min() < eps_b:
        raise DegenerateBVector(f"|b| entry below {eps_b} before pointwise division")
    certificate = _intra_certificate(sp, side, gammas.gamma_c, comp, b, rcond)
    intra = np.divide(comp, np.outer(b, b), out=comp)
    _guard(intra, rcond, SingularComplement, certificate)
    return intra


def _shifted(own: np.ndarray, eps_pd: float) -> np.ndarray:
    """A copy of own - eps_pd I."""
    shifted = own.copy()
    shifted.flat[:: shifted.shape[0] + 1] -= eps_pd
    return shifted


def _factor(sp: BlockSplit, side: str, eps_pd: float) -> np.ndarray | None:
    """L with L L' = own - eps_pd I, or None where that is not PD. The verdict stays
    on the split as (side, "margin") -> (eps_pd, PD or not)."""
    try:
        factor = np.linalg.cholesky(_shifted(_own_and_other(sp, side)[0], eps_pd))
    except np.linalg.LinAlgError:
        factor = None
    sp._solved[(side, "margin")] = (eps_pd, factor is not None)
    return factor


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
    Each side's block is factored once per split: this side's cap also factors
    the other side's, before this side's guard, which that verdict certifies,
    and leaves the factor on the split for the other side's cap to take. So no
    factor outlives both caps.
    """
    eps_kept, factor = sp._solved.pop((side, "factor"), (None, None))
    if eps_kept != eps_pd:
        factor = _factor(sp, side, eps_pd)
    if factor is None:
        return 0.0
    other = _opposite(side)
    if (other, "margin") not in sp._solved:
        sp._solved[(other, "factor")] = (eps_pd, _factor(sp, other, eps_pd))
    try:
        t, s = _product(sp, side, "t", rcond), _product(sp, side, "S", rcond)
    except SingularComplementBlock:
        return 0.0
    blend = _shifted(_own_and_other(sp, side)[0], eps_pd)
    blend -= s
    try:
        np.linalg.cholesky(blend)
        top = 0.0
    except np.linalg.LinAlgError:
        top = np.linalg.eigvalsh(np.linalg.solve(factor, np.linalg.solve(factor, s).T))[-1]
    limit = min((1.0 - eps_b) / max(t.max(), 1.0 - eps_b), 1.0 / max(top, 1.0))
    cap = math.floor(limit / CAP_STEP) * CAP_STEP
    sp._solved[(side, "cap")] = (eps_pd, cap)
    return cap
