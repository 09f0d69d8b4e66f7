"""Recursive top-down allocation.

Three modes share one recursion:

  hrp             raw blocks, b = 1, no off-block information (gamma pinned to 0)
  schur_literal   children run on the augmented matrices A'', D''; each child
                  vector is concatenated with a 1/nu(A'') scaling
  schur_debiased  as literal, but each child's weights are divided elementwise
                  by that side's b-vector first; at gamma = 1 with minvar
                  fitness and terminal this reproduces the global minimum
                  variance portfolio exactly

allocate_exact propagates the budget constraint itself through the splits and
is exact at gamma = 1 by block inversion, for any split index.
"""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Callable

import numpy as np

from ._linalg import DEFAULT_RCOND, checked_solve
from .covmat import CovarianceMatrix, cov_values
from .errors import InputError, NotPSD, NumericalError, SingularComplement, ZeroVariance
from .portfolio import FITNESS_KINDS, ScaledSolution, _fitness, _min_var_unit, budget
from .schur import (
    HEAD,
    TAIL,
    BlockSplit,
    GammaPair,
    augment_intra,
    b_vector,
    max_feasible_gamma,
    schur_complement,
    split,
)
from .seriation import (
    SERIATION_METHODS,
    Permutation,
    permute_matrix,
    seriate,
    unpermute_weights,
)
from .shrinkage import weak_shrink

MODES = ("hrp", "schur_literal", "schur_debiased")
TERMINALS = ("minvar", "weak_minvar", "equal_weight", "inverse_variance")

# Retries on a degenerate b-vector or augmented matrix: halve gamma this many times, then zero it.
MAX_GAMMA_HALVINGS = 5

log = logging.getLogger("schur_alloc")


# JSON kind of each default value, as named in error messages.
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list of numbers", dict: "an object"}


def _same_kind(value, default) -> bool:
    """Whether a JSON value may stand where `default` does: any number for a float,
    never a boolean for a number, and a list item by item against the first default."""
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_kind(item, default[0]) for item in value)
    return isinstance(value, type(default))


def checked_keys(cls, data, nullable: tuple[str, ...] = ()) -> dict:
    """A copy of `data`, which must be a mapping with keys only from `cls().to_dict()`,
    each holding a value of its default's JSON kind (or null, for a `nullable` key)."""
    if not isinstance(data, dict):
        raise InputError(f"{cls.__name__} needs a JSON object, got {type(data).__name__}")
    allowed = cls().to_dict()
    unknown = sorted(str(key) for key in data if key not in allowed)
    if unknown:
        raise InputError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    for key, value in data.items():
        default = allowed[key]
        if not (_same_kind(value, default) or (value is None and key in nullable)):
            raise InputError(f"{cls.__name__} field {key!r} needs {_KIND_NAMES[type(default)]}, "
                             f"got {type(value).__name__} {value!r}")
    return dict(data)


@dataclass
class AllocationConfig:
    """The caller's choices. Solver thresholds are the primitives' DEFAULT_* constants."""

    gammas: GammaPair = field(default_factory=lambda: GammaPair(0.0))
    mode: str = "schur_debiased"
    fitness: str = "subportfolio_variance"
    terminal: str = "minvar"
    terminal_size: int = 5
    seriation: str = "single_linkage"
    adaptive_cap: bool = True

    def __post_init__(self):
        self.gammas = GammaPair.coerce(self.gammas)
        if self.mode not in MODES:
            raise InputError(f"mode {self.mode!r} not one of {MODES}")
        if self.fitness not in FITNESS_KINDS:
            raise InputError(f"fitness {self.fitness!r} not one of {FITNESS_KINDS}")
        if self.terminal not in TERMINALS:
            raise InputError(f"terminal {self.terminal!r} not one of {TERMINALS}")
        if self.seriation not in SERIATION_METHODS:
            raise InputError(f"seriation {self.seriation!r} not one of {SERIATION_METHODS}")
        if self.terminal_size < 1:
            raise InputError(f"terminal_size must be >= 1, got {self.terminal_size}")
        if self.mode == "hrp":
            self.gammas = GammaPair(0.0, 0.0)

    def with_gamma(self, gamma: float, gamma_b: float | None = None) -> "AllocationConfig":
        return replace(self, gammas=GammaPair(gamma, gamma_b))

    def to_dict(self) -> dict:
        out = {"gamma": self.gammas.gamma_c, "gamma_b": self.gammas.gamma_b}
        out.update((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "gammas")
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "AllocationConfig":
        data = checked_keys(cls, data, nullable=("gamma_b",))
        gamma = data.pop("gamma", 0.0)
        gamma_b = data.pop("gamma_b", None)
        return cls(gammas=GammaPair(gamma, gamma_b), **data)


@dataclass
class SplitDiagnostics:
    offset: int              # start of this block in the seriated order
    size: int
    k: int
    gamma_c: float           # effective values actually used at this split
    gamma_b: float
    nu_head: float
    nu_tail: float
    b_min: float
    b_max: float
    halvings: int = 0        # retries spent before this split succeeded
    gamma_zeroed: bool = False


@dataclass
class AllocationReport:
    weights: np.ndarray
    order: Permutation
    splits: list[SplitDiagnostics]
    config: AllocationConfig
    labels: list[str] | None = None


def _terminal_weights(block: np.ndarray,
                      config: AllocationConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """A terminal block's weights, and `weak_shrink(block).weights` (or None) for its fitness:
    a `weak_minvar` block's weights are that vector, factored and judged once by weak_shrink."""
    n = block.shape[0]
    if n == 1 or config.terminal == "equal_weight":
        return np.full(n, 1.0 / n), None
    if config.terminal == "minvar":
        return _min_var_unit(block), None
    if config.terminal == "weak_minvar":
        result = weak_shrink(block)
        return result.weights, result.weights
    if config.terminal == "inverse_variance":
        diag = np.diag(block)
        if diag.min() <= 0.0:
            raise ZeroVariance("inverse-variance terminal needs positive variances")
        inv = 1.0 / diag
        return inv / inv.sum(), None
    raise InputError(f"unknown terminal {config.terminal!r}")


def _couple(block: np.ndarray, k: int, config: AllocationConfig):
    """Effective gammas, retry counts and the (augmented matrix, b) pairs of one split.

    The split, with its solved products, is dropped on return, before the
    children recurse.
    """
    sp = BlockSplit(block, k)
    effective = config.gammas
    if config.adaptive_cap and not effective.zero:
        effective = effective.scaled(min(max_feasible_gamma(sp, side) for side in (HEAD, TAIL)))

    halvings = 0
    gamma_zeroed = False
    while True:
        try:
            intra = tuple(augment_intra(sp, side, effective) for side in (HEAD, TAIL))
            bs = tuple(b_vector(sp, side, effective.gamma_b) for side in (HEAD, TAIL))
            return effective, halvings, gamma_zeroed, (intra, bs)
        except NumericalError:
            if halvings < MAX_GAMMA_HALVINGS:
                halvings += 1
                effective = effective.scaled(0.5)
            elif not gamma_zeroed:
                gamma_zeroed = True
                effective = GammaPair(0.0, 0.0)
            else:
                raise


def _recurse(block: np.ndarray, offset: int, config: AllocationConfig,
             diagnostics: list[SplitDiagnostics]) -> tuple[np.ndarray, np.ndarray | None]:
    n = block.shape[0]
    if n <= config.terminal_size:
        return _terminal_weights(block, config)
    k = math.ceil(n / 2)
    effective, halvings, gamma_zeroed, parts = _couple(block, k, config)
    (a_intra, d_intra), (b_head, b_tail) = parts

    w_head, shrunk_head = _recurse(a_intra, offset, config, diagnostics)
    w_tail, shrunk_tail = _recurse(d_intra, offset + k, config, diagnostics)
    nu_head = _fitness(a_intra, config.fitness, w_head, shrunk_head)
    nu_tail = _fitness(d_intra, config.fitness, w_tail, shrunk_tail)
    if not (nu_head > 0.0 and nu_tail > 0.0):
        raise NotPSD(f"a split's inverse fitness is not positive: {nu_head!r}, {nu_tail!r}")
    if config.mode == "schur_debiased":
        w_head, w_tail = w_head / b_head, w_tail / b_tail

    combined = np.concatenate([w_head / nu_head, w_tail / nu_tail])
    combined = combined / combined.sum()

    diagnostics.append(SplitDiagnostics(
        offset=offset, size=n, k=k,
        gamma_c=effective.gamma_c, gamma_b=effective.gamma_b,
        nu_head=float(nu_head), nu_tail=float(nu_tail),
        b_min=float(min(b_head.min(), b_tail.min())),
        b_max=float(max(b_head.max(), b_tail.max())),
        halvings=halvings, gamma_zeroed=gamma_zeroed,
    ))
    return combined, None


def allocate(cov, config: AllocationConfig | None = None) -> AllocationReport:
    """Seriate once, recursively bisect, and return normalized weights.

    The input is validated once, here; the seriation and the recursion then
    work on the trusted matrix and the blocks derived from it. Only weak
    shrinkage, a public step of its own, still checks each block it is given.
    """
    if config is None:
        config = AllocationConfig()
    if not isinstance(cov, CovarianceMatrix):
        cov = CovarianceMatrix(cov)
    if np.diag(cov.values).min() <= 0.0:
        raise ZeroVariance("allocator requires strictly positive variances")

    perm = seriate(cov, method=config.seriation)
    ordered = permute_matrix(cov, perm)

    diagnostics: list[SplitDiagnostics] = []
    try:
        weights, _ = _recurse(ordered, 0, config, diagnostics)
    except ZeroVariance as exc:
        raise NotPSD("a block derived from the covariance has a non-positive variance") from exc
    zeroed = sum(s.gamma_zeroed for s in diagnostics)
    # the cap can zero every split with no retry at all: coupling was asked for and none ran
    if (diagnostics and not config.gammas.zero
            and all(s.gamma_c == s.gamma_b == 0.0 for s in diagnostics)):
        log.warning("gamma (%g, %g) requested, but all %d splits ran at gamma 0: %d capped "
                    "to 0, %d zeroed after %d halvings", *astuple(config.gammas),
                    len(diagnostics), len(diagnostics) - zeroed, zeroed, MAX_GAMMA_HALVINGS)
    elif zeroed:
        log.warning("gamma zeroed at %d of %d splits after %d halvings each",
                    zeroed, len(diagnostics), MAX_GAMMA_HALVINGS)
    weights = weights / weights.sum()
    weights = unpermute_weights(weights, perm)
    return AllocationReport(weights=weights, order=perm, splits=diagnostics,
                            config=config, labels=cov.labels)


def allocate_exact(cov, b=None, gammas: GammaPair | float | tuple | list = 1.0, m: int = 1,
                   split_at: Callable[[int], int] | None = None,
                   rcond: float = DEFAULT_RCOND) -> ScaledSolution:
    """Constraint-propagating recursion; equals Sigma^-1 b exactly at gamma = 1.

    split_at maps a block size n to a split index in [1, n-1]; the default is
    the midpoint ceil(n / 2).
    """
    values = cov_values(cov)
    n = values.shape[0]
    gammas = GammaPair.coerce(gammas)
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")
    if b is None:
        b = np.ones(n)
    else:
        b = np.asarray(b, dtype=float)
        if b.shape != (n,):
            raise InputError(f"b has shape {b.shape}, expected ({n},)")

    def recurse(block: np.ndarray, carry: np.ndarray) -> np.ndarray:
        size = block.shape[0]
        if size <= m:
            return checked_solve(block, carry, rcond=rcond, exc=SingularComplement)
        k = split_at(size) if split_at is not None else math.ceil(size / 2)
        sp = split(block, k)
        comp_head = schur_complement(sp, "A", gammas.gamma_c, rcond=rcond)
        comp_tail = schur_complement(sp, "D", gammas.gamma_c, rcond=rcond)
        carry_head = b_vector(sp, "A", gammas.gamma_b, carry=carry, rcond=rcond)
        carry_tail = b_vector(sp, "D", gammas.gamma_b, carry=carry, rcond=rcond)
        return np.concatenate([
            recurse(comp_head, carry_head),
            recurse(comp_tail, carry_tail),
        ])

    x = recurse(values, b)
    denom = budget(b, x, rcond, NumericalError, "b' x vanishes; cannot normalize exact solution")
    return ScaledSolution(values=x, fitness=1.0 / denom, weights=x / denom)
