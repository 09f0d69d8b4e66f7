"""Hierarchical portfolio allocation spanning the continuum from HRP
(gamma = 0) to the exact minimum-variance portfolio (gamma = 1) via
Schur-complement augmented covariance blocks."""

import logging

from .allocator import (
    AllocationConfig,
    AllocationReport,
    allocate,
    allocate_exact,
)
from .covmat import (
    CovarianceMatrix,
    ReturnsPanel,
    empirical_covariance,
    is_positive_definite,
    rand_symm_cov,
    sample_gaussian,
)
from .portfolio import (
    FITNESS_KINDS,
    ScaledSolution,
    fitness,
    min_var_general,
    min_var_unit,
    portfolio_variance,
)
from .schur import (
    BlockSplit,
    GammaPair,
    augment_intra,
    b_vector,
    max_feasible_gamma,
    schur_complement,
    split,
)
from .seriation import (
    Permutation,
    correlation_distance,
    permute_matrix,
    seriate,
    unpermute_weights,
)
from .shrinkage import ShrinkageResult, long_only_clip, scale_off_diagonal, weak_shrink
from .sim import ExperimentConfig, ExperimentResult, run_experiment, summarize

__version__ = "0.1.0"

# Library warnings (a split's gamma zeroed) print only where the caller configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())
