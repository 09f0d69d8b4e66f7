"""Hierarchical portfolio allocation spanning the continuum from HRP
(gamma = 0) to the exact minimum-variance portfolio (gamma = 1) via
Schur-complement augmented covariance blocks."""

import ctypes
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

# Library warnings (gamma zeroed or lost at splits) print only where the caller configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())

# glibc lifts its mmap threshold to the largest block freed (up to 32 MiB): n x n arrays then
# share the brk heap with small kept arrays, and peak RSS jumps by n x n arrays between runs.
# Fixed, blocks of 1 MiB and more are mapped alone (at 4 MiB the split blocks still jump).
try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 2 ** 20)       # M_MMAP_THRESHOLD
    _mallopt(-1, 2 ** 23)       # M_TRIM_THRESHOLD: return a free heap top past 8 MiB
except (AttributeError, OSError, TypeError):
    pass                        # no glibc mallopt: nothing to fix
