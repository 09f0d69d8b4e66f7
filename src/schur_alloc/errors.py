"""Exception hierarchy.

Two branches matter for the CLI: InputError maps to exit code 2
(bad or inconsistent input), NumericalError maps to exit code 3
(a solve or factorization failed on otherwise valid input).
"""


class SchurAllocError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SchurAllocError):
    """Invalid argument, shape, or configuration."""


class NumericalError(SchurAllocError):
    """A numerical operation failed (singularity, indefiniteness, ...)."""


# --- input / validation ---------------------------------------------------

class DimensionMismatch(InputError):
    pass


class BadIndex(InputError):
    pass


class TooFewSamples(InputError):
    pass


class NonFiniteInput(InputError):
    pass


class InvalidRho(InputError):
    pass


class XiOutOfRange(InputError):
    pass


class ZeroVariance(InputError):
    pass


class AllNonPositive(InputError):
    pass


class EmptyResult(InputError):
    pass


# --- numerical ------------------------------------------------------------

class NotPSD(NumericalError):
    pass


class SingularCovariance(NumericalError):
    pass


class ZeroNormalizer(NumericalError):
    pass


class SingularQ(NumericalError):
    pass


class DegenerateConstraint(NumericalError):
    pass


class SingularComplementBlock(NumericalError):
    pass


class SingularComplement(NumericalError):
    pass


class DegenerateBVector(NumericalError):
    pass


class NoFeasibleXi(NumericalError):
    pass
