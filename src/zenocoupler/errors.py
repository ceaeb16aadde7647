"""Exception types shared across the package."""


class ZenoCouplerError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameters(ZenoCouplerError, ValueError):
    """An input violates a hard precondition (e.g. k = 0, z < 0, a
    non-finite amplitude or a malformed axis)."""


class ExcessiveTruncationLoss(ZenoCouplerError):
    """Fock-space cutoffs are too small for the requested amplitudes."""


class NonConvergence(ZenoCouplerError):
    """The oracle's Chebyshev exponential would need a degree above its
    fixed cap (a propagation length far too long for the couplings)."""
