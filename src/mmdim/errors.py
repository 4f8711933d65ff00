"""Exception types shared across the package."""


class MMDimError(Exception):
    """Base class for all package errors."""


class ConfigurationError(MMDimError):
    """Invalid model parameters or experiment configuration."""


class WindowExhaustedError(MMDimError):
    """An operation needs more coordinates than the window reliably holds."""


class EnumerationCapError(MMDimError):
    """Requested enumeration exceeds the configured cap; use sampling instead."""


class PoolInsufficientError(MMDimError):
    """Candidate pool cannot reach the requested covered mass."""


class BracketError(MMDimError):
    """Root or critical-value bracketing failed."""


class DegenerateFitError(MMDimError):
    """Regression requested on a degenerate grid."""
