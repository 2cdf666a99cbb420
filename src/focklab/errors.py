"""Exception types shared across the package."""


class FockLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(FockLabError, ValueError):
    """A cutoff or matrix dimension is out of the supported range."""


class ResourceLimitError(FockLabError):
    """An allocation would pass MAX_DENSE_BYTES; only channels.checked_bytes raises it."""


class NonHermitianError(FockLabError, ValueError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class EigensolverError(FockLabError):
    """The eigensolver failed to converge."""


class PositivityError(FockLabError, ValueError):
    """A spectrum contains a negative eigenvalue beyond the clamp window."""


class DomainError(FockLabError, ValueError):
    """A scalar argument is outside the mathematical domain of the function."""


class TruncationError(FockLabError):
    """Truncation lost too much trace mass; carries the measured deficit."""

    def __init__(self, message, deficit=None):
        super().__init__(message)
        self.deficit = deficit


class LemmaViolationError(FockLabError):
    """The stationary-order solver found no root to bracket."""


class ConfigError(FockLabError, ValueError):
    """A run configuration file or flag combination is invalid."""
