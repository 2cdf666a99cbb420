"""State containers for truncated Fock space.

A state truncated at dimension d keeps only the Fock levels 0..d-1.  The
mass lost to the discarded tail is recorded in ``trace_deficit`` and is
never silently renormalized away; downstream checks convert the deficit
into explicit error margins instead.
"""

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidDimensionError, PositivityError

# Validation tolerances.  Eigenvalues in [NEG_EIG_CLAMP, 0) are treated as
# roundoff and clamped to zero; anything more negative is a real failure.
HERMITICITY_TOL = 1e-12
NEG_EIG_CLAMP = -1e-10
DIAG_NEG_CLAMP = -1e-14


def checked_levels(what: str, levels) -> int:
    """levels as an int; DomainError unless it is an integer >= 1 with a finite float value."""
    if isinstance(levels, numbers.Integral) and not isinstance(levels, bool):
        if 1 <= levels <= sys.float_info.max:
            return int(levels)
        if levels > 1:  # not printed: str() refuses ints past 4,300 digits
            raise DomainError(f"{what} must convert to a finite float, got a larger int")
    raise DomainError(f"{what} must be an integer >= 1, got {levels!r}")


def clamp_spectrum(values):
    """Clamp tiny negative eigenvalues to zero, reject larger ones and non-finite ones."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise DomainError("spectrum has a non-finite value")
    low = float(values.min(initial=0.0))
    if low < NEG_EIG_CLAMP:
        raise PositivityError(
            f"negative eigenvalue {low:.3e} below clamp window {NEG_EIG_CLAMP:.1e}"
        )
    return np.where(values < 0.0, 0.0, values)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive semidefinite matrix with trace at most one.

    Only the shape is checked here; the tests' validate_state checks the rest.
    """

    matrix: np.ndarray
    trace_deficit: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidDimensionError(f"density matrix must be square, got {m.shape}")
        if m.shape[0] < 1:
            raise InvalidDimensionError("density matrix must have dimension >= 1")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @classmethod
    def from_matrix(cls, matrix) -> "DensityMatrix":
        """Wrap a matrix, inferring the deficit from its trace."""
        m = np.asarray(matrix, dtype=complex)
        deficit = max(0.0, 1.0 - float(np.trace(m).real))
        return cls(m, deficit)


@dataclass(frozen=True)
class DiagonalState:
    """Fock-diagonal state stored as a probability vector."""

    probs: np.ndarray = field()
    trace_deficit: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise InvalidDimensionError(f"probability vector must be 1-d, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise DomainError("probability vector has a non-finite entry")
        low = float(p.min(initial=0.0))
        if low < DIAG_NEG_CLAMP:
            raise PositivityError(f"negative probability {low:.3e} below {DIAG_NEG_CLAMP:.1e}")
        p = np.where(p < 0.0, 0.0, p)
        object.__setattr__(self, "probs", p)

    @property
    def dim(self) -> int:
        return self.probs.size

    @property
    def trace(self) -> float:
        return float(self.probs.sum())

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.diag(self.probs.astype(complex)), self.trace_deficit)
