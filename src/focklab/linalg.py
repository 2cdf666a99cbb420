"""Dense linear algebra for truncated Fock space.

Conventions: the annihilation operator has <n-1|a|n> = sqrt(n); composite
indices are system-major, (m, j) -> m * d_env + j for system level m and
environment level j.  Dense joint objects are refused above MAX_JOINT_DIM.
"""

import numpy as np

from .errors import (
    DimensionMismatchError,
    EigensolverError,
    InvalidDimensionError,
    NonHermitianError,
    ResourceLimitError,
)
from .states import HERMITICITY_TOL

# Largest dense joint dimension we will materialize (e.g. 128 x 128 modes).
MAX_JOINT_DIM = 16384


def ladder(cutoff: int) -> np.ndarray:
    """Annihilation operator truncated to `cutoff` Fock levels."""
    if cutoff < 2:
        raise InvalidDimensionError(f"ladder needs cutoff >= 2, got {cutoff}")
    a = np.zeros((cutoff, cutoff), dtype=complex)
    n = np.arange(1, cutoff)
    a[n - 1, n] = np.sqrt(n)
    return a


def check_joint_dim(d_sys: int, d_env: int) -> int:
    joint = d_sys * d_env
    if joint > MAX_JOINT_DIM:
        raise ResourceLimitError(
            f"dense joint dimension {d_sys}*{d_env}={joint} exceeds limit {MAX_JOINT_DIM}"
        )
    return joint


def partial_trace(joint: np.ndarray, d_sys: int, d_env: int, keep: str = "sys") -> np.ndarray:
    """Trace out one factor of a (d_sys*d_env)-dimensional joint matrix."""
    joint = np.asarray(joint, dtype=complex)
    if joint.shape != (d_sys * d_env, d_sys * d_env):
        raise DimensionMismatchError(
            f"joint shape {joint.shape} incompatible with {d_sys}x{d_env} factors"
        )
    t = joint.reshape(d_sys, d_env, d_sys, d_env)
    if keep == "sys":
        return np.einsum("ijkj->ik", t)
    if keep == "env":
        return np.einsum("ijil->jl", t)
    raise DimensionMismatchError(f"keep must be 'sys' or 'env', got {keep!r}")


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"expected a square matrix, got shape {m.shape}")
    defect = float(np.abs(m - m.conj().T).max(initial=0.0))
    if defect > HERMITICITY_TOL * max(1.0, float(np.abs(m).max(initial=0.0))):
        raise NonHermitianError(f"Hermiticity defect {defect:.3e} too large")
    return m


def hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    m = _require_hermitian(m)
    try:
        vals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    return vals[::-1].copy()


def hermitian_eigh(m: np.ndarray):
    """Eigenvalues (descending) and matching eigenvector columns."""
    m = _require_hermitian(m)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(vals)[::-1]
    return vals[order].copy(), vecs[:, order].copy()
