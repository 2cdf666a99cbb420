"""Entropies, Schatten norms and distances on truncated states.

All quantities are computed from spectra.  Eigenvalues below 1e-300
contribute zero to entropy sums; tiny negatives within the clamp window
are zeroed, anything worse raises.  States are used exactly as given,
sub-normalized or not; nothing is renormalized here.
"""

import math

import numpy as np

from .errors import DomainError
from .linalg import hermitian_spectrum
from .states import DiagonalState, clamp_spectrum

# Spectrum entries below this are treated as exact zeros in x ln x sums.
ENTROPY_FLOOR = 1e-300


def state_spectrum(state) -> np.ndarray:
    """Descending clamped spectrum of a DensityMatrix or DiagonalState."""
    if isinstance(state, DiagonalState):
        vals = np.sort(state.probs)[::-1]
    else:
        vals = hermitian_spectrum(state.matrix)
    return clamp_spectrum(vals)


def von_neumann_entropy(state) -> float:
    """-sum(x ln x) over the spectrum, 0.0 where that sum rounds below zero.

    A pure state's top eigenvalue can round just above 1, so its sum can
    read a few ulps below zero; -0.0 and every sum >= 0 are kept as they are.
    """
    vals = state_spectrum(state)
    vals = vals[vals > ENTROPY_FLOOR]
    if vals.size == 0:
        return 0.0
    total = float(-np.sum(vals * np.log(vals)))
    return 0.0 if total < 0.0 else total


def _spectrum_norm(vals: np.ndarray, alpha: float) -> float:
    """(sum of vals**alpha)**(1/alpha) of a clamped spectrum sorted descending, alpha > 1."""
    a = float(alpha)
    if not a > 1.0:
        raise DomainError(f"schatten_norm needs alpha > 1, got {a!r}")
    vals = vals[vals > 0.0]
    if vals.size == 0:
        return 0.0
    # factor out the largest value to avoid overflow/underflow in the powers
    top = vals[0]
    return float(top * np.sum((vals / top) ** a) ** (1.0 / a))


def schatten_norm(state, alpha: float) -> float:
    """(sum of spectrum**alpha)**(1/alpha) for a positive operator, alpha > 1."""
    return _spectrum_norm(state_spectrum(state), alpha)


def schatten_norms(matrices: np.ndarray, alpha: float) -> list:
    """schatten_norm of each positive matrix in a stack, from one stacked eigensolve."""
    return [_spectrum_norm(v, alpha) for v in clamp_spectrum(hermitian_spectrum(matrices))]


def renyi_entropy(state, alpha: float) -> float:
    """(alpha / (1 - alpha)) ln ||state||_alpha for alpha > 1."""
    a = float(alpha)
    if not a > 1.0:
        raise DomainError(f"renyi_entropy needs alpha > 1, got {a!r}")
    norm = schatten_norm(state, a)
    if norm <= 0.0:
        raise DomainError("renyi_entropy of an identically zero spectrum")
    return float(a / (1.0 - a) * math.log(norm))


def _as_matrix(state) -> np.ndarray:
    if isinstance(state, DiagonalState):
        return np.diag(state.probs.astype(complex))
    return state.matrix


def trace_distance(a, b) -> float:
    """Half the sum of absolute eigenvalues of the difference."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    n = max(ma.shape[0], mb.shape[0])
    pa = np.zeros((n, n), dtype=complex)
    pb = np.zeros((n, n), dtype=complex)
    pa[: ma.shape[0], : ma.shape[0]] = ma
    pb[: mb.shape[0], : mb.shape[0]] = mb
    vals = hermitian_spectrum(pa - pb)
    return float(0.5 * np.abs(vals).sum())


def spectral_distance(a, b) -> float:
    """Half l1 distance between descending spectra, zero-padded to match.

    For commuting (e.g. Fock-diagonal) states this equals the trace
    distance; it is the natural gauge for comparing a channel output
    against a predicted thermal state.
    """
    sa = state_spectrum(a)
    sb = state_spectrum(b)
    n = max(sa.size, sb.size)
    pa = np.zeros(n)
    pb = np.zeros(n)
    pa[: sa.size] = sa
    pb[: sb.size] = sb
    return float(0.5 * np.abs(pa - pb).sum())
