"""Thermal (geometric) states and the mean-energy entropy function.

g(E) = (E+1)ln(E+1) - E ln E is the von Neumann entropy of the thermal
state with mean photon number E.  The geometric ratio z = E/(E+1) gives
occupation probabilities (1-z) z^n, so a state truncated at `cutoff`
levels misses exactly z^cutoff of its mass.
"""

import math

import numpy as np

from .errors import DomainError
from .states import DiagonalState

# Below this energy the direct formula for g loses all digits to
# cancellation; switch to the leading expansion E(1 - ln E).
_G_SMALL = 1e-12


def g(energy: float) -> float:
    """Entropy of the thermal state with the given mean photon number."""
    e = float(energy)
    if e < 0.0:
        raise DomainError(f"g needs energy >= 0, got {e!r}")
    if e == 0.0:
        return 0.0
    if e < _G_SMALL:
        return e * (1.0 - math.log(e))
    return (e + 1.0) * math.log(e + 1.0) - e * math.log(e)


def g_prime(energy: float) -> float:
    """Derivative dg/dE = ln(1 + 1/E)."""
    e = float(energy)
    if e <= 0.0:
        raise DomainError(f"g_prime needs energy > 0, got {e!r}")
    return math.log1p(1.0 / e)


def g_inv(entropy: float) -> float:
    """Mean photon number of the thermal state with the given entropy.

    Doubling bracket, bisection, then two Newton polish steps.
    """
    s = float(entropy)
    if s < 0.0:
        raise DomainError(f"g_inv needs entropy >= 0, got {s!r}")
    if s == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while g(hi) < s:
        lo, hi = hi, 2.0 * hi
        if hi > 1e300:  # pragma: no cover - would need entropy ~ 700
            raise DomainError(f"entropy {s!r} out of reachable range")
    for _ in range(200):
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) < s:
            lo = mid
        else:
            hi = mid
    e = 0.5 * (lo + hi)
    for _ in range(2):
        if e <= 0.0:
            break
        step = (g(e) - s) / g_prime(e)
        if e - step > 0.0:
            e = e - step
    return e


def z_of_energy(energy: float) -> float:
    """Geometric ratio z = E/(E+1)."""
    e = float(energy)
    if e < 0.0:
        raise DomainError(f"z_of_energy needs energy >= 0, got {e!r}")
    return e / (e + 1.0)


def thermal_state(energy: float, cutoff: int) -> DiagonalState:
    """Thermal state truncated at `cutoff` levels; deficit is exactly z^cutoff."""
    e = float(energy)
    if e < 0.0:
        raise DomainError(f"thermal_state needs energy >= 0, got {e!r}")
    if cutoff < 1:
        raise DomainError(f"thermal_state needs cutoff >= 1, got {cutoff}")
    if e == 0.0:
        probs = np.zeros(cutoff)
        probs[0] = 1.0
        return DiagonalState(probs, 0.0)
    z = z_of_energy(e)
    n = np.arange(cutoff)
    probs = np.exp(n * math.log(z) - math.log(e + 1.0))
    return DiagonalState(probs, z**cutoff)


def thermal_tail_cutoff(energy: float, tail: float) -> int:
    """Smallest cutoff whose truncation deficit z^cutoff is <= tail."""
    e = float(energy)
    t = float(tail)
    if e < 0.0 or not 0.0 < t < 1.0:
        raise DomainError(f"bad arguments energy={e!r}, tail={t!r}")
    if e == 0.0:
        return 1
    z = z_of_energy(e)
    return max(1, math.ceil(math.log(t) / math.log(z)))


def log_thermal_schatten_norm(z, p):
    """ln ||thermal(z)||_p = ln(1-z) - (1/p) ln(1-z^p), in closed form.

    Accepts scalars or arrays; stable near z -> 1 via expm1/log1p.
    """
    z_arr = np.asarray(z, dtype=float)
    p_arr = np.asarray(p, dtype=float)
    if np.any(z_arr < 0.0) or np.any(z_arr >= 1.0):
        raise DomainError("log_thermal_schatten_norm needs 0 <= z < 1")
    if np.any(p_arr <= 1.0):
        raise DomainError("log_thermal_schatten_norm needs p > 1")
    with np.errstate(divide="ignore"):
        log_z = np.where(z_arr > 0.0, np.log(z_arr), -np.inf)
    one_minus_zp = -np.expm1(p_arr * log_z)  # 1 - z^p, accurate for z near 1
    out = np.log1p(-z_arr) - np.log(one_minus_zp) / p_arr
    if out.ndim == 0:
        return float(out)
    return out
