"""Thermal (geometric) states and the mean-energy entropy function.

g(E) = (E+1)ln(E+1) - E ln E is the von Neumann entropy of the thermal
state with mean photon number E.  The geometric ratio z = E/(E+1) gives
occupation probabilities (1-z) z^n, so a state truncated at `cutoff`
levels misses exactly z^cutoff of its mass.
"""

import math

import numpy as np

from .errors import DomainError
from .states import DiagonalState, checked_levels

# Below this energy 1/E overflows; g is then E(1 - ln E) to double precision.
_G_SMALL = 1e-300


def g(energy: float) -> float:
    """Entropy of the thermal state with the given mean photon number."""
    e = float(energy)
    if not e >= 0.0:
        raise DomainError(f"g needs energy >= 0, got {e!r}")
    if e == 0.0:
        return 0.0
    if e < _G_SMALL:
        return e * (1.0 - math.log(e))
    # = (E+1) ln(E+1) - E ln E, as a sum of two positive terms
    return math.log1p(e) + e * math.log1p(1.0 / e)


def g_prime(energy: float) -> float:
    """Derivative dg/dE = ln(1 + 1/E)."""
    e = float(energy)
    if not e > 0.0:
        raise DomainError(f"g_prime needs energy > 0, got {e!r}")
    return math.log1p(1.0 / e)


def g_inv(entropy: float) -> float:
    """Mean photon number of the thermal state with the given entropy.

    Newton steps from a start below the root, then two polish steps.
    g(E) <= ln(E+1) + 1 and g(E) <= E(1 + E - ln E), so g is at most s
    at the start expm1(s - 1) for s > 1 and s/(3 - 2 ln s) for s <= 1;
    g is concave and increasing, so the iterates rise monotonically to
    the root, in at most 7 steps for s from 1e-300 to 710.  Below
    _G_SMALL, where 1/E overflows, it solves E(1 - ln E) = s instead.
    """
    s = float(entropy)
    if not 0.0 <= s < math.inf:
        raise DomainError(f"g_inv needs a finite entropy >= 0, got {s!r}")
    if s == 0.0:
        return 0.0
    if s < _G_SMALL:
        # E = s/(1 - ln E) contracts by 1/(1 - ln E) < 1/690 a step; on
        # t = E * 2**600 only the last division rounds to a subnormal
        t = s * 2.0**600
        for _ in range(8):
            t = s * 2.0**600 / (1.0 + 600.0 * math.log(2.0) - math.log(t))
        return t / 2.0**600
    try:
        e = math.expm1(s - 1.0) if s > 1.0 else s / (3.0 - 2.0 * math.log(s))
    except OverflowError:
        raise DomainError(f"entropy {s!r} out of reachable range") from None
    for _ in range(100):
        step = (s - g(e)) / g_prime(e)
        if not e + step > e:
            break
        e += step
    for _ in range(2):
        step = (g(e) - s) / g_prime(e)
        if e - step > 0.0:
            e = e - step
    return e


def z_of_energy(energy: float) -> float:
    """Geometric ratio z = E/(E+1)."""
    e = float(energy)
    if not e >= 0.0:
        raise DomainError(f"z_of_energy needs energy >= 0, got {e!r}")
    return e / (e + 1.0)


def thermal_state(energy: float, cutoff: int) -> DiagonalState:
    """Thermal state truncated at `cutoff` levels; deficit is exactly z^cutoff."""
    e = float(energy)
    if not e >= 0.0:
        raise DomainError(f"thermal_state needs energy >= 0, got {e!r}")
    cutoff = checked_levels("thermal_state cutoff", cutoff)
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
    # ln z, or -ln(1 + 1/E) where z rounds to 1 (E past ~1e16)
    levels = math.log(t) / (math.log(e / (e + 1.0)) or -math.log1p(1.0 / e))
    if not levels < math.inf:  # a NaN or infinite energy, or a cutoff past the float range
        raise DomainError(f"energy {e!r} has no finite tail cutoff")
    return max(1, math.ceil(levels))


def _one_minus_pow(z, expo) -> np.ndarray:
    """1 - z**expo computed without cancellation, with 1 - 0**e = 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.expm1(np.multiply(expo, np.log(z)))
    return np.where(z == 0.0, 1.0, out)


def _log_norm(z, p):
    """log_thermal_schatten_norm without argument checks: 0 <= z < 1, p > 1."""
    # a z that rounds to 1, as at a huge amplifier gain, gives -inf or NaN quietly
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log1p(-z) - np.log(_one_minus_pow(z, p)) / p


def _norm_args(z, p):
    z_arr = np.asarray(z, dtype=float)
    p_arr = np.asarray(p, dtype=float)
    if np.any(z_arr < 0.0) or np.any(z_arr >= 1.0):
        raise DomainError("log_thermal_schatten_norm needs 0 <= z < 1")
    if not np.all(p_arr > 1.0):
        raise DomainError("log_thermal_schatten_norm needs p > 1")
    return z_arr, p_arr


def log_thermal_schatten_norm(z, p):
    """ln ||thermal(z)||_p = ln(1-z) - (1/p) ln(1-z^p), in closed form.

    Accepts scalars or arrays; stable near z -> 1 via expm1/log1p.
    """
    out = _log_norm(*_norm_args(z, p))
    return float(out) if out.ndim == 0 else out
