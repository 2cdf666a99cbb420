"""Closed forms and the amplifier entropy chain: the tests' references for what the commands check.

No command runs these.  verify-lemma reads the thermal norm ratio
through lemma._log_norm_ratio without argument checks; here are the
checked closed forms, ln ||thermal(z)||_p and the amplifier's thermal
p->q ratio, which refuse z outside [0, 1) and orders not above 1.
renyi_entropy and trace_distance are the spectral quantities the tests
compare channel outputs and closed forms with.

amplifier_entropy_chain evaluates the paper's two-step bound on the
amplifier's output entropy, von Neumann entropy >= q-entropy >= its
thermal value, on one input; criterion 05 runs it over random and
thermal inputs.  Its second step is the p->q margin that verify-lemma's
saturation probe checks on passive inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from focklab.channels import amplifier, apply_channel
from focklab.cmoe import VIOLATION_SLACK, _check_input_deficit, entropy_truncation_margin
from focklab.entropy import schatten_norm, von_neumann_entropy
from focklab.errors import DomainError
from focklab.lemma import _log_norm_ratio, amplifier_z_map, solve_p_of_q
from focklab.linalg import hermitian_spectrum
from focklab.states import DensityMatrix, DiagonalState
from focklab.thermal import _log_norm, g_inv, z_of_energy

# ---------------------------------------------------------------------------
# spectral quantities
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# checked thermal closed forms
# ---------------------------------------------------------------------------


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


def log_thermal_norm_ratio(z, gain, p, q):
    """ln of output-q-norm over input-p-norm for the thermal family."""
    _, q = _norm_args(amplifier_z_map(z, gain), q)
    z, p = _norm_args(z, p)
    out = _log_norm_ratio(z, float(gain), p, q)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# amplifier entropy chain: vN entropy >= q-entropy, then the p->q norm bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyChainRecord:
    gain: float
    q: float
    p: float
    prefactor: float
    input_entropy: float
    output_entropy: float
    renyi_q_output: float
    log_ratio: float
    log_thermal_ratio: float
    step_monotone: float
    step_saturation: float
    slack: float

    @property
    def holds(self) -> bool:
        return self.step_monotone >= -self.slack and self.step_saturation >= -self.slack


def _renyi_truncation_slack(deficit: float, alpha: float, log_norm: float) -> float:
    """Bound on |Renyi entropy error| from a recorded trace deficit and ln ||state||_alpha."""
    if deficit <= 0.0:
        return 0.0
    # the omitted tail contributes at most deficit**alpha to the power sum
    return deficit**alpha / ((alpha - 1.0) * math.exp(alpha * log_norm))


def amplifier_entropy_chain(rho: DensityMatrix, gain: float, q: float) -> EntropyChainRecord:
    """Evaluate the two-step chain bounding the amplifier output entropy.

    Step one: the output's von Neumann entropy dominates its q-entropy.
    Step two: the p->q norm ratio ln||out||_q - ln||rho||_p stays below its
    value on the entropy-matched thermal input z_bar, with p solved from the
    stationarity condition at z_bar; the step is that margin times q/(q-1).
    Like check_cmoe, it refuses an input whose trace_deficit exceeds MAX_INPUT_DEFICIT.
    """
    _check_input_deficit(rho)
    s_in = von_neumann_entropy(rho)
    if s_in <= 0.0:
        raise DomainError("chain needs an input with strictly positive entropy")
    z_bar = z_of_energy(g_inv(s_in))
    p = solve_p_of_q(z_bar, gain, q)
    prefactor = (q / (q - 1.0)) * ((p - 1.0) / p)
    out = apply_channel(amplifier(gain), rho)
    s_out = von_neumann_entropy(out)
    log_out = math.log(schatten_norm(out, q))
    log_in = math.log(schatten_norm(rho, p))
    ceiling = log_thermal_norm_ratio(z_bar, gain, p, q)
    sq_out = q / (1.0 - q) * log_out
    slack = VIOLATION_SLACK + _renyi_truncation_slack(out.trace_deficit, q, log_out)
    slack += prefactor * _renyi_truncation_slack(rho.trace_deficit, p, log_in)
    slack += entropy_truncation_margin(out.trace_deficit, out.dim)
    return EntropyChainRecord(
        gain=float(gain),
        q=float(q),
        p=float(p),
        prefactor=float(prefactor),
        input_entropy=s_in,
        output_entropy=s_out,
        renyi_q_output=sq_out,
        log_ratio=log_out - log_in,
        log_thermal_ratio=ceiling,
        step_monotone=s_out - sq_out,
        step_saturation=q / (q - 1.0) * (ceiling - (log_out - log_in)),
        slack=slack,
    )
