"""Constrained minimum-output-entropy bounds and their verification.

For each channel the conjectured-and-proved lower bound on the output
entropy, given input entropy S, is the output entropy of the thermal
input with that same entropy.  check_cmoe measures the gap for a
concrete state and classifies it, converting truncation deficits into an
explicit error margin rather than trusting raw float comparisons.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lemma
from .channels import ChannelDims, ChannelSpec, amplifier, apply_channel, apply_diagonal
from .entropy import renyi_entropy, state_spectrum, von_neumann_entropy
from .errors import DomainError, TruncationError
from .states import DensityMatrix, DiagonalState
from .thermal import g, g_inv, log_thermal_schatten_norm, z_of_energy

# Verdict rules: a gap below -(margin + VIOLATION_SLACK) is a candidate
# violation; |gap| within max(EQUALITY_TOL, margin) counts as equality.
EQUALITY_TOL = 1e-6
VIOLATION_SLACK = 1e-9
MAX_INPUT_DEFICIT = 1e-4

VERDICT_SATISFIED = "Satisfied"
VERDICT_EQUALITY = "Equality"
VERDICT_VIOLATION = "ViolationCandidate"
VERDICT_SUPPRESSED = "Suppressed"


def bound_for(spec: ChannelSpec, entropy_in: float) -> float:
    """g of the output energy of the thermal input with entropy entropy_in."""
    return g(spec.output_energy(g_inv(entropy_in)))


def entropy_truncation_margin(deficit: float, dim: int) -> float:
    """Continuity allowance for entropy computed on a truncated state."""
    d = float(deficit)
    if d <= 0.0:
        return 0.0
    if not d < 1.0:
        raise DomainError(f"deficit must be < 1, got {d!r}")
    binary = -d * math.log(d) - (1.0 - d) * math.log1p(-d)
    return d * math.log(dim) + binary


@dataclass(frozen=True)
class CmoeReport:
    input_entropy: float
    output_entropy: float
    bound: float
    gap: float
    truncation_margin: float
    verdict: Optional[str]

    @property
    def verdict_label(self) -> str:
        return self.verdict if self.verdict is not None else VERDICT_SUPPRESSED


def _classify(gap: float, margin: float) -> str:
    if gap < -(margin + VIOLATION_SLACK):
        return VERDICT_VIOLATION
    if abs(gap) <= max(EQUALITY_TOL, margin):
        return VERDICT_EQUALITY
    return VERDICT_SATISFIED


def _check_input_deficit(state) -> None:
    d = state.trace_deficit
    if d > MAX_INPUT_DEFICIT:
        raise DomainError(f"input trace_deficit {d:.3e} exceeds {MAX_INPUT_DEFICIT}")


def check_cmoe(spec: ChannelSpec, state, dims: Optional[ChannelDims] = None) -> CmoeReport:
    """Compare the output entropy of `state` against the channel's bound."""
    _check_input_deficit(state)
    s_in = von_neumann_entropy(state)
    bound = bound_for(spec, s_in)
    margin_in = entropy_truncation_margin(state.trace_deficit, state.dim)
    try:
        if isinstance(state, DiagonalState):
            out = apply_diagonal(spec, state, dims)
        else:
            out = apply_channel(spec, state, dims)
    except TruncationError:
        return CmoeReport(
            input_entropy=s_in,
            output_entropy=float("nan"),
            bound=bound,
            gap=float("nan"),
            truncation_margin=float("nan"),
            verdict=None,
        )
    s_out = von_neumann_entropy(out)
    margin = margin_in + entropy_truncation_margin(out.trace_deficit, out.dim)
    gap = s_out - bound
    return CmoeReport(
        input_entropy=s_in,
        output_entropy=s_out,
        bound=bound,
        gap=gap,
        truncation_margin=margin,
        verdict=_classify(gap, margin),
    )


# ---------------------------------------------------------------------------
# amplifier entropy chain: vN entropy >= alpha-entropy >= shifted thermal value
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
    renyi_q_thermal_output: float
    renyi_p_input: float
    renyi_p_thermal: float
    step_monotone: float
    step_saturation: float
    slack: float

    @property
    def holds(self) -> bool:
        return self.step_monotone >= -self.slack and self.step_saturation >= -self.slack


def _renyi_truncation_slack(state, alpha: float) -> float:
    """Bound on |Renyi entropy error| from a recorded trace deficit."""
    d = float(state.trace_deficit)
    if d <= 0.0:
        return 0.0
    vals = state_spectrum(state)
    power_sum = float(np.sum(vals[vals > 0.0] ** alpha))
    if power_sum <= 0.0:
        return float("inf")
    # the omitted tail contributes at most deficit**alpha to the power sum
    return d**alpha / ((alpha - 1.0) * power_sum)


def amplifier_entropy_chain(rho: DensityMatrix, gain: float, q: float) -> EntropyChainRecord:
    """Evaluate the two-step chain bounding the amplifier output entropy.

    Step one: the von Neumann entropy of the output dominates its
    q-entropy.  Step two: the q-entropy of the output dominates the
    q-entropy of the thermal output plus a weighted difference of
    p-entropies, with p solved from the norm-ratio stationarity
    condition at the entropy-matched thermal input.  Like check_cmoe, it
    refuses an input whose trace_deficit exceeds MAX_INPUT_DEFICIT.
    """
    _check_input_deficit(rho)
    spec = amplifier(gain)
    s_in = von_neumann_entropy(rho)
    if s_in <= 0.0:
        raise DomainError("chain needs an input with strictly positive entropy")
    e_ref = g_inv(s_in)
    z_bar = z_of_energy(e_ref)
    p = lemma.solve_p_of_q(z_bar, gain, q)
    prefactor = (q / (q - 1.0)) * ((p - 1.0) / p)
    out = apply_channel(spec, rho)
    s_out = von_neumann_entropy(out)
    sq_out = renyi_entropy(out, q)
    # the entropy-matched thermal input and its output, in closed form
    sq_thermal = q / (1.0 - q) * log_thermal_schatten_norm(lemma.amplifier_z_map(z_bar, gain), q)
    sp_in = renyi_entropy(rho, p)
    sp_thermal = p / (1.0 - p) * log_thermal_schatten_norm(z_bar, p)
    step1 = s_out - sq_out
    step2 = sq_out - sq_thermal - prefactor * (sp_in - sp_thermal)
    slack = (
        VIOLATION_SLACK
        + _renyi_truncation_slack(out, q)
        + prefactor * _renyi_truncation_slack(rho, p)
        + entropy_truncation_margin(out.trace_deficit, out.dim)
    )
    return EntropyChainRecord(
        gain=float(gain),
        q=float(q),
        p=float(p),
        prefactor=float(prefactor),
        input_entropy=s_in,
        output_entropy=s_out,
        renyi_q_output=sq_out,
        renyi_q_thermal_output=sq_thermal,
        renyi_p_input=sp_in,
        renyi_p_thermal=sp_thermal,
        step_monotone=step1,
        step_saturation=step2,
        slack=slack,
    )
