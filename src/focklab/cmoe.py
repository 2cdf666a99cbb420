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

from .channels import ChannelDims, ChannelSpec, apply_channel, apply_diagonal
from .entropy import von_neumann_entropy
from .errors import DomainError, TruncationError
from .states import DiagonalState
from .thermal import g, g_inv

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
