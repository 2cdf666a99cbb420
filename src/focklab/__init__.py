"""Numerical laboratory for one-mode phase-covariant and
phase-contravariant Gaussian channels in truncated Fock space."""

from .channels import (
    ChannelDims,
    ChannelKind,
    ChannelSpec,
    additive_noise,
    amplifier,
    apply_channel,
    apply_diagonal,
    attenuator,
    contravariant_amplifier,
    decompose,
    default_dims,
    get_channel_map,
)
from .cmoe import CmoeReport, bound_for, check_cmoe
from .entropy import schatten_norm, spectral_distance, von_neumann_entropy
from .errors import FockLabError
from .states import DensityMatrix, DiagonalState
from .thermal import g, g_inv, thermal_state, thermal_tail_cutoff

__version__ = "0.1.0"

__all__ = [
    "ChannelDims",
    "ChannelKind",
    "ChannelSpec",
    "CmoeReport",
    "DensityMatrix",
    "DiagonalState",
    "FockLabError",
    "additive_noise",
    "amplifier",
    "apply_channel",
    "apply_diagonal",
    "attenuator",
    "bound_for",
    "check_cmoe",
    "contravariant_amplifier",
    "decompose",
    "default_dims",
    "g",
    "g_inv",
    "get_channel_map",
    "schatten_norm",
    "spectral_distance",
    "thermal_state",
    "thermal_tail_cutoff",
    "von_neumann_entropy",
]
