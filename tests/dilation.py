"""Two-mode dilation reference: the tests' independent oracle for the channel maps.

The attenuator is a beamsplitter and both amplifiers a two-mode
squeezer, each with a thermal environment sized by ChannelDims.d_sys
and d_env.  apply_channel_dense evaluates Tr_other[U (rho (x) env) U+]
from the conserved-quantity blocks of U, without the Kraus bands or
the stages that focklab.channels builds its maps from.

Conventions: the annihilation operator has <n-1|a|n> = sqrt(n); composite
indices are system-major, (m, j) -> m * d_env + j for system level m and
environment level j.  Dense joint objects are refused above MAX_JOINT_DIM.

validate_state is the tests' check that a matrix is a density matrix.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from focklab.channels import (
    ChannelDims,
    ChannelKind,
    ChannelSpec,
    _checked_deficit,
    amplifier,
    attenuator,
    default_dims,
)
from focklab.errors import (
    DomainError,
    InvalidDimensionError,
    NonHermitianError,
    PositivityError,
    ResourceLimitError,
)
from focklab.states import HERMITICITY_TOL, DensityMatrix, clamp_spectrum
from focklab.thermal import thermal_state

# Largest dense joint dimension we will materialize (e.g. 128 x 128 modes).
MAX_JOINT_DIM = 16384

# how far a valid state's trace may pass 1, or fall below 1 - trace_deficit
TRACE_SLACK = 1e-12


def validate_state(rho: DensityMatrix) -> DensityMatrix:
    """Check Hermiticity, positivity and trace bookkeeping; return rho."""
    m = rho.matrix
    herm = float(np.abs(m - m.conj().T).max())
    if herm > HERMITICITY_TOL:
        raise NonHermitianError(f"Hermiticity defect {herm:.3e} > {HERMITICITY_TOL:.1e}")
    clamp_spectrum(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))
    tr = rho.trace
    if tr > 1.0 + TRACE_SLACK:
        raise PositivityError(f"trace {tr!r} exceeds 1 + {TRACE_SLACK:.1e}")
    if tr < 1.0 - rho.trace_deficit - TRACE_SLACK:
        raise PositivityError(f"trace {tr!r} below 1 - {rho.trace_deficit!r} - {TRACE_SLACK:.1e}")
    return rho


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
        raise InvalidDimensionError(
            f"joint shape {joint.shape} incompatible with {d_sys}x{d_env} factors"
        )
    t = joint.reshape(d_sys, d_env, d_sys, d_env)
    if keep == "sys":
        return np.einsum("ijkj->ik", t)
    if keep == "env":
        return np.einsum("ijil->jl", t)
    raise DomainError(f"keep must be 'sys' or 'env', got {keep!r}")


# ---------------------------------------------------------------------------
# dilation unitaries, block-factored over the conserved quantity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DilationBlock:
    """One conserved-quantity block in environment coordinates.

    Member with local index t has environment level env_lo + t; the
    system level is (cls - env) for the beamsplitter and (cls + env)
    for the squeezer.
    """

    cls: int
    env_lo: int
    matrix: np.ndarray


@dataclass(frozen=True)
class DilationUnitary:
    """Two-mode coupling unitary, stored block-factored.

    classes maps each conserved quantity to (env_lo, superdiagonal) of
    its generator block; block(cls) exponentiates one on first request.
    """

    generator: str  # "beamsplitter" | "squeezer"
    parameter: float  # transmissivity or gain
    d_sys: int
    d_env: int
    classes: dict
    _built: dict = field(default_factory=dict, repr=False, compare=False)

    def _sys_level(self, cls: int, env: int) -> int:
        if self.generator == "beamsplitter":
            return cls - env
        return cls + env

    def block(self, cls: int) -> DilationBlock:
        got = self._built.get(cls)
        if got is None:
            lo, sup = self.classes[cls]
            got = self._built.setdefault(cls, DilationBlock(cls, lo, _expm_block(sup)))
        return got

    @property
    def blocks(self) -> tuple:
        return tuple(self.block(cls) for cls in self.classes)

    def dense(self) -> np.ndarray:
        """Materialize the joint matrix (system-major); guarded by size limit."""
        joint = check_joint_dim(self.d_sys, self.d_env)
        u = np.zeros((joint, joint), dtype=complex)
        for blk in self.blocks:
            n = blk.matrix.shape[0]
            env = blk.env_lo + np.arange(n)
            sys = np.array([self._sys_level(blk.cls, j) for j in env])
            idx = sys * self.d_env + env
            u[np.ix_(idx, idx)] = blk.matrix
        return u

    def block_unitarity_defect(self) -> float:
        worst = 0.0
        for blk in self.blocks:
            m = blk.matrix
            defect = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
            worst = max(worst, defect)
        return worst


_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _expm_block(sup) -> np.ndarray:
    """exp(G), G real tridiagonal with superdiagonal sup, subdiagonal -sup.

    iG is Hermitian, and with D = diag(i^k) the matrix T = D+ (iG) D is
    real symmetric tridiagonal with off-diagonal -sup, so
    exp(G) = D exp(-iT) D+ from one symmetric eigensolve.
    """
    n = len(sup) + 1
    if n == 1:
        return np.ones((1, 1))
    off = -np.asarray(sup)
    lam, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    phase = _I_POWERS[np.arange(n) % 4]
    rotated = (vecs * np.exp(-1j * lam)) @ vecs.T
    return np.ascontiguousarray((phase[:, None] * rotated * phase.conj()[None, :]).real)


def beamsplitter_unitary(transmissivity: float, d_sys: int, d_env: int) -> DilationUnitary:
    """exp(theta (a+ b - a b+)) with theta = arccos(sqrt(transmissivity)).

    Conserves total photon number; block `cls` couples |cls - j, j>.
    """
    lam = float(transmissivity)
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"transmissivity must be in (0, 1], got {lam!r}")
    if d_sys < 1 or d_env < 1:
        raise DomainError(f"need d_sys, d_env >= 1, got {d_sys}, {d_env}")
    theta = math.acos(math.sqrt(lam))
    classes = {}
    for s in range(d_sys + d_env - 1):
        lo = max(0, s - d_sys + 1)
        j = np.arange(lo + 1, min(d_env - 1, s) + 1)
        # raising the env index j -> j from j-1 couples via a+ b with
        # weight sqrt((s - j + 1) * j); sign fixed by the generator order
        classes[s] = (lo, theta * np.sqrt((s - j + 1.0) * j))
    return DilationUnitary("beamsplitter", lam, d_sys, d_env, classes)


def squeezer_unitary(gain: float, d_sys: int, d_env: int) -> DilationUnitary:
    """exp(r (a+ b+ - a b)) with r = arccosh(sqrt(gain)).

    Conserves the photon-number difference; block `cls` couples |cls + j, j>.
    """
    kap = float(gain)
    if kap < 1.0:
        raise DomainError(f"gain must be >= 1, got {kap!r}")
    if d_sys < 1 or d_env < 1:
        raise DomainError(f"need d_sys, d_env >= 1, got {d_sys}, {d_env}")
    r = math.acosh(math.sqrt(kap))
    classes = {}
    for delta in range(-(d_env - 1), d_sys):
        lo = max(0, -delta)
        j = np.arange(lo, min(d_env - 1, d_sys - 1 - delta))
        # a b lowers both modes; entry above the diagonal in env order is
        # -r sqrt((j + delta + 1)(j + 1)) from <j| a b |j+1>
        classes[delta] = (lo, -r * np.sqrt((j + delta + 1.0) * (j + 1.0)))
    return DilationUnitary("squeezer", kap, d_sys, d_env, classes)


# ---------------------------------------------------------------------------
# dilation reference
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=2)
def _reference_dilation(generator: str, parameter: float, d_sys: int, d_env: int):
    build = beamsplitter_unitary if generator == "beamsplitter" else squeezer_unitary
    return build(parameter, d_sys, d_env)


def _columns_reduced(unitary: DilationUnitary, rho: np.ndarray, j: int, keep: str) -> np.ndarray:
    """Tr_other[U (rho (x) |j><j|) U+] from the block columns U|a, j>.

    Column U|a, j> lies in the single block of its conserved quantity.
    Entries of two columns that share a level of the traced mode meet in
    the kept mode at their own levels, so the partial trace is a
    scatter-add over (a, b, traced level).
    """
    n = rho.shape[0]
    d_keep = unitary.d_sys if keep == "sys" else unitary.d_env
    d_traced = unitary.d_env if keep == "sys" else unitary.d_sys
    kept = np.zeros((n, d_traced), dtype=np.intp)
    amps = np.zeros((n, d_traced))
    for a in range(n):
        blk = unitary.block(a + j if unitary.generator == "beamsplitter" else a - j)
        env = blk.env_lo + np.arange(blk.matrix.shape[0])
        sys_lv = unitary._sys_level(blk.cls, env)
        col = blk.matrix[:, j - blk.env_lo]
        if keep == "sys":
            kept[a, env], amps[a, env] = sys_lv, col
        else:
            kept[a, sys_lv], amps[a, sys_lv] = env, col
    idx = (kept[:, None, :] * d_keep + kept[None, :, :]).ravel()
    weights = (rho[:, :, None] * (amps[:, None, :] * amps[None, :, :])).ravel()
    size = d_keep * d_keep
    flat = np.bincount(idx, weights.real, size) + 1j * np.bincount(idx, weights.imag, size)
    return flat.reshape(d_keep, d_keep)


def apply_channel_dense(
    spec: ChannelSpec,
    rho: DensityMatrix,
    dims: Optional[ChannelDims] = None,
) -> DensityMatrix:
    """Reference path: the channel's own dilation with a thermal environment.

    Evaluates sum_j p_j Tr_other[U (rho (x) |j><j|) U+] column by column,
    never forming the d_sys*d_env joint matrix.  Its cost is one block
    expm per dilation, so it serves as the independent cross-check of
    the closed-form maps, not as a production path.  Additive noise has
    no single-mode-environment dilation: it runs the attenuator
    reference at default dims, then the amplifier reference at `dims`.
    """
    if spec.kind == ChannelKind.ADDITIVE:
        e = spec.env_energy
        mid = apply_channel_dense(attenuator(1.0 / (e + 1.0)), rho)
        return apply_channel_dense(amplifier(e + 1.0), mid, dims)
    if dims is None:
        dims = default_dims(spec, rho.dim)
    if rho.dim > dims.d_sys:
        raise DomainError(f"input dim {rho.dim} exceeds dilation system dim {dims.d_sys}")
    generator = "beamsplitter" if spec.kind == ChannelKind.ATTENUATOR else "squeezer"
    unitary = _reference_dilation(generator, spec.parameter, dims.d_sys, dims.d_env)
    keep = "env" if spec.kind == ChannelKind.CONTRAVARIANT else "sys"
    env = thermal_state(spec.env_energy, dims.d_env)
    reduced = sum(
        p * _columns_reduced(unitary, rho.matrix, j, keep)
        for j, p in enumerate(env.probs)
        if p > 0.0
    )
    out = reduced[: dims.d_out, : dims.d_out]
    return DensityMatrix(out, _checked_deficit(float(np.trace(out).real)))
