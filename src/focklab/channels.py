"""One-mode phase-covariant Gaussian channels as closed-form Kraus band maps.

Every channel map sends the k-th matrix diagonal of the input to the
k-th diagonal of the output (phase covariance; the contravariant
amplifier conjugates it first), so a map is a list of bands.  The three
quantum-limited channels -- attenuator, amplifier and contravariant
amplifier -- have Kraus operators in closed form (Ivan, Sabapathy &
Simon, PRA 84, 042311, 2011), and their bands are written down directly
from binomial weights in log space.  Every noisy channel is a
composition of quantum-limited stages (Garcia-Patron et al., PRL 108,
110505, 2012), and a composed band is the product of the stage bands:

- noisy attenuator and amplifier: attenuator then amplifier, per decompose();
- additive noise e: attenuator(1/(e+1)) then amplifier(e+1);
- noisy contravariant (kappa, e): contravariant(kappa, 0) then additive kappa*e.

The two-mode dilations (beamsplitter for the attenuator, two-mode
squeezer for both amplifiers, with a thermal environment) are kept as
the independent reference: apply_channel_dense evaluates
Tr_other[U (rho (x) env) U+] from the conserved-quantity blocks of U and
is never used to build a map.
"""

import functools
import math
import numbers
import sys
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DomainError, TruncationError
from .linalg import check_joint_dim
from .states import DensityMatrix, DiagonalState
from .thermal import thermal_state, thermal_tail_cutoff

# Tail mass allowed past the default amplifier output cutoff for the
# worst-case input level; the realized leakage is recorded in the output
# trace_deficit, never hidden.
AMPLIFIER_TAIL_TARGET = 1e-9

# apply_channel refuses to return an output that lost more than this much mass.
MAX_APPLY_DEFICIT = 0.01

# Tail-mass target used when sizing the attenuator environment.
ENV_TAIL_TARGET = 1e-14


def finite_float(value) -> Optional[float]:
    """value as a float when it is a finite real number (not a bool), else None."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return None
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return number if math.isfinite(number) else None


class ChannelKind(str, Enum):
    ATTENUATOR = "attenuator"
    AMPLIFIER = "amplifier"
    ADDITIVE = "additive"
    CONTRAVARIANT = "contravariant"


@dataclass(frozen=True)
class ChannelSpec:
    """Which channel, with its parameter and environment mean energy.

    Each given parameter is stored as a float; anything but a finite
    real number raises DomainError.
    """

    kind: ChannelKind
    transmissivity: Optional[float] = None
    gain: Optional[float] = None
    env_energy: float = 0.0

    def __post_init__(self):
        for name in ("transmissivity", "gain", "env_energy"):
            value = getattr(self, name)
            if value is None and name != "env_energy":
                continue
            number = finite_float(value)
            if number is None:
                raise DomainError(f"{name} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, number)
        if self.env_energy < 0.0:
            raise DomainError(f"env_energy must be >= 0, got {self.env_energy!r}")
        if self.kind == ChannelKind.ATTENUATOR:
            lam = self.transmissivity
            if lam is None or not 0.0 < lam <= 1.0:
                raise DomainError(f"attenuator needs transmissivity in (0, 1], got {lam!r}")
            if self.gain is not None:
                raise DomainError("attenuator takes no gain parameter")
        elif self.kind in (ChannelKind.AMPLIFIER, ChannelKind.CONTRAVARIANT):
            kap = self.gain
            if kap is None or kap < 1.0:
                raise DomainError(f"{self.kind.value} needs gain >= 1, got {kap!r}")
            if self.transmissivity is not None:
                raise DomainError(f"{self.kind.value} takes no transmissivity parameter")
        elif self.kind == ChannelKind.ADDITIVE:
            if self.transmissivity is not None or self.gain is not None:
                raise DomainError("additive noise is parameterized by env_energy alone")
        else:  # pragma: no cover
            raise DomainError(f"unknown channel kind {self.kind!r}")

    @property
    def parameter(self) -> float:
        """The defining scalar: transmissivity, gain, or added noise energy."""
        if self.kind == ChannelKind.ATTENUATOR:
            return self.transmissivity
        if self.kind == ChannelKind.ADDITIVE:
            return self.env_energy
        return self.gain

    def output_energy(self, input_energy: float) -> float:
        """Mean energy of the output when the input is thermal."""
        e_in = float(input_energy)
        e = self.env_energy
        if self.kind == ChannelKind.ATTENUATOR:
            lam = self.transmissivity
            return lam * e_in + (1.0 - lam) * e
        if self.kind == ChannelKind.AMPLIFIER:
            kap = self.gain
            return kap * e_in + (kap - 1.0) * (e + 1.0)
        if self.kind == ChannelKind.ADDITIVE:
            return e_in + e
        kap = self.gain
        return (kap - 1.0) * (e_in + 1.0) + kap * e


def attenuator(transmissivity: float, env_energy: float = 0.0) -> ChannelSpec:
    return ChannelSpec(ChannelKind.ATTENUATOR, transmissivity=transmissivity, env_energy=env_energy)


def amplifier(gain: float, env_energy: float = 0.0) -> ChannelSpec:
    return ChannelSpec(ChannelKind.AMPLIFIER, gain=gain, env_energy=env_energy)


def additive_noise(env_energy: float) -> ChannelSpec:
    return ChannelSpec(ChannelKind.ADDITIVE, env_energy=env_energy)


def contravariant_amplifier(gain: float, env_energy: float = 0.0) -> ChannelSpec:
    return ChannelSpec(ChannelKind.CONTRAVARIANT, gain=gain, env_energy=env_energy)


# ---------------------------------------------------------------------------
# decomposition into quantum-limited parts
# ---------------------------------------------------------------------------


def decompose(spec: ChannelSpec) -> tuple:
    """Split a noisy attenuator or amplifier into quantum-limited factors.

    Returns (lam, kappa) with channel = amplifier(kappa) o attenuator(lam).
    """
    e = spec.env_energy
    if spec.kind == ChannelKind.ATTENUATOR:
        lam = spec.transmissivity
        kappa_p = (1.0 - lam) * e + 1.0
        return lam / kappa_p, kappa_p
    if spec.kind == ChannelKind.AMPLIFIER:
        kap = spec.gain
        scale = (1.0 - 1.0 / kap) * e + 1.0
        return 1.0 / scale, kap * scale
    raise DomainError(f"no quantum-limited decomposition for kind {spec.kind.value!r}")


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
    """Two-mode coupling unitary, stored block-factored."""

    generator: str  # "beamsplitter" | "squeezer"
    parameter: float  # transmissivity or gain
    d_sys: int
    d_env: int
    blocks: tuple

    def _sys_level(self, cls: int, env: int) -> int:
        if self.generator == "beamsplitter":
            return cls - env
        return cls + env

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


def _expm_blocks(tridiag_entries, classes_env_ranges):
    """exp(G) per block, G real tridiagonal with superdiagonal sup, subdiagonal -sup.

    iG is Hermitian, and with D = diag(i^k) the matrix T = D+ (iG) D is
    real symmetric tridiagonal with off-diagonal -sup, so
    exp(G) = D exp(-iT) D+ from one symmetric eigensolve.
    """
    blocks = []
    for cls, lo, hi, sup in zip(*classes_env_ranges, tridiag_entries):
        n = hi - lo
        if n <= 0:
            continue
        if n == 1:
            mat = np.ones((1, 1))
        else:
            off = -np.asarray(sup)
            lam, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
            phase = _I_POWERS[np.arange(n) % 4]
            rotated = (vecs * np.exp(-1j * lam)) @ vecs.T
            mat = (phase[:, None] * rotated * phase.conj()[None, :]).real
        blocks.append(DilationBlock(cls, lo, np.ascontiguousarray(mat)))
    return tuple(blocks)


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
    classes, los, his, entries = [], [], [], []
    for s in range(d_sys + d_env - 1):
        lo = max(0, s - d_sys + 1)
        hi = min(d_env - 1, s) + 1
        j = np.arange(lo + 1, hi)
        # raising the env index j -> j from j-1 couples via a+ b with
        # weight sqrt((s - j + 1) * j); sign fixed by the generator order
        sup = theta * np.sqrt((s - j + 1.0) * j)
        classes.append(s)
        los.append(lo)
        his.append(hi)
        entries.append(sup)
    blocks = _expm_blocks(entries, (classes, los, his))
    return DilationUnitary("beamsplitter", lam, d_sys, d_env, blocks)


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
    classes, los, his, entries = [], [], [], []
    for delta in range(-(d_env - 1), d_sys):
        lo = max(0, -delta)
        hi = min(d_env - 1, d_sys - 1 - delta) + 1
        j = np.arange(lo, hi - 1)
        # a b lowers both modes; entry above the diagonal in env order is
        # -r sqrt((j + delta + 1)(j + 1)) from <j| a b |j+1>
        sup = -r * np.sqrt((j + delta + 1.0) * (j + 1.0))
        classes.append(delta)
        los.append(lo)
        his.append(hi)
        entries.append(sup)
    blocks = _expm_blocks(entries, (classes, los, his))
    return DilationUnitary("squeezer", kap, d_sys, d_env, blocks)


# ---------------------------------------------------------------------------
# band-resolved channel maps
# ---------------------------------------------------------------------------


class ChannelMap:
    """Linear map from input matrix diagonals to output matrix diagonals.

    bands[k] maps the k-th subdiagonal of the input to the k-th
    subdiagonal of the output (its conjugate for the contravariant
    case); bands[0] is the Fock transition matrix.  Bands are built on
    first request: bands holds band 0 and whatever complete() has added.
    """

    def __init__(self, d_in, d_out, stream, contravariant):
        self.d_in = d_in
        self.d_out = d_out
        self.bands = [next(stream)]
        self.contravariant = contravariant
        self._stream = stream
        self._lock = threading.Lock()

    def complete(self) -> list:
        """All min(d_in, d_out) bands, building the ones still missing."""
        with self._lock:  # two threads may not advance one iterator
            self.bands.extend(self._stream)  # a no-op once the stream is spent
        return self.bands

    def _fit(self, x: np.ndarray) -> np.ndarray:
        """x zero-padded along every axis to the map's input dim."""
        n = x.shape[0]
        if n > self.d_in:
            raise DomainError(f"input dim {n} exceeds map input dim {self.d_in}")
        return np.pad(x, [(0, self.d_in - n)] * x.ndim) if n < self.d_in else x

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        rho = self._fit(np.asarray(rho, dtype=complex))
        out = np.zeros((self.d_out, self.d_out), dtype=complex)
        idx = np.arange(self.d_out)
        for k, band in enumerate(self.complete()):
            vin = np.diagonal(rho, offset=-k)
            if self.contravariant:
                vin = vin.conj()
            vout = band @ vin
            rows = idx[: self.d_out - k] + k
            cols = idx[: self.d_out - k]
            if k == 0:
                out[rows, cols] = vout.real
            else:
                out[rows, cols] = vout
                out[cols, rows] = vout.conj()
        return out

    def apply_probs(self, probs: np.ndarray) -> np.ndarray:
        return self.bands[0] @ self._fit(np.asarray(probs, dtype=float))


def _xlog(power, base: float):
    """power * ln(base) elementwise, taking 0 * ln(0) = 0."""
    power = np.asarray(power, dtype=float)
    if base > 0.0:
        return power * math.log(base)
    return np.where(power == 0.0, 0.0, -np.inf)


def _kraus_bands(kind: ChannelKind, parameter: float, d_in: int, d_out: int):
    """Bands of a quantum-limited channel from its closed-form Kraus operators.

    Returns an iterator that builds them one at a time, so a caller that
    needs fewer stops early, and keeps no band's temporaries in between.

    Entry [i, c] of band k carries input element (c+k, c) to output
    element (i+k, i).  With C the binomial coefficient:

    - attenuator lam: sqrt(C(c+k, c-i) C(c, c-i)) lam^(i+k/2) (1-lam)^(c-i), i <= c;
    - amplifier kap: sqrt(C(i+k, i-c) C(i, i-c)) kap^-(c+1+k/2) (1-1/kap)^(i-c), i >= c;
    - contravariant kap: sqrt(C(c+i+k, c) C(c+i+k, i)) kap^-(c+1+k/2) (1-1/kap)^(i+k/2).
    """
    lf = np.array([math.lgamma(m + 1.0) for m in range(d_in + d_out)])  # ln(m!)

    def log_binom(n, m):
        return lf[n] - lf[m] - lf[n - m]

    def band(k):
        i = np.arange(d_out - k)[:, None]
        c = np.arange(d_in - k)[None, :]
        if kind == ChannelKind.ATTENUATOR:
            lost = c - i
            valid = lost >= 0
            lost = np.where(valid, lost, 0)
            log_b = (
                0.5 * (log_binom(c + k, lost) + log_binom(c, lost))
                + _xlog(i + 0.5 * k, parameter)
                + _xlog(lost, 1.0 - parameter)
            )
        elif kind == ChannelKind.AMPLIFIER:
            gained = i - c
            valid = gained >= 0
            gained = np.where(valid, gained, 0)
            log_b = (
                0.5 * (log_binom(i + k, gained) + log_binom(i, gained))
                - (c + 1.0 + 0.5 * k) * math.log(parameter)
                + _xlog(gained, 1.0 - 1.0 / parameter)
            )
        else:
            valid = True
            top = c + i + k
            log_b = (
                0.5 * (log_binom(top, c) + log_binom(top, i))
                - (c + 1.0 + 0.5 * k) * math.log(parameter)
                + _xlog(i + 0.5 * k, 1.0 - 1.0 / parameter)
            )
        return np.where(valid, np.exp(log_b), 0.0)

    return map(band, range(min(d_in, d_out)))


def _stages(spec: ChannelSpec) -> list:
    """Quantum-limited (kind, parameter) stages composing `spec`, first applied first."""
    e = spec.env_energy
    if spec.kind == ChannelKind.ADDITIVE:
        return [(ChannelKind.ATTENUATOR, 1.0 / (e + 1.0)), (ChannelKind.AMPLIFIER, e + 1.0)]
    if spec.kind == ChannelKind.CONTRAVARIANT:
        kap = spec.gain
        tail = _stages(additive_noise(kap * e)) if e > 0.0 else []
        return [(ChannelKind.CONTRAVARIANT, kap)] + tail
    if e == 0.0:
        return [(spec.kind, spec.parameter)]
    lam, kap = decompose(spec)
    return [(ChannelKind.ATTENUATOR, lam), (ChannelKind.AMPLIFIER, kap)]


# ---------------------------------------------------------------------------
# dimension policy and cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelDims:
    """Output cutoff d_out of a map; d_sys, d_env size the dilation reference."""

    d_sys: int
    d_env: int
    d_out: int


def _negative_binomial_span(successes: int, inv_gain: float, tail: float) -> int:
    """Smallest k with negative-binomial tail mass beyond k below `tail`.

    The quantum-limited amplifier sends the top retained input level into
    an excess-quanta distribution with exactly these weights, so this
    fixes how much headroom the output needs.
    """
    r = int(successes)
    p = float(inv_gain)
    if p >= 1.0:
        return 0
    pmf = p**r
    # for large r, p**r underflows; the weights are then walked in log space
    log_pmf = r * math.log(p) if pmf < sys.float_info.min else None
    cum = pmf
    k = 0
    while cum < 1.0 - tail and k < 100000:
        k += 1
        ratio = (r + k - 1) / k * (1.0 - p)
        if log_pmf is None:
            pmf *= ratio
        else:
            log_pmf += math.log(ratio)
            pmf = math.exp(log_pmf)
        cum += pmf
    return k


def default_dims(spec: ChannelSpec, d_in: int) -> ChannelDims:
    """Output cutoff for an arbitrary input supported on d_in levels.

    d_sys and d_env equal d_out and size only the dilation reference;
    the beamsplitter conserves total photon number, so the attenuator's
    reference is then exact up to its environment tail.
    """
    if d_in < 1:
        raise DomainError(f"d_in must be >= 1, got {d_in}")
    e = spec.env_energy
    if spec.kind == ChannelKind.ATTENUATOR:
        k_env = thermal_tail_cutoff(e, ENV_TAIL_TARGET) if e > 0.0 else 1
        d = d_in + k_env - 1
        return ChannelDims(d_sys=d, d_env=d, d_out=d)
    if spec.kind == ChannelKind.ADDITIVE:
        # the attenuator stage keeps d_in levels; the amplifier stage sets d_out
        return default_dims(amplifier(e + 1.0), d_in)
    # worst case: top input level plus a high thermal env level, both
    # treated as seed quanta of the negative-binomial output spread
    j_env = thermal_tail_cutoff(e, AMPLIFIER_TAIL_TARGET) if e > 0.0 else 1
    seeds = d_in + j_env - 1
    d = seeds + _negative_binomial_span(seeds, 1.0 / spec.gain, AMPLIFIER_TAIL_TARGET)
    return ChannelDims(d_sys=d, d_env=d, d_out=d)


_map_cache: dict = {}
_cache_lock = threading.Lock()


def clear_caches() -> None:
    with _cache_lock:
        _map_cache.clear()
    _reference_dilation.cache_clear()


def get_channel_map(spec: ChannelSpec, d_in: int, dims: Optional[ChannelDims] = None) -> ChannelMap:
    """Build (or fetch from cache) the band-resolved map of a channel.

    Only dims.d_out matters here.  A quantum-limited attenuator stage
    keeps its input size, since it never adds quanta; any other stage
    outputs d_out levels, so mass a contravariant stage sends past d_out
    is dropped before the noise stages and shows in the output deficit.
    """
    if dims is None:
        dims = default_dims(spec, d_in)
    d_out = dims.d_out
    key = (spec.kind, spec.parameter, spec.env_energy, d_in, d_out)
    got = _map_cache.get(key)
    if got is not None:
        return got
    stages = _stages(spec)
    bands = None
    size = d_in
    for n, (kind, parameter) in enumerate(stages):
        keeps_size = kind == ChannelKind.ATTENUATOR and n < len(stages) - 1
        size_out = size if keeps_size else d_out
        stage = _kraus_bands(kind, parameter, size, size_out)
        # a later stage builds only the bands the earlier ones produced;
        # map() keeps neither factor of a product once it is made
        bands = stage if bands is None else map(lambda b, s: s @ b, bands, stage)
        size = size_out
    built = ChannelMap(d_in, d_out, bands, spec.kind == ChannelKind.CONTRAVARIANT)
    with _cache_lock:
        _map_cache.setdefault(key, built)
    return _map_cache[key]


# ---------------------------------------------------------------------------
# channel application
# ---------------------------------------------------------------------------


def _checked_deficit(trace: float) -> float:
    """Mass missing from an output of the given trace; refuses lossy outputs."""
    deficit = max(0.0, 1.0 - trace)
    if deficit > MAX_APPLY_DEFICIT:
        raise TruncationError(
            f"output lost {deficit:.3e} of its mass (limit {MAX_APPLY_DEFICIT});"
            " increase the input cutoff or the output dimension",
            deficit=deficit,
        )
    return deficit


def apply_channel(
    spec: ChannelSpec,
    rho: DensityMatrix,
    dims: Optional[ChannelDims] = None,
) -> DensityMatrix:
    """Send a state through the channel's band map.

    The output keeps whatever mass survives truncation; its trace_deficit
    is measured from the actual output trace.  Losing more than
    MAX_APPLY_DEFICIT raises TruncationError.
    """
    cmap = get_channel_map(spec, max(rho.dim, 1), dims)
    out = cmap.apply_matrix(rho.matrix)
    return DensityMatrix(out, _checked_deficit(float(np.trace(out).real)))


def apply_diagonal(
    spec: ChannelSpec,
    state: DiagonalState,
    dims: Optional[ChannelDims] = None,
) -> DiagonalState:
    """Fast path for Fock-diagonal inputs via the cached transition matrix."""
    cmap = get_channel_map(spec, max(state.dim, 1), dims)
    probs = cmap.apply_probs(state.probs)
    return DiagonalState(probs, _checked_deficit(float(probs.sum())))


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
    by_cls = {blk.cls: blk for blk in unitary.blocks}
    for a in range(n):
        cls = a + j if unitary.generator == "beamsplitter" else a - j
        blk = by_cls[cls]
        env = blk.env_lo + np.arange(blk.matrix.shape[0])
        sys_lv = unitary._sys_level(cls, env)
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
