"""One-mode phase-covariant Gaussian channels as closed-form Kraus band maps.

Every channel map sends the k-th matrix diagonal of the input to the
k-th diagonal of the output (phase covariance; the contravariant
amplifier conjugates it first), so a map is a list of bands; a completed
map keeps them two to a real slab and applies them all in one stacked
matmul (ChannelMap).  The three quantum-limited channels -- attenuator,
amplifier and contravariant amplifier -- have Kraus operators in closed
form (Ivan, Sabapathy & Simon, PRA 84, 042311, 2011), and their bands
are written down directly from binomial weights in log space.  Every
noisy channel is a composition of quantum-limited stages (Garcia-Patron
et al., PRL 108, 110505, 2012), and a composed band is the product of
the stage bands:

- noisy attenuator and amplifier: attenuator then amplifier, per decompose();
- additive noise e: attenuator(1/(e+1)) then amplifier(e+1);
- noisy contravariant (kappa, e): contravariant(kappa, 0) then additive kappa*e.

The two-mode dilations (beamsplitter for the attenuator, two-mode
squeezer for both amplifiers, with a thermal environment) are the tests'
independent oracle, in tests/dilation.py; no map is built from them.
ChannelDims keeps the d_sys and d_env that oracle reads, and that
perfbench/spans.py reads on every map build.
"""

import functools
import itertools
import math
import numbers
import sys
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DomainError, ResourceLimitError, TruncationError
from .states import DensityMatrix, DiagonalState
from .thermal import thermal_tail_cutoff

# Tail mass allowed past the default amplifier output cutoff for the
# worst-case input level; the realized leakage is recorded in the output
# trace_deficit, never hidden.
AMPLIFIER_TAIL_TARGET = 1e-9

# apply_channel refuses to return an output that lost more than this much mass.
MAX_APPLY_DEFICIT = 0.01

# Tail-mass target used when sizing the attenuator environment.
ENV_TAIL_TARGET = 1e-14

# Largest output dim a map completes its bands for, so that apply_matrix
# allocates at most a 2048 x 2048 complex output (64 MiB); the band-0
# path (apply_probs) has no dim limit.
MAX_DENSE_D_OUT = 2048

# Largest dense_bytes a map completes its bands for, and largest
# band_zero_bytes a map is built with: at gain 2 the first admits 300
# input levels (277 MiB) and refuses 400 (626 MiB).
MAX_DENSE_BYTES = 512 * 2**20


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
# band-resolved channel maps
# ---------------------------------------------------------------------------


class ChannelMap:
    """Linear map from input matrix diagonals to output matrix diagonals.

    bands[k] maps the k-th subdiagonal of the input to the k-th
    subdiagonal of the output (its conjugate for the contravariant
    case); bands[0] is the Fock transition matrix.  Bands are built on
    first request: a fresh map holds band 0 alone, and complete() writes
    all K = min(d_in, d_out) of them into (K+1)//2 real slabs of shape
    (d_out, 2 d_in - K + 1), band k and band K-1-k side by side in slab
    k, after which bands holds views into the slabs.  apply_matrix
    gathers the input diagonals, applies every band in one stacked real
    matmul and scatters the output diagonals through flat indices.
    """

    def __init__(self, d_in, d_out, stream, contravariant):
        self.d_in = d_in
        self.d_out = d_out
        self.bands = [next(stream)]
        self.contravariant = contravariant
        self._stream = stream
        self._lock = threading.Lock()
        self._slabs = None

    def complete(self) -> list:
        """All min(d_in, d_out) bands, building the ones still missing."""
        if self.d_out > MAX_DENSE_D_OUT:
            raise ResourceLimitError(
                f"dense output dim {self.d_out} exceeds limit {MAX_DENSE_D_OUT}"
            )
        size = dense_bytes(self.d_in, self.d_out)
        if size > MAX_DENSE_BYTES:
            raise ResourceLimitError(
                f"dense {self.d_in} -> {self.d_out} level map needs {size / 2**20:.0f} MiB,"
                f" exceeds limit {MAX_DENSE_BYTES // 2**20} MiB"
            )
        with self._lock:  # two threads may not advance one iterator
            if self._slabs is None:
                self._build_slabs()
        return self.bands

    def _build_slabs(self) -> None:
        d_in, d_out = self.d_in, self.d_out
        count = min(d_in, d_out)
        width = 2 * d_in - count + 1
        slabs = np.zeros(((count + 1) // 2, d_out, width))
        # input slot (slab, column, side) -> flat index into rho, or the zero appended to it
        gather = np.full((len(slabs), width, 2), d_in * d_in)
        # output slot (slab, row, side) -> flat index into the output, or the spare entry after it
        lower = np.full((len(slabs), d_out, 2), d_out * d_out)
        upper = lower.copy()
        bands = []
        for k, band in enumerate(itertools.chain(self.bands, self._stream)):
            rows, cols = band.shape
            j, side, col = (k, 0, 0) if 2 * k < count else (count - 1 - k, 1, width - cols)
            bands.append(slabs[j, :rows, col : col + cols])
            bands[-1][...] = band
            c, i = np.arange(cols), np.arange(rows)
            gather[j, col : col + cols, side] = (c + k) * d_in + c
            lower[j, :rows, side] = (i + k) * d_out + i
            upper[j, :rows, side] = i * d_out + i + k
        # the contravariant output is the conjugate of the covariant one
        self._to_vals, self._to_conj = (upper, lower) if self.contravariant else (lower, upper)
        self._gather = gather
        self.bands = bands
        self._slabs = slabs

    def _fit(self, x: np.ndarray) -> np.ndarray:
        """x zero-padded to the map's input dim: a vector, a matrix or a stack of matrices."""
        n = x.shape[-1]
        if n > self.d_in:
            raise DomainError(f"input dim {n} exceeds map input dim {self.d_in}")
        if n == self.d_in:
            return x
        axes = min(x.ndim, 2)
        return np.pad(x, [(0, 0)] * (x.ndim - axes) + [(0, self.d_in - n)] * axes)

    def band_outputs(self, rho: np.ndarray) -> np.ndarray:
        """Output diagonals of every band, (..., slabs, d_out, 2), for rho or a stack of them."""
        self.complete()
        rho = self._fit(np.asarray(rho, dtype=complex))
        flat = rho.reshape(rho.shape[:-2] + (-1,))
        vin = np.take(np.concatenate((flat, np.zeros(flat.shape[:-1] + (1,))), -1), self._gather, -1)
        return np.matmul(self._slabs, vin.view(float)).view(complex)

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        vout = self.band_outputs(rho)
        out = np.zeros(self.d_out * self.d_out + 1, dtype=complex)
        out[self._to_vals] = vout
        out[self._to_conj] = vout.conj()
        out[:: self.d_out + 1].imag = 0.0
        return out[:-1].reshape(self.d_out, self.d_out)

    def apply_probs(self, probs: np.ndarray) -> np.ndarray:
        return self.bands[0] @ self._fit(np.asarray(probs, dtype=float))


def dense_bytes(d_in: int, d_out: int) -> int:
    """Bytes of a completed map's slabs and index arrays plus one output."""
    count = min(d_in, d_out)
    slabs, width = (count + 1) // 2, 2 * d_in - count + 1
    # slabs (d_out x width floats), gather (width x 2), lower and upper (d_out x 2 each)
    return 8 * slabs * (d_out * width + 2 * width + 4 * d_out) + 16 * d_out * d_out


def band_zero_bytes(d_in: int, sizes) -> int:
    """Peak bytes of building band 0 through stages of (size, size_out) levels.

    A stage holds its lgamma table (40 B a level) and its band with about
    five temporaries of that shape (tracemalloc: 5.0-5.2); a later stage
    also holds the size x d_in product before it and makes its own.
    """
    peak = 0
    for n, (size, size_out) in enumerate(sizes):
        products = 8 * (size + size_out) * d_in if n else 0
        peak = max(peak, 40 * (size + size_out) + 6 * 8 * size * size_out + products)
    return peak


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
    """Output cutoff d_out of a map; no map reads d_sys or d_env.

    They size the dilation oracle in tests/dilation.py, and perfbench/spans.py reads d_sys.
    """

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


@functools.lru_cache(maxsize=256)
def default_dims(spec: ChannelSpec, d_in: int) -> ChannelDims:
    """Output cutoff for an arbitrary input supported on d_in levels.

    d_sys and d_env equal d_out, for the readers ChannelDims names; the
    beamsplitter conserves total photon number, so the attenuator's
    dilation oracle is then exact up to its environment tail.  Memoized
    per (spec, d_in); clear_caches() empties the memo.
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
    default_dims.cache_clear()


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
    sizes, size = [], d_in  # (size, size_out) of each stage
    for n, (kind, _) in enumerate(stages):
        keeps_size = kind == ChannelKind.ATTENUATOR and n < len(stages) - 1
        sizes.append((size, size if keeps_size else d_out))
        size = sizes[-1][1]
    need = band_zero_bytes(d_in, sizes)
    if need > MAX_DENSE_BYTES:
        raise ResourceLimitError(
            f"band 0 of the {d_in} -> {d_out} level map needs {need / 2**20:.0f} MiB,"
            f" exceeds limit {MAX_DENSE_BYTES // 2**20} MiB"
        )
    bands = None
    for (kind, parameter), (size, size_out) in zip(stages, sizes):
        stage = _kraus_bands(kind, parameter, size, size_out)
        # a later stage builds only the bands the earlier ones produced;
        # map() keeps neither factor of a product once it is made
        bands = stage if bands is None else map(lambda b, s: s @ b, bands, stage)
    built = ChannelMap(d_in, d_out, bands, spec.kind == ChannelKind.CONTRAVARIANT)
    with _cache_lock:
        _map_cache.setdefault(key, built)
    return _map_cache[key]


# ---------------------------------------------------------------------------
# channel application
# ---------------------------------------------------------------------------


def _checked_deficit(trace: float) -> float:
    """Mass missing from an output of the given trace; refuses lossy outputs."""
    if not math.isfinite(trace):
        raise DomainError(f"output trace {trace!r} is not finite")
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


def output_trace_frobenius(
    spec: ChannelSpec,
    rhos: np.ndarray,
    dims: Optional[ChannelDims] = None,
) -> tuple:
    """Traces and Frobenius norms of the outputs of a stack of matrices, none built densely.

    Band 0 fills the diagonal and each band k >= 1 two conjugate
    off-diagonals.  Lossy outputs raise TruncationError, as in apply_channel.
    """
    cmap = get_channel_map(spec, max(rhos.shape[-1], 1), dims)
    vout = cmap.band_outputs(rhos)
    diagonal = vout[..., 0, :, 0].real
    traces = diagonal.sum(-1)
    for trace in traces.flat:
        _checked_deficit(float(trace))
    # sums of squares as matmul dot products: einsum, or a squared copy of
    # vout, each added 0.2-0.5 MB to verify-lemma's peak RSS
    parts = vout.view(float).reshape(vout.shape[:-3] + (1, -1))
    squares = np.matmul(parts, parts.swapaxes(-1, -2))[..., 0, 0]
    return traces, np.sqrt(2.0 * squares - (diagonal**2).sum(-1))


def apply_diagonal(
    spec: ChannelSpec,
    state: DiagonalState,
    dims: Optional[ChannelDims] = None,
) -> DiagonalState:
    """Fast path for Fock-diagonal inputs via the cached transition matrix."""
    cmap = get_channel_map(spec, max(state.dim, 1), dims)
    probs = cmap.apply_probs(state.probs)
    return DiagonalState(probs, _checked_deficit(float(probs.sum())))
