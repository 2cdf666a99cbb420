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
from .states import DensityMatrix, DiagonalState, checked_levels
from .thermal import thermal_tail_cutoff

# Tail mass allowed past the default amplifier output cutoff for the
# worst-case input level; the realized leakage is recorded in the output
# trace_deficit, never hidden.
AMPLIFIER_TAIL_TARGET = 1e-9

# apply_channel refuses to return an output that lost more than this much mass.
MAX_APPLY_DEFICIT = 0.01

# Thermal tail mass z**cutoff past the attenuator environment's cutoff in
# default_dims, and past each input's and output's in the CLI's thermal grid.
THERMAL_TAIL_TARGET = 1e-14

# Memory limit of every allocation a config value sizes; only
# checked_bytes compares bytes with it.  At gain 2 a completed map admits
# 300 input levels (294 MiB) and refuses 400 (656 MiB).
MAX_DENSE_BYTES = 512 * 2**20


def checked_bytes(*terms) -> int:
    """Total of the (what, bytes) terms; ResourceLimitError past MAX_DENSE_BYTES.

    The refusal reads "<what> needs N MiB, exceeds limit 512 MiB", N rounded
    in integers (a total can pass the float range); several terms join
    their whats with " and " and say "need".
    """
    total = sum(size for _, size in terms)
    if total > MAX_DENSE_BYTES:
        what = " and ".join(what for what, _ in terms)
        verb = "needs" if len(terms) == 1 else "need"
        raise ResourceLimitError(
            f"{what} {verb} {(total + 2**19) >> 20} MiB, exceeds limit {MAX_DENSE_BYTES >> 20} MiB"
        )
    return total


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
            if self.kind == ChannelKind.CONTRAVARIANT and not math.isfinite(kap * self.env_energy):
                raise DomainError(
                    f"contravariant gain {kap!r} x env_energy {self.env_energy!r} is not finite"
                )
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
    An input other than one vector or square matrix on d_in levels
    raises DomainError.
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
        with self._lock:  # two threads may not advance one iterator
            if self._slabs is None:
                checked_bytes(dense_term(self.d_in, self.d_out))
                self._build_slabs()
        return self.bands

    def _build_slabs(self) -> None:
        d_in, d_out = self.d_in, self.d_out
        count = min(d_in, d_out)
        slabs = np.zeros(slab_shape(d_in, d_out))
        width = slabs.shape[2]
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

    def _checked(self, x: np.ndarray, ndim: int) -> np.ndarray:
        """x, a vector (ndim 1) or a square matrix (ndim 2) on exactly the map's d_in levels."""
        if x.ndim != ndim or x.shape != x.shape[:1] * ndim:
            shape = "a vector" if ndim == 1 else "a square matrix"
            raise DomainError(f"expected {shape} on the map's input levels, got shape {x.shape}")
        if x.shape[0] != self.d_in:
            raise DomainError(f"input dim {x.shape[0]} is not the map's input dim {self.d_in}")
        return x

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        """The d_out x d_out output of one d_in x d_in input matrix."""
        self.complete()
        rho = self._checked(np.asarray(rho, dtype=complex), 2)
        # each band's input and output diagonals, (slabs, width, 2) and (slabs, d_out, 2)
        vin = np.append(rho.reshape(-1), 0.0)[self._gather]
        vout = np.matmul(self._slabs, vin.view(float)).view(complex)
        out = np.zeros(self.d_out * self.d_out + 1, dtype=complex)
        out[self._to_vals] = vout
        out[self._to_conj] = vout.conj()
        out[:: self.d_out + 1].imag = 0.0
        return out[:-1].reshape(self.d_out, self.d_out)

    def apply_probs(self, probs: np.ndarray) -> np.ndarray:
        return self.bands[0] @ self._checked(np.asarray(probs, dtype=float), 1)


def slab_shape(d_in: int, d_out: int) -> tuple:
    """Shape (slabs, d_out, width) of a completed d_in -> d_out map's real slabs."""
    count = min(d_in, d_out)
    return (count + 1) // 2, d_out, 2 * d_in - count + 1


def dense_bytes(d_in: int, d_out: int) -> int:
    """Bytes of a completed map's slabs and index arrays plus one output and two copies.

    An output's eigensolve holds two more of its size: the conjugate the
    Hermiticity check makes, then the eigensolver's own input copy.
    """
    slabs, _, width = slab_shape(d_in, d_out)
    # slabs (d_out x width floats), gather (width x 2), lower and upper (d_out x 2 each)
    return 8 * slabs * (d_out * width + 2 * width + 4 * d_out) + 3 * 16 * d_out * d_out


def dense_term(d_in: int, d_out: int) -> tuple:
    """The checked_bytes term of completing a d_in -> d_out map and applying it."""
    return (f"dense {d_in} -> {d_out} level map", dense_bytes(d_in, d_out))


def band_zero_bytes(d_in: int, sizes) -> int:
    """Peak bytes of building band 0 through stages of (size, size_out) levels.

    A stage holds its lgamma table (40 B a level) and its band with about
    five temporaries of that shape (tracemalloc: 5.0-5.2); a later stage
    also holds the size x d_in product before it and makes its own.  The
    map, its stage iterators, their array headers and lgamma lists add a
    fixed 4 KiB and 1.25 KiB a stage: a 1- or 2-level build peaks at 4.5
    to 7.5 KB traced from a fresh process.
    """
    peak = 0
    for n, (size, size_out) in enumerate(sizes):
        products = 8 * (size + size_out) * d_in if n else 0
        peak = max(peak, 40 * (size + size_out) + 6 * 8 * size * size_out + products)
    return peak + 4096 + 1280 * len(sizes)


def band_zero_term(spec: ChannelSpec, d_in: int, d_out: int) -> tuple:
    """The checked_bytes term of building band 0 of spec's d_in -> d_out map."""
    sizes = [stage[2:] for stage in _stages(spec, d_in, d_out)]
    return (f"band 0 of the {d_in} -> {d_out} level map", band_zero_bytes(d_in, sizes))


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


def _stages(spec: ChannelSpec, d_in: int, d_out: int) -> list:
    """(kind, parameter, size, size_out) of each quantum-limited stage of a d_in -> d_out map.

    First applied first; an attenuator stage before the last keeps its
    input size, since it never adds quanta, and any other outputs d_out.
    """
    e, att, amp = spec.env_energy, ChannelKind.ATTENUATOR, ChannelKind.AMPLIFIER
    if spec.kind == ChannelKind.ADDITIVE:
        parts = [(att, 1.0 / (e + 1.0)), (amp, e + 1.0)]
    elif spec.kind == ChannelKind.CONTRAVARIANT:
        noise = _stages(additive_noise(spec.gain * e), d_in, d_out) if e > 0.0 else []
        parts = [(ChannelKind.CONTRAVARIANT, spec.gain)] + [stage[:2] for stage in noise]
    else:
        parts = [(spec.kind, spec.parameter)] if e == 0.0 else list(zip((att, amp), decompose(spec)))
    stages, size = [], d_in
    for n, (kind, parameter) in enumerate(parts):
        size_out = size if kind == att and n < len(parts) - 1 else d_out
        stages.append((kind, parameter, size, size_out))
        size = size_out
    return stages


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


@functools.lru_cache(maxsize=256, typed=True)
def default_dims(spec: ChannelSpec, d_in: int) -> ChannelDims:
    """Output cutoff for an arbitrary input supported on d_in levels.

    An attenuator keeps d_in + k_env - 1 levels, k_env its env cutoff at THERMAL_TAIL_TARGET.
    d_sys and d_env equal d_out, for the readers ChannelDims names; the
    beamsplitter conserves total photon number, so the attenuator's
    dilation oracle is then exact up to its environment tail.  Memoized
    per (spec, d_in); clear_caches() empties the memo.
    """
    d_in = checked_levels("d_in", d_in)
    e = spec.env_energy
    if spec.kind == ChannelKind.ATTENUATOR:
        k_env = thermal_tail_cutoff(e, THERMAL_TAIL_TARGET) if e > 0.0 else 1
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

    Only dims.d_out matters here; its stages are sized by _stages, so
    mass a contravariant stage sends past d_out is dropped before the
    noise stages and shows in the output deficit.
    """
    if dims is None:
        dims = default_dims(spec, d_in)
    d_out = dims.d_out
    key = (spec.kind, spec.parameter, spec.env_energy, d_in, d_out)
    got = _map_cache.get(key)
    if got is not None:
        return got
    d_in, d_out = checked_levels("d_in", d_in), checked_levels("d_out", d_out)
    checked_bytes(band_zero_term(spec, d_in, d_out))
    bands = None
    for kind, parameter, size, size_out in _stages(spec, d_in, d_out):
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
    cmap = get_channel_map(spec, rho.dim, dims)
    out = cmap.apply_matrix(rho.matrix)
    return DensityMatrix(out, _checked_deficit(float(np.trace(out).real)))


def apply_diagonal(
    spec: ChannelSpec,
    state: DiagonalState,
    dims: Optional[ChannelDims] = None,
) -> DiagonalState:
    """Fast path for Fock-diagonal inputs via the cached transition matrix."""
    cmap = get_channel_map(spec, state.dim, dims)
    probs = cmap.apply_probs(state.probs)
    return DiagonalState(probs, _checked_deficit(float(probs.sum())))
