"""Reproducible random states and the adversarial gap search.

Streams are keyed counter-based generators: substream(seed, index) is
stable across processes and platforms, so trial i of a run is the same
state no matter how the trials are scheduled.  The annotations are
postponed, so numpy.random loads with the first substream, not with the
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import ChannelKind, ChannelSpec
from .cmoe import CmoeReport, check_cmoe
from .errors import DomainError
from .linalg import _load_expm, hermitian_eigh
from .states import DensityMatrix, DiagonalState, checked_levels

_MASK64 = (1 << 64) - 1

PIN_TOL = 1e-9

# the adversarial search's step angle starts at STEP_ANGLE and shrinks by
# ANGLE_DECAY after every DECAY_AFTER rejections in a row
STEP_ANGLE, ANGLE_DECAY, DECAY_AFTER = 0.05, 0.95, 50


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for trial `index` of base `seed`."""
    mixed = (int(seed) ^ _splitmix64(int(index) & _MASK64)) & _MASK64
    k1 = _splitmix64(mixed)
    k2 = _splitmix64(k1)
    key = np.array([k1, k2], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex normals via the Box-Muller transform."""
    size = int(np.prod(shape))
    u1 = rng.random(size)
    u2 = rng.random(size)
    rad = np.sqrt(-2.0 * np.log1p(-u1))
    ang = 2.0 * np.pi * u2
    return (rad * np.cos(ang) + 1j * rad * np.sin(ang)).reshape(shape)


def random_pure(cutoff: int, rng: np.random.Generator) -> DensityMatrix:
    v = complex_normal(rng, (cutoff,))
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def random_mixed(cutoff: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    if rank < 1 or rank > cutoff:
        raise DomainError(f"rank must lie in [1, {cutoff}], got {rank}")
    g = complex_normal(rng, (cutoff, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(0.5 * (m + m.conj().T))


def random_diagonal(cutoff: int, rng: np.random.Generator) -> DiagonalState:
    # |complex normal|^2 entries are iid exponentials, so the normalized
    # vector is uniform on the probability simplex
    w = np.abs(complex_normal(rng, (cutoff,))) ** 2
    return DiagonalState(w / np.sum(w))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = complex_normal(rng, (dim, dim))
    qmat, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return qmat * (d / np.abs(d))


def mix_entropy(t: float, dim: int) -> float:
    """Entropy of (1 - t)|v><v| + t I/dim for a unit vector v.

    The mixture's spectrum is (1 - t) + t/dim once and t/dim with
    multiplicity dim - 1, whatever v is.
    """
    top = (1.0 - t) + t / dim
    rest = t / dim
    s = -top * math.log(top)
    if rest > 0.0:
        s -= (dim - 1) * rest * math.log(rest)
    return s


def entropy_pinned_state(target: float, cutoff: int, rng: np.random.Generator) -> DensityMatrix:
    """Random state with von Neumann entropy within PIN_TOL of target.

    Mixes a random pure state toward the maximally mixed state; the
    entropy of the mixture is strictly increasing in the mixing weight,
    so bisection pins it.  That entropy depends on the weight alone
    (mix_entropy), so the bisection needs no eigensolve and no redraw.
    The result is conjugated by a Haar unitary.
    """
    target = float(target)
    # a target within PIN_TOL of 0 gives the pure state, even at cutoff 1
    if not 0.0 <= target <= max(math.log(cutoff) - 1e-12, PIN_TOL):
        raise DomainError(f"target entropy {target!r} unreachable at cutoff {cutoff}")
    base = random_pure(cutoff, rng).matrix
    t_star = 0.0
    if target > PIN_TOL:
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            s_mid = mix_entropy(mid, cutoff)
            if abs(s_mid - target) <= PIN_TOL:
                t_star = mid
                break
            if s_mid < target:
                lo = mid
            else:
                hi = mid
        else:
            raise DomainError(f"failed to pin entropy {target} at cutoff {cutoff}")
    v = random_unitary(cutoff, rng)
    eye = np.eye(cutoff) / cutoff
    rho = v @ ((1.0 - t_star) * base + t_star * eye) @ v.conj().T
    return DensityMatrix(0.5 * (rho + rho.conj().T))


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    cutoff: int
    kind: str = "mixed"
    target_entropy: Optional[float] = None


def draw_state(config: SamplerConfig, index: int):
    cutoff = checked_levels("sampler cutoff", config.cutoff)
    rng = substream(config.seed, index)
    if config.kind == "pure":
        return random_pure(cutoff, rng)
    if config.kind == "mixed":
        return random_mixed(cutoff, cutoff, rng)
    if config.kind == "diagonal":
        return random_diagonal(cutoff, rng)
    if config.kind == "pinned":
        if config.target_entropy is None:
            raise DomainError("pinned sampler needs target_entropy")
        return entropy_pinned_state(config.target_entropy, cutoff, rng)
    raise DomainError(f"unknown sampler kind {config.kind!r}")


# ---------------------------------------------------------------------------
# adversarial search for small output entropies at fixed input entropy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    best_state: DensityMatrix
    best_report: CmoeReport
    iterations: int
    accepted: int


def _escort_pin(values: np.ndarray, target: float) -> Optional[np.ndarray]:
    """Re-pin a spectrum to a target entropy by an escort power map.

    Returns probabilities lam**beta normalized, with beta bisected so
    the entropy hits target; None when the target is out of range.
    """
    lam = np.clip(values, 0.0, None)
    mask = lam > 1e-300
    loglam = np.log(lam[mask])
    if loglam.size < 2:
        return None

    def escort(beta: float) -> np.ndarray:
        lw = beta * loglam
        lw -= lw.max()
        w = np.exp(lw)
        return w / np.sum(w)

    def ent(beta: float) -> float:
        w = escort(beta)
        w = w[w > 1e-300]
        return float(-np.sum(w * np.log(w)))

    lo, hi = 1e-4, 1e4
    # entropy decreases in beta: beta->0 flattens, beta->inf sharpens
    if not (ent(hi) - PIN_TOL <= target <= ent(lo) + PIN_TOL):
        return None
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        s_mid = ent(mid)
        if abs(s_mid - target) <= PIN_TOL:
            out = np.zeros_like(values)
            out[mask] = escort(mid)
            return out
        if s_mid > target:
            lo = mid
        else:
            hi = mid
    return None


def adversarial_search(
    spec: ChannelSpec,
    target_entropy: float,
    iterations: int,
    cutoff: int,
    seed: int,
    start: Optional[DensityMatrix] = None,
) -> SearchResult:
    """Greedy descent on output entropy over states of fixed input entropy.

    Proposals alternate small unitary conjugations with spectrum
    perturbations re-pinned to the target entropy; a proposal is kept
    only when it lowers the output entropy.  The step angle shrinks
    after runs of rejections so the search settles into local minima.
    The unitary moves exponentiate with scipy's compiled expm kernel,
    which the search loads by file path without importing the scipy
    package (linalg._load_expm).  Loading it sets scipy's own OpenBLAS
    to one thread for the rest of the process, so that its thread pool
    does not spin against numpy's; numpy's OpenBLAS keeps the caller's
    thread count.
    """
    cutoff = checked_levels("search cutoff", cutoff)
    iterations = checked_levels("search iterations", iterations, least=0)
    if start is not None and start.dim != cutoff:
        raise DomainError(f"start state has {start.dim} levels, the search cutoff is {cutoff}")
    expm = _load_expm()
    rng = substream(seed, 0)
    state = start if start is not None else entropy_pinned_state(target_entropy, cutoff, rng)
    best = check_cmoe(spec, state)
    accepted = 0
    rejected_streak = 0
    angle = STEP_ANGLE
    for _ in range(iterations):
        cand = None
        if rng.random() < 0.5:
            h = complex_normal(rng, (cutoff, cutoff))
            h = h - h.conj().T
            scale = np.linalg.norm(h) / math.sqrt(cutoff)
            if scale > 0.0:
                v = expm((angle / scale) * h)
                m = v @ state.matrix @ v.conj().T
                cand = DensityMatrix(0.5 * (m + m.conj().T))
        else:
            vals, vecs = hermitian_eigh(state.matrix)
            noise = rng.standard_normal(cutoff)
            perturbed = np.clip(vals, 0.0, None) * np.exp(angle * noise)
            pinned = _escort_pin(perturbed, target_entropy)
            if pinned is not None:
                m = (vecs * pinned) @ vecs.conj().T
                cand = DensityMatrix(0.5 * (m + m.conj().T))
        if cand is not None:
            rep = check_cmoe(spec, cand)
            if rep.verdict is not None and rep.output_entropy < best.output_entropy:
                state, best = cand, rep
                accepted += 1
                rejected_streak = 0
                continue
        rejected_streak += 1
        if rejected_streak % DECAY_AFTER == 0:
            angle *= ANGLE_DECAY
    return SearchResult(
        best_state=state,
        best_report=best,
        iterations=iterations,
        accepted=accepted,
    )


# ---------------------------------------------------------------------------
# counterexample serialization
# ---------------------------------------------------------------------------


def state_to_json(state: DensityMatrix, seed: int, spec: ChannelSpec) -> dict:
    m = state.matrix
    return {
        "schema_version": 1,
        "dimension": state.dim,
        "entries_re": [float(x) for x in m.real.reshape(-1)],
        "entries_im": [float(x) for x in m.imag.reshape(-1)],
        "seed": int(seed),
        "channel": {
            "kind": spec.kind.value,
            "transmissivity": spec.transmissivity,
            "gain": spec.gain,
            "env_energy": spec.env_energy,
        },
    }


def state_from_json(payload: dict):
    d = int(payload["dimension"])
    re = np.asarray(payload["entries_re"], dtype=float).reshape(d, d)
    im = np.asarray(payload["entries_im"], dtype=float).reshape(d, d)
    rho = DensityMatrix.from_matrix(re + 1j * im)
    ch = payload["channel"]
    spec = ChannelSpec(
        kind=ChannelKind(ch["kind"]),
        transmissivity=ch.get("transmissivity"),
        gain=ch.get("gain"),
        env_energy=ch.get("env_energy", 0.0),
    )
    return rho, int(payload["seed"]), spec
