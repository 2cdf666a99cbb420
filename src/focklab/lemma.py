"""Scalar inequalities behind the norm-ratio saturation argument.

Everything here lives on geometric-sequence ratios z in (0, 1) and
Schatten orders 1 < p < q.  The functions are vectorized over numpy
arrays; the grid verifier sweeps them over a dense lattice and insists
every claimed inequality holds with a strictly positive margin.
"""

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .channels import ChannelKind, ChannelSpec, apply_channel, apply_diagonal, default_dims
from .entropy import schatten_norm
from .errors import DomainError, LemmaViolationError
from .thermal import log_thermal_schatten_norm

P_SOLVER_WIDTH = 1e-14
P_SOLVER_RESIDUAL = 1e-12

# the grid's orders span [GRID_P_LO, GRID_P_HI]; central differences of
# step FD_STEP must match the closed forms to within FD_TOL
GRID_P_LO, GRID_P_HI = 1.01, 1.49
FD_STEP, FD_TOL = 1e-7, 1e-6
SCAN_POINTS = 2000  # coarse-scan points of scan_ratio_maximizer
PROBE_TOLERANCE = 1e-6  # slack of the saturation probe over the thermal ceiling
PROBE_KINDS = ("mixed", "pure", "diagonal")


def _check_z(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0) or np.any(z >= 1.0):
        raise DomainError("ratio z must lie in [0, 1)")
    return z


def _one_minus_pow(z: np.ndarray, expo) -> np.ndarray:
    """1 - z**expo computed without cancellation, with 1 - 0**e = 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.expm1(np.multiply(expo, np.log(z)))
    return np.where(z == 0.0, 1.0, out)


def phi(z, p):
    """(1 - z**(p-1)) / (1 - z**p); the log-derivative kernel of the norms.

    Defined for p >= 1, with phi(z, 1) = 0 and phi -> 1 as z -> 0.
    """
    z = _check_z(z)
    p = np.asarray(p, dtype=float)
    if np.any(p < 1.0):
        raise DomainError("order p must be >= 1")
    num = np.where(p == 1.0, 0.0, _one_minus_pow(z, p - 1.0))
    return num / _one_minus_pow(z, p)


def psi(z, p):
    """p*(1 - z)/(1 - z**p) - 1; decreases from p - 1 at z=0 to 0 at z=1."""
    z = _check_z(z)
    p = np.asarray(p, dtype=float)
    if np.any(p < 1.0):
        raise DomainError("order p must be >= 1")
    return p * (1.0 - z) / _one_minus_pow(z, p) - 1.0


def f_func(z, p):
    """Slope comparison kernel z**(p-2) * (1-z)/(1-z**(p-1)) * psi(z, p)."""
    z = _check_z(z)
    if np.any(z == 0.0):
        raise DomainError("f_func needs z in (0, 1)")
    p = np.asarray(p, dtype=float)
    return z ** (p - 2.0) * (1.0 - z) / _one_minus_pow(z, p - 1.0) * psi(z, p)


def f_partial_p(z, p):
    """Closed form for the partial derivative of f_func in p (negative)."""
    z = _check_z(z)
    if np.any(z == 0.0):
        raise DomainError("f_partial_p needs z in (0, 1)")
    p = np.asarray(p, dtype=float)
    lz = np.log(z)
    a = _one_minus_pow(z, p - 1.0)
    b = _one_minus_pow(z, p)
    c = _one_minus_pow(z, 2.0 * p - 1.0)
    pref = z ** (p - 2.0) * (1.0 - z) ** 2 / (b * b * a * a)
    brak = a * b + c * (p - 1.0) * lz - (z * lz / (1.0 - z)) * a * a
    return pref * brak


def amplifier_z_map(z, gain):
    """Thermal-ratio pushforward of the quantum-limited amplifier."""
    z = _check_z(z)
    kap = float(gain)
    if kap < 1.0:
        raise DomainError(f"gain must be >= 1, got {kap!r}")
    return (z + kap - 1.0) / kap


def log_thermal_norm_ratio(z, gain, p, q):
    """ln of output-q-norm over input-p-norm for the thermal family."""
    z = _check_z(z)
    zp = amplifier_z_map(z, gain)
    return log_thermal_schatten_norm(zp, q) - log_thermal_schatten_norm(z, p)


def norm_ratio_log_derivative(z, gain, p, q):
    """d/dz of log_thermal_norm_ratio, in the factored form used by the solver.

    The derivative equals (phi(z, p) - phi(z', q)) / (1 - z) with
    z' = amplifier_z_map(z, gain), so interior maximizers are exactly
    the roots of phi(z, p) = phi(z', q).
    """
    z = _check_z(z)
    zp = amplifier_z_map(z, gain)
    return (phi(z, p) - phi(zp, q)) / (1.0 - z)


def solve_p_of_q(z_bar, gain, q) -> float:
    """Input order p making z_bar a stationary point of the norm ratio.

    Bisects phi(z_bar, p) = phi(z_bar', q) for p in (1, q), then takes a
    secant step to polish.  Raises LemmaViolationError when no sign
    change brackets a root.
    """
    z_bar = float(z_bar)
    if not 0.0 < z_bar < 1.0:
        raise DomainError("z_bar must lie in (0, 1)")
    q = float(q)
    if q <= 1.0:
        raise DomainError("order q must exceed 1")
    z_out = float(amplifier_z_map(z_bar, gain))
    target = float(phi(z_out, q))

    def h(p: float) -> float:
        return float(phi(z_bar, p)) - target

    lo, hi = 1.0 + 1e-9, q - 1e-9
    h_lo, h_hi = h(lo), h(hi)
    if h_lo == 0.0:
        return lo
    if h_hi == 0.0:
        return hi
    if h_lo * h_hi > 0.0:
        raise LemmaViolationError(
            f"no stationary order in (1, q) at z_bar={z_bar}, gain={gain}, q={q}"
        )
    while hi - lo > P_SOLVER_WIDTH:
        mid = 0.5 * (lo + hi)
        h_mid = h(mid)
        if h_mid == 0.0:
            return mid
        if h_lo * h_mid < 0.0:
            hi, h_hi = mid, h_mid
        else:
            lo, h_lo = mid, h_mid
    p = 0.5 * (lo + hi)
    # one secant polish using the surviving bracket endpoints
    if h_hi != h_lo:
        cand = lo - h_lo * (hi - lo) / (h_hi - h_lo)
        if lo <= cand <= hi and abs(h(cand)) <= abs(h(p)):
            p = cand
    return float(p)


# ---------------------------------------------------------------------------
# grid verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaGridSpec:
    z_points: int
    order_points: int
    gains: tuple

    def z_grid(self) -> np.ndarray:
        n = self.z_points
        return np.arange(1, n + 1) / (n + 1.0)

    def order_grid(self) -> np.ndarray:
        return np.linspace(GRID_P_LO, GRID_P_HI, self.order_points)


@dataclass
class LemmaGridReport:
    margins: Dict[str, dict] = field(default_factory=dict)
    fd_max_residual: float = 0.0
    points_checked: int = 0
    all_hold: bool = True


def _record(report: LemmaGridReport, name: str, chunks) -> None:
    """Record the smallest value over (values, axes) chunks and its grid point.

    `axes` names each axis of `values` by its grid, or holds a scalar
    for a coordinate fixed over the chunk.  The first minimum wins, in
    chunk order, and a NaN counts as the smallest.  An inequality
    checked at zero points gets a NaN margin, so it cannot hold.
    """
    best = None  # (key, axes, flat index, shape) of the smallest value so far
    for values, axes in chunks:
        if not values.size:
            continue
        j = int(np.argmin(values))
        v = float(values.flat[j])
        key = (not math.isnan(v), v)
        if best is None or key < best[0]:
            best = (key, axes, j, values.shape)
        report.points_checked += values.size
    if best is None:
        report.margins[name] = {"min_margin": math.nan, "argmin": {}}
        return
    (_, v), axes, j, shape = best
    idx = iter(np.unravel_index(j, shape))
    point = {k: float(g if np.ndim(g) == 0 else g[next(idx)]) for k, g in axes.items()}
    report.margins[name] = {"min_margin": v, "argmin": point}


def verify_lemma_inequalities(grid: LemmaGridSpec) -> LemmaGridReport:
    """Sweep every scalar inequality over the lattice and record margins.

    The report holds when every margin is strictly positive and the
    finite-difference residual stays within FD_TOL.
    """
    report = LemmaGridReport()
    z = grid.z_grid()
    orders = grid.order_grid()
    gains = np.asarray(grid.gains, dtype=float)
    pairs = [
        (ip, iq)
        for ip in range(orders.size)
        for iq in range(orders.size)
        if orders[ip] < orders[iq]
    ]

    # (in1) sqrt(z) + z*ln(z)/(1-z) > 0 on (0, 1)
    vals = np.sqrt(z) + z * np.log(z) / (1.0 - z)
    _record(report, "sqrt_log_positivity", [(vals, {"z": z})])

    # (in2) tail of -ln(1-x) past second order, x = 1 - z**(p-1)
    x = _one_minus_pow(z[:, None], orders[None, :] - 1.0)
    vals = -x - 0.5 * x * x - np.log1p(-x)
    _record(report, "log_tail_positivity", [(vals, {"z": z, "p": orders})])

    # phi stays in (0, 1)-ordered position under the amplifier map:
    # 0 < phi(z', q) < phi(z, q)
    pz = phi(z[:, None], orders[None, :])
    images = [phi(amplifier_z_map(z, kap)[:, None], orders[None, :]) for kap in gains]
    _record(
        report,
        "phi_image_positive",
        [(low, {"gain": kap, "z": z, "q": orders}) for kap, low in zip(gains, images)],
    )
    _record(
        report,
        "phi_image_below_source",
        ((pz - low, {"gain": kap, "z": z, "q": orders}) for kap, low in zip(gains, images)),
    )

    # phi decreases along z at fixed order
    dz = pz[:-1, :] - pz[1:, :]
    _record(report, "phi_decreasing_in_z", [(dz, {"z": z, "p": orders})])

    # the ratio phi(z, p)/phi(z', q) decreases along z for every p < q
    def ratio_drops():
        for kap, pzk in zip(gains, images):
            for ip, iq in pairs:
                ratio = pz[:, ip] / pzk[:, iq]
                axes = {"gain": kap, "z": z, "p": orders[ip], "q": orders[iq]}
                yield ratio[:-1] - ratio[1:], axes

    _record(report, "phi_ratio_decreasing_in_z", ratio_drops())

    # f(z, p) > f(z', q) for p < q across gains
    fz = [f_func(z, p) for p in orders]

    def f_gaps():
        for kap in gains:
            zk = amplifier_z_map(z, kap)
            fzk = [f_func(zk, q) for q in orders]
            for ip, iq in pairs:
                axes = {"gain": kap, "z": z, "p": orders[ip], "q": orders[iq]}
                yield fz[ip] - fzk[iq], axes

    _record(report, "f_strictly_ordered", f_gaps())

    # closed-form derivative of f in p is strictly negative
    dfp = -f_partial_p(z[:, None], orders[None, :])
    _record(report, "f_decreasing_in_p", [(dfp, {"z": z, "p": orders})])

    # finite differences agree in sign away from the p = 3/2 boundary
    h = FD_STEP
    keep = np.abs(orders - 1.5) > 0.01 + 1e-12
    pk = orders[keep]
    fd_f = (f_func(z[:, None], pk[None, :] + h) - f_func(z[:, None], pk[None, :] - h)) / (2.0 * h)
    _record(report, "f_decreasing_in_p_fd", [(-fd_f, {"z": z, "p": pk})])

    # analytic log-derivative of the norm ratio vs central differences
    fd_max = 0.0
    for kap in gains:
        for q in orders:
            for p in orders[orders < q]:
                ana = norm_ratio_log_derivative(z, kap, p, q)
                num = (log_thermal_norm_ratio(z + h, kap, p, q) - log_thermal_norm_ratio(z - h, kap, p, q)) / (
                    2.0 * h
                )
                fd_max = max(fd_max, float(np.max(np.abs(ana - num))))
    report.fd_max_residual = fd_max
    report.all_hold = fd_max <= FD_TOL and all(
        m["min_margin"] > 0.0 for m in report.margins.values()
    )
    return report


def scan_ratio_maximizer(gain: float, p: float, q: float):
    """Locate the interior maximizer of the thermal norm ratio in z.

    Coarse scan over an interior grid, then golden-section refinement on
    the bracketing cell.  Returns (z_star, log_ratio_at_star).
    """
    zg = np.arange(1, SCAN_POINTS + 1) / (SCAN_POINTS + 1.0)
    vals = log_thermal_norm_ratio(zg, gain, p, q)
    j = int(np.argmax(vals))
    lo = zg[j - 1] if j > 0 else zg[j] / 2.0
    hi = zg[j + 1] if j < SCAN_POINTS - 1 else 0.5 * (zg[j] + 1.0)
    inv_gold = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_gold * (b - a)
    d = a + inv_gold * (b - a)
    fc = float(log_thermal_norm_ratio(c, gain, p, q))
    fd = float(log_thermal_norm_ratio(d, gain, p, q))
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_gold * (b - a)
            fc = float(log_thermal_norm_ratio(c, gain, p, q))
        else:
            a, c, fc = c, d, fd
            d = a + inv_gold * (b - a)
            fd = float(log_thermal_norm_ratio(d, gain, p, q))
    z_star = 0.5 * (a + b)
    return float(z_star), float(log_thermal_norm_ratio(z_star, gain, p, q))


# ---------------------------------------------------------------------------
# random-state saturation probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SaturationProbeReport:
    gain: float
    p: float
    q: float
    cutoff: int
    trials: int
    thermal_log_ceiling: float
    best_trial_log_ratio: float
    worst_margin: float
    exceeded: bool


def pq_norm_saturation_probe(
    gain: float,
    p: float,
    q: float,
    cutoff: int,
    trials: int,
    seed: int,
) -> SaturationProbeReport:
    """Check that no random input beats the thermal-family norm ratio.

    Draws states of the PROBE_KINDS in rotation, pushes each through
    the quantum-limited amplifier, and compares the realized q-to-p norm
    ratio against the thermal ceiling.
    """
    from .sampling import random_diagonal, random_mixed, random_pure, substream

    spec = ChannelSpec(kind=ChannelKind.AMPLIFIER, gain=float(gain))
    dims = default_dims(spec, cutoff)
    _, ceiling = scan_ratio_maximizer(gain, p, q)
    best = -math.inf
    for t in range(trials):
        rng = substream(seed, t)
        kind = PROBE_KINDS[t % len(PROBE_KINDS)]
        if kind == "diagonal":
            state = random_diagonal(cutoff, rng)
            out = apply_diagonal(spec, state, dims)
        elif kind == "mixed":
            state = random_mixed(cutoff, cutoff, rng)
            out = apply_channel(spec, state, dims)
        else:
            state = random_pure(cutoff, rng)
            out = apply_channel(spec, state, dims)
        ratio = math.log(schatten_norm(out, q)) - math.log(schatten_norm(state, p))
        if ratio > best:
            best = ratio
    margin = ceiling + PROBE_TOLERANCE - best
    exceeded = best > ceiling + PROBE_TOLERANCE
    return SaturationProbeReport(
        gain=float(gain),
        p=float(p),
        q=float(q),
        cutoff=int(cutoff),
        trials=int(trials),
        thermal_log_ceiling=float(ceiling),
        best_trial_log_ratio=float(best),
        worst_margin=float(margin),
        exceeded=bool(exceeded),
    )
