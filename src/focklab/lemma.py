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

from .channels import amplifier, apply_diagonal, checked_bytes, get_channel_map
from .entropy import schatten_norm
from .errors import DomainError, LemmaViolationError
from .states import DiagonalState
from .thermal import _log_norm, _one_minus_pow

P_SOLVER_WIDTH = 1e-14
P_SOLVER_RESIDUAL = 1e-12

# the scalar inequalities are only guaranteed on 1 < p < q < 3/2
ORDER_GUARANTEE_LIMIT = 1.5
# the grid's orders span [GRID_P_LO, GRID_P_HI]; central differences of
# step FD_STEP must match the closed forms to within FD_TOL
GRID_P_LO, GRID_P_HI = 1.01, 1.49
FD_STEP, FD_TOL = 1e-7, 1e-6
SCAN_POINTS = 2000  # coarse-scan points of scan_ratio_maximizer
# peak bytes of scan_ratio_maximizer on one row: about six (SCAN_POINTS +
# 1)-point arrays and their headers (tracemalloc: 93.5 KB)
SCAN_BYTES = 6 * 8 * (SCAN_POINTS + 1) + 4096
# the amplifier gain and the orders at which verify-lemma probes the
# ceiling and checks the ratio derivative at the boundary
PROBE_GAIN, PROBE_P, PROBE_Q = 2.0, 1.2, 1.35
# the ratio, gain and decreasing orders along which p - 1 must decrease
TREND_Z, TREND_GAIN, TREND_Q = 0.5, 2.0, (1.1, 1.01, 1.001)
# slack of the saturation probe over the thermal ceiling.  Truncating the
# output only lowers a computed ratio, so the slack covers rounding alone:
# at the probe's point and 24 levels the best ascent ends within ~1e-16
# of the ceiling, and one band-0 weight scaled by 1 + 1e-6 lifts it 3e-8
# to 5e-7 above
PROBE_TOLERANCE = 1e-12
# the probe's passive starts, and the most steps one ascent takes
PROBE_STARTS, PROBE_MAX_STEPS = 8, 1000


def _rows(*args):
    """The arguments as float arrays broadcast to one shape of rows."""
    return np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))


def _check_z(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0) or np.any(z >= 1.0):
        raise DomainError("ratio z must lie in [0, 1)")
    return z


def phi(z, p):
    """(1 - z**(p-1)) / (1 - z**p); the log-derivative kernel of the norms.

    Defined for p >= 1, with phi(z, 1) = 0 and phi -> 1 as z -> 0.
    """
    z = _check_z(z)
    p = np.asarray(p, dtype=float)
    if not np.all(p >= 1.0):
        raise DomainError("order p must be >= 1")
    num = np.where(p == 1.0, 0.0, _one_minus_pow(z, p - 1.0))
    return num / _one_minus_pow(z, p)


def psi(z, p):
    """p*(1 - z)/(1 - z**p) - 1; decreases from p - 1 at z=0 to 0 at z=1."""
    z = _check_z(z)
    p = np.asarray(p, dtype=float)
    if not np.all(p >= 1.0):
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
    kap = np.asarray(gain, dtype=float)
    if not np.all(kap >= 1.0):
        raise DomainError(f"gain must be >= 1, got {gain!r}")
    return (z + kap - 1.0) / kap


def _log_norm_ratio(z, kap, p, q):
    """ln ||thermal(z')||_q - ln ||thermal(z)||_p, the thermal family's p->q norm ratio.

    z' = (z + kap - 1)/kap is the amplifier's image of z at the float gain kap.
    """
    return _log_norm((z + kap - 1.0) / kap, q) - _log_norm(z, p)


def norm_ratio_log_derivative(z, gain, p, q):
    """d/dz of the thermal norm ratio _log_norm_ratio, in the factored form used by the solver.

    The derivative equals (phi(z, p) - phi(z', q)) / (1 - z) with
    z' = amplifier_z_map(z, gain), so interior maximizers are exactly
    the roots of phi(z, p) = phi(z', q).
    """
    z = _check_z(z)
    zp = amplifier_z_map(z, gain)
    return (phi(z, p) - phi(zp, q)) / (1.0 - z)


def solve_p_of_q(z_bar, gain, q):
    """Input order p making z_bar a stationary point of the norm ratio.

    Bisects phi(z_bar, p) = phi(z_bar', q) for p in (1, q), then takes a
    secant step to polish.  Rows of (z_bar, gain, q) arrays step in
    lockstep, each as a scalar call would, and get NaN where no sign
    change brackets a root or phi refuses the image or the bracket; a
    scalar call raises LemmaViolationError or DomainError instead.
    """
    z_bar, kap, q = _rows(z_bar, gain, q)
    if not np.all((0.0 < z_bar) & (z_bar < 1.0)):
        raise DomainError("z_bar must lie in (0, 1)")
    if not np.all(q > 1.0):
        raise DomainError("order q must exceed 1")
    z_out = amplifier_z_map(z_bar, kap)
    lo, hi = np.full(q.shape, 1.0 + 1e-9), q - 1e-9
    refused = (z_out >= 1.0) | (hi < 1.0)
    if refused.ndim == 0 and refused:
        raise DomainError("ratio z must lie in [0, 1)" if z_out >= 1.0 else "order p must be >= 1")
    target = phi(np.where(refused, 0.0, z_out), q)
    hi = np.where(refused, lo, hi)

    def h(p):
        return phi(z_bar, p) - target

    h_lo, h_hi = h(lo), h(hi)
    done = refused | (h_lo == 0.0) | (h_hi == 0.0) | (h_lo * h_hi > 0.0)
    p = np.select([refused, h_lo == 0.0, h_hi == 0.0], [np.nan, lo, hi], np.nan)
    active = ~done & (hi - lo > P_SOLVER_WIDTH)
    while active.any():
        mid = 0.5 * (lo + hi)
        h_mid = h(mid)
        hit = active & (h_mid == 0.0)
        p = np.where(hit, mid, p)
        done |= hit
        down = active & ~hit & (h_lo * h_mid < 0.0)
        up = active & ~hit & ~down
        hi, h_hi = np.where(down, mid, hi), np.where(down, h_mid, h_hi)
        lo, h_lo = np.where(up, mid, lo), np.where(up, h_mid, h_lo)
        active = (down | up) & (hi - lo > P_SOLVER_WIDTH)
    # one secant polish using the surviving bracket endpoints
    mid = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = lo - h_lo * (hi - lo) / (h_hi - h_lo)
    inside = (h_hi != h_lo) & (lo <= cand) & (cand <= hi)
    cand = np.where(inside, cand, mid)
    polished = np.where(inside & (np.abs(h(cand)) <= np.abs(h(mid))), cand, mid)
    p = np.where(done, p, polished)
    if p.ndim:
        return p
    if np.isnan(p):
        raise LemmaViolationError(
            f"no stationary order in (1, q) at z_bar={float(z_bar)}, gain={gain}, q={float(q)}"
        )
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

    def peak_bytes(self) -> int:
        """Peak bytes of verify_lemma_inequalities on this grid.

        At the fd sweep: pz, one image per gain, four log-norm tables and
        about four temporaries, gains + 10 (z, order) arrays (tracemalloc:
        gains + 9.0 to 10.1); z and its images; and headers and dicts.
        """
        n, o, k = self.z_points, self.order_points, len(self.gains)
        return 8 * (n * o * (k + 10) + n * (k + 2) + 2 * o) + 512 * k + 12288


@dataclass
class LemmaGridReport:
    margins: Dict[str, dict] = field(default_factory=dict)
    fd_max_residual: float = 0.0
    points_checked: int = 0
    all_hold: bool = True

    def failures(self) -> list:
        """One line per failed grid claim, in check order; all_hold means there is none."""
        bad = {k: v for k, v in self.margins.items() if not v["min_margin"] > 0.0}
        lines = [f"lemma grid margins: {bad}"] if bad else []
        fd = self.fd_max_residual
        if not fd <= FD_TOL:
            lines.append(f"lemma fd residual {fd:.3e} not within FD_TOL {FD_TOL:g}")
        return lines


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


def _fd_max_residual(z, orders, gains, z_images, pz, images) -> float:
    """Largest |analytic - central-difference| log-derivative of the norm ratio.

    Taken over every gain, every order p with the orders q above it,
    and z, from the grid's phi tables pz and images, (z, order) each.  A
    NaN residual propagates, and a gain with an image at 1 has no
    derivative there, so it gives NaN.  ln ||.||_p at z +- h is tabled
    once per order, and ln ||.||_q at z'(z +- h) once per order and gain;
    each p takes one (q, z) block of each, with the float operations of
    norm_ratio_log_derivative and _log_norm_ratio.
    """
    h = FD_STEP

    def log_norms(*zs):
        return [_log_norm(x, orders[:, None]) for x in zs]

    norm_p = log_norms(z + h, z - h)
    fd_max = 0.0
    for kap, zk, pzk in zip(gains, z_images, images):
        if np.isnan(zk).any():
            fd_max = math.nan
            continue
        norm_q = log_norms((z + h + kap - 1.0) / kap, (z - h + kap - 1.0) / kap)
        for ip in range(len(orders)):
            ana = (pz[:, ip] - pzk[:, ip + 1 :].T) / (1.0 - z)
            diff = (norm_q[0][ip + 1 :] - norm_p[0][ip]) - (norm_q[1][ip + 1 :] - norm_p[1][ip])
            fd_max = float(np.max(np.abs(ana - diff / (2.0 * h)), initial=fd_max))
    return fd_max


def verify_lemma_inequalities(grid: LemmaGridSpec) -> LemmaGridReport:
    """Sweep every scalar inequality over the lattice and record margins.

    The report holds when every margin is strictly positive and the
    finite-difference residual stays within FD_TOL.  A grid over
    MAX_DENSE_BYTES raises ResourceLimitError before it allocates.
    """
    what = f"the {grid.z_points} x {grid.order_points} point lemma grid at {len(grid.gains)} gains"
    checked_bytes((what, grid.peak_bytes()))
    report = LemmaGridReport()
    z = grid.z_grid()
    orders = grid.order_grid()  # ascending: the orders q > orders[ip] are orders[ip + 1:]
    gains = np.asarray(grid.gains, dtype=float)

    # (in1) sqrt(z) + z*ln(z)/(1-z) > 0 on (0, 1)
    _record(report, "sqrt_log_positivity", [(np.sqrt(z) + z * np.log(z) / (1.0 - z), {"z": z})])

    # (in2) tail of -ln(1-x) past second order, x = 1 - z**(p-1)
    tails = ((-x - 0.5 * x * x - np.log1p(-x), {"z": z, "p": orders})
             for x in [_one_minus_pow(z[:, None], orders[None, :] - 1.0)])
    _record(report, "log_tail_positivity", tails)

    # the amplifier image z' of the grid at each gain; one that rounds to
    # 1, as at a huge gain, is NaN, so every margin and residual it
    # enters fails
    z_images = amplifier_z_map(z[None, :], gains[:, None])
    z_images = np.where(z_images < 1.0, z_images, np.nan)

    # phi stays in (0, 1)-ordered position under the amplifier map:
    # 0 < phi(z', q) < phi(z, q)
    pz = phi(z[:, None], orders[None, :])
    images = [phi(zk[:, None], orders[None, :]) for zk in z_images]
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
    _record(report, "phi_decreasing_in_z", [(pz[:-1, :] - pz[1:, :], {"z": z, "p": orders})])

    # the ratio phi(z, p)/phi(z', q) decreases along z for every p < q
    def ratio_drops():
        for kap, pzk in zip(gains, images):
            for ip, p in enumerate(orders):
                ratio = pz[:, ip] / pzk[:, ip + 1 :].T
                axes = {"gain": kap, "p": p, "q": orders[ip + 1 :], "z": z}
                yield ratio[:, :-1] - ratio[:, 1:], axes

    _record(report, "phi_ratio_decreasing_in_z", ratio_drops())

    # f(z, p) > f(z', q) for p < q across gains
    def f_gaps():
        fz = f_func(z, orders[:, None])
        for kap, zk in zip(gains, z_images):
            fzk = f_func(zk, orders[:, None])
            for ip, p in enumerate(orders):
                yield fz[ip] - fzk[ip + 1 :], {"gain": kap, "p": p, "q": orders[ip + 1 :], "z": z}

    _record(report, "f_strictly_ordered", f_gaps())

    # closed-form derivative of f in p is strictly negative
    _record(report, "f_decreasing_in_p", [(-f_partial_p(z[:, None], orders), {"z": z, "p": orders})])

    # finite differences agree in sign away from the p = 3/2 boundary
    h, pk = FD_STEP, orders[np.abs(orders - ORDER_GUARANTEE_LIMIT) > 0.01 + 1e-12]
    drops = ((-fd / (2.0 * h), {"z": z, "p": pk})
             for fd in [f_func(z[:, None], pk + h) - f_func(z[:, None], pk - h)])
    _record(report, "f_decreasing_in_p_fd", drops)

    # the analytic log-derivative of the norm ratio against central differences
    report.fd_max_residual = _fd_max_residual(z, orders, gains, z_images, pz, images)
    report.all_hold = not report.failures()
    return report


def scan_ratio_maximizer(gain, p, q):
    """Locate the maximizer of the thermal norm ratio in z on [0, 1).

    Coarse scan over z = 0 and an interior grid, then golden-section
    refinement between the neighbours of the best point.  Rows of (gain,
    p, q) arrays refine in lockstep, and one whose grid maps onto z' = 1
    gets NaN, where a scalar call raises DomainError.  Returns (z_star,
    log_ratio_at_star).
    """
    kap, p, q = _rows(gain, p, q)
    n = SCAN_POINTS
    zg = np.arange(n + 1) / (n + 1.0)
    refused = amplifier_z_map(zg[-1], kap) >= 1.0  # the image rises with z
    if refused.ndim == 0 and refused:
        raise DomainError("scan_ratio_maximizer needs an image z' < 1 of its whole z grid")
    if not (np.all(p > 1.0) and np.all(q > 1.0)):
        raise DomainError("scan_ratio_maximizer needs p > 1 and q > 1")
    kap = np.where(refused, 1.0, kap)

    def f(z):
        return _log_norm_ratio(z, kap, p, q)

    # row by row: an (18, 2001) broadcast adds 2 MB to verify-lemma's peak
    # RSS; the argmax j as a float keeps to the float loops the command
    # already runs (the first int64 ufunc call maps 0.13 MB more of numpy)
    rows = zip(kap.flat, p.flat, q.flat)
    j = np.reshape([float(np.argmax(_log_norm_ratio(zg, *row))) for row in rows], kap.shape)
    a = np.maximum(j - 1.0, 0.0) / (n + 1.0)  # zg[j - 1], or z = 0
    b = np.where(j < n, (j + 1.0) / (n + 1.0), 0.5 * (zg[n] + 1.0))
    inv_gold = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_gold * (b - a)
    d = a + inv_gold * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        # keep [a, d] where f(c) > f(d), else [c, b]; one new point a row
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - inv_gold * (b - a), a + inv_gold * (b - a))
        fx = f(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    z_star = np.where(refused, np.nan, 0.5 * (a + b))
    value = np.where(refused, np.nan, f(z_star))
    if z_star.ndim:
        return z_star, value
    return float(z_star), float(value)


# ---------------------------------------------------------------------------
# passive saturation probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SaturationProbeReport:
    gain: float
    p: float
    q: float
    cutoff: int
    trials: int
    steps: int
    thermal_log_ceiling: float
    best_trial_log_ratio: float
    worst_margin: float
    exceeded: bool


def _log_vector_norm(x: np.ndarray, alpha: float) -> float:
    """ln of the l_alpha norm of a nonnegative vector that is not zero."""
    top = x.max()
    return math.log(top) + math.log(np.sum((x / top) ** alpha)) / alpha


def _passive_ascent(band0: np.ndarray, p: float, q: float, x: np.ndarray) -> tuple:
    """(best iterate, its log ratio, steps) of Boyd's fixed point from the input x >= 0.

    A step maps x to (B^T (B x)**(q-1))**(1/(p-1)), normalized, whose
    fixed points are the stationary points of ln ||B x||_q - ln ||x||_p
    (Boyd, Linear Algebra Appl. 9, 95 (1974)).  The ascent stops at the
    first step that does not raise that ratio, or after PROBE_MAX_STEPS.
    """

    def log_ratio(v):
        return _log_vector_norm(band0 @ v, q) - _log_vector_norm(v, p)

    best = log_ratio(x)
    for steps in range(PROBE_MAX_STEPS):
        y = (band0 @ x) ** (q - 1.0) @ band0
        y = (y / y.max()) ** (1.0 / (p - 1.0))
        y /= y.sum()
        ratio = log_ratio(y)
        if not ratio > best:
            return x, best, steps
        x, best = y, ratio
    return x, best, PROBE_MAX_STEPS


def pq_norm_saturation_probe(
    gain: float, p: float, q: float, cutoff: int, seed: int
) -> SaturationProbeReport:
    """Check that no passive input beats the thermal-family norm ratio.

    Passive inputs, Fock-diagonal and decreasing, attain the largest
    output q-norm at a fixed input p-norm (arXiv:1511.00293), and a
    diagonal input's ratio is that of its band-0 image.  So the probe
    runs _passive_ascent on band 0 of the quantum-limited amplifier from
    PROBE_STARTS sorted random diagonal draws, and recomputes the best
    iterate's ratio through apply_diagonal and schatten_norm, which
    refuse an output that lost more than MAX_APPLY_DEFICIT.  The claim
    fails when that ratio exceeds the thermal ceiling by PROBE_TOLERANCE.
    """
    from .sampling import SamplerConfig, draw_state

    _, ceiling = scan_ratio_maximizer(gain, p, q)
    spec = amplifier(gain)
    band0 = get_channel_map(spec, cutoff).bands[0]
    starts = (np.sort(draw_state(SamplerConfig(seed, cutoff, "diagonal"), t).probs)[::-1]
              for t in range(PROBE_STARTS))
    ascents = [_passive_ascent(band0, p, q, x) for x in starts]
    state = DiagonalState(max(ascents, key=lambda ascent: ascent[1])[0])
    ratio = math.log(schatten_norm(apply_diagonal(spec, state), q)) - math.log(schatten_norm(state, p))
    return SaturationProbeReport(
        gain=float(gain),
        p=float(p),
        q=float(q),
        cutoff=int(cutoff),
        trials=PROBE_STARTS,
        steps=max(steps for _, _, steps in ascents),
        thermal_log_ceiling=float(ceiling),
        best_trial_log_ratio=ratio,
        worst_margin=ceiling + PROBE_TOLERANCE - ratio,
        exceeded=ratio > ceiling + PROBE_TOLERANCE,
    )
