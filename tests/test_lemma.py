import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_equal

import focklab.entropy
from focklab.channels import amplifier, apply_channel, apply_diagonal, default_dims
from focklab.entropy import renyi_entropy, schatten_norm
from focklab.errors import DomainError, LemmaViolationError
from focklab.cli import DEFAULT_CONFIG
from focklab.lemma import (
    FD_STEP,
    FD_TOL,
    P_SOLVER_WIDTH,
    PROBE_CHUNK,
    PROBE_KINDS,
    PROBE_TOLERANCE,
    TREND_GAIN,
    TREND_Q,
    TREND_Z,
    LemmaGridReport,
    LemmaGridSpec,
    SaturationProbeReport,
    _log_norm_ratio,
    _one_minus_pow,
    amplifier_z_map,
    f_func,
    f_partial_p,
    log_schatten_bound,
    log_thermal_norm_ratio,
    norm_ratio_log_derivative,
    phi,
    pq_norm_saturation_probe,
    psi,
    scan_ratio_maximizer,
    solve_p_of_q,
    verify_lemma_inequalities,
)
from focklab.sampling import SamplerConfig, draw_state, entropy_pinned_state, substream
from focklab.thermal import g, g_prime, log_thermal_schatten_norm, thermal_state, z_of_energy


def test_phi_closed_form_points():
    # powers of 1/4 are exact in binary, so these are clean references
    assert_allclose(phi(0.25, 1.5), 0.5 / 0.875, rtol=1e-14)
    assert_allclose(phi(0.25, 2.0), 0.75 / 0.9375, rtol=1e-14)


def test_phi_at_order_one_is_zero():
    for z in (0.0, 0.3, 0.9):
        assert phi(z, 1.0) == 0.0


def test_phi_limits():
    # z -> 0 gives 1 for any order above one
    assert_allclose(phi(0.0, 1.7), 1.0, atol=0)
    # z -> 1 gives (p - 1) / p
    for p in (1.2, 1.5, 3.0):
        assert_allclose(phi(1.0 - 1e-9, p), (p - 1.0) / p, rtol=1e-6)


def test_phi_rejects_z_outside_unit_interval():
    with pytest.raises(DomainError):
        phi(1.0, 1.5)
    with pytest.raises(DomainError):
        phi(-0.1, 1.5)


def test_phi_increasing_in_order():
    z = 0.6
    orders = np.array([1.1, 1.3, 1.7, 2.5])
    vals = phi(z, orders)
    assert np.all(np.diff(vals) > 0)


def test_psi_values_and_limits():
    assert abs(psi(0.3, 1.0)) < 1e-14
    assert_allclose(psi(0.5, 2.0), 1.0 / 3.0, rtol=1e-14)
    assert abs(psi(1.0 - 1e-6, 1.3)) < 1e-5
    assert psi(0.5, 1.4) > 0.0


def test_psi_decreasing_in_z():
    zs = np.linspace(0.05, 0.95, 30)
    vals = psi(zs, 1.4)
    assert np.all(np.diff(vals) < 0)


def test_f_closed_form_at_order_two():
    # at order two the function collapses to (1 - z) / (1 + z)
    for z in (0.2, 0.5, 0.8):
        assert_allclose(f_func(z, 2.0), (1.0 - z) / (1.0 + z), rtol=1e-13)


def test_f_partial_p_matches_finite_difference():
    h = 1e-7
    for z in (0.1, 0.5, 0.9):
        for p in (1.2, 1.5, 2.0, 3.0):
            fd = (f_func(z, p + h) - f_func(z, p - h)) / (2 * h)
            assert_allclose(f_partial_p(z, p), fd, atol=1e-6, rtol=1e-6)


def test_amplifier_z_map():
    assert_allclose(amplifier_z_map(0.4, 2.0), 0.7, atol=1e-15)
    assert_allclose(amplifier_z_map(0.0, 1.5), 1.0 / 3.0, rtol=1e-15)
    # gain one is the identity on the thermal ratio
    assert_allclose(amplifier_z_map(0.6, 1.0), 0.6, atol=0)


def test_z_map_matches_channel_on_thermal_states():
    z, kap = 0.4, 2.0
    out = apply_diagonal(amplifier(kap), thermal_state(z / (1.0 - z), 40))
    z_out = amplifier_z_map(z, kap)
    expected = thermal_state(z_out / (1.0 - z_out), out.dim)
    assert_allclose(out.probs, expected.probs, atol=1e-10)


def test_thermal_norm_ratio_against_spectral_norms():
    z, kap, p, q = 0.4, 2.0, 1.2, 1.3
    state_in = thermal_state(z / (1.0 - z), 60)
    state_out = apply_diagonal(amplifier(kap), state_in)
    direct = schatten_norm(state_out, q) / schatten_norm(state_in, p)
    assert_allclose(np.exp(log_thermal_norm_ratio(z, kap, p, q)), direct, rtol=1e-7)


def test_norm_ratio_log_derivative_matches_finite_difference():
    h = 1e-6
    for z in (0.2, 0.5, 0.8):
        for kap, p, q in ((1.5, 1.1, 1.3), (2.0, 1.2, 1.4)):
            fd = (
                log_thermal_norm_ratio(z + h, kap, p, q)
                - log_thermal_norm_ratio(z - h, kap, p, q)
            ) / (2 * h)
            assert_allclose(norm_ratio_log_derivative(z, kap, p, q), fd, rtol=1e-6)


def test_solver_residual_and_range():
    for z_bar in (0.25, 0.5, 0.75):
        for kap in (1.5, 2.0):
            for q in (1.1, 1.3, 1.49):
                p = solve_p_of_q(z_bar, kap, q)
                assert 1.0 < p < q
                z_out = amplifier_z_map(z_bar, kap)
                residual = abs(float(phi(z_bar, p)) - float(phi(z_out, q)))
                assert residual <= 1e-12


def test_solver_prefactor_sandwich():
    for q in (1.1, 1.3, 1.49):
        p = solve_p_of_q(0.5, 2.0, q)
        prefactor = (q / (q - 1.0)) * ((p - 1.0) / p)
        assert 0.0 < prefactor < 1.0


def test_solver_trend_toward_order_one():
    gaps = []
    for q in (1.1, 1.01, 1.001):
        p = solve_p_of_q(0.5, 2.0, q)
        gaps.append(p - 1.0)
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    # p - 1 shrinks roughly linearly with q - 1
    assert 5.0 < gaps[0] / gaps[1] < 20.0
    assert 5.0 < gaps[1] / gaps[2] < 20.0


def _slope_limit_error(closed_form_gain_scale):
    """Largest |lim (p - 1)/(q - 1) - k ln z'/ln z| as q -> 1 over a (z, gain) grid.

    The limit is Richardson-extrapolated from the solver at q - 1 = 1e-4
    and 5e-5; the closed form takes the gain times closed_form_gain_scale.
    """
    z_bar, kap = (a.ravel() for a in np.meshgrid([0.2, 0.5, 0.75, 0.95], [1.5, 2.0, 4.0]))

    def slope(h):
        return (solve_p_of_q(z_bar, kap, np.full(z_bar.shape, 1.0 + h)) - 1.0) / h

    limit = 2.0 * slope(5e-5) - slope(1e-4)
    k = kap * closed_form_gain_scale
    return float(np.abs(limit - k * np.log(amplifier_z_map(z_bar, k)) / np.log(z_bar)).max())


def test_solver_slope_tends_to_the_entropy_bounds_slope():
    # as q -> 1 the norm ceiling's stationary order p(q) has slope
    # k g'(E_out)/g'(E), the slope of the CMOE bound: one theorem, two limits
    assert _slope_limit_error(1.0) <= 1e-8
    # a gain off by 1e-6 in the closed form is seen (by up to 3.5e-7)
    assert _slope_limit_error(1.0 + 1e-6) > 1e-8


def test_solver_no_bracket_at_gain_one():
    with pytest.raises(LemmaViolationError):
        solve_p_of_q(0.5, 1.0, 1.3)


def test_solver_rejects_bad_arguments():
    with pytest.raises(DomainError):
        solve_p_of_q(0.0, 2.0, 1.3)
    with pytest.raises(DomainError):
        solve_p_of_q(0.5, 2.0, 1.0)


def test_maximizer_round_trip():
    z_bar, kap, q = 0.5, 2.0, 1.3
    p = solve_p_of_q(z_bar, kap, q)
    z_star, log_ceiling = scan_ratio_maximizer(kap, p, q)
    assert abs(z_star - z_bar) < 1.0 / 2001.0
    assert_allclose(log_ceiling, log_thermal_norm_ratio(z_bar, kap, p, q), rtol=1e-9)


def test_derivative_has_unique_sign_change():
    z_bar, kap, q = 0.5, 2.0, 1.3
    p = solve_p_of_q(z_bar, kap, q)
    zs = np.arange(1, 400) / 400.0
    deriv = norm_ratio_log_derivative(zs, kap, p, q)
    signs = np.sign(deriv)
    flips = np.nonzero(np.diff(signs) != 0)[0]
    assert len(flips) == 1
    assert signs[0] > 0 > signs[-1]


def test_grid_verification_small_grid():
    grid = LemmaGridSpec(z_points=30, order_points=8, gains=(1.5, 2.0))
    report = verify_lemma_inequalities(grid)
    assert report.all_hold
    assert report.points_checked > 0
    assert report.fd_max_residual <= 1e-6
    for name, entry in report.margins.items():
        assert entry["min_margin"] > 0.0, name


def test_grid_report_serializes():
    grid = LemmaGridSpec(z_points=10, order_points=4, gains=(2.0,))
    payload = dataclasses.asdict(verify_lemma_inequalities(grid))
    assert payload["all_hold"] is True
    assert "margins" in payload and "fd_max_residual" in payload


def test_grid_argmin_points_reproduce_the_margins():
    grid = LemmaGridSpec(z_points=30, order_points=6, gains=(1.5, 2.0, 4.0))
    margins = verify_lemma_inequalities(grid).margins
    at = margins["f_strictly_ordered"]["argmin"]
    gap = f_func(at["z"], at["p"]) - f_func(amplifier_z_map(at["z"], at["gain"]), at["q"])
    assert_allclose(margins["f_strictly_ordered"]["min_margin"], gap, rtol=1e-12)
    at = margins["phi_image_below_source"]["argmin"]
    gap = phi(at["z"], at["q"]) - phi(amplifier_z_map(at["z"], at["gain"]), at["q"])
    assert_allclose(margins["phi_image_below_source"]["min_margin"], gap, rtol=1e-12)
    # the ratio's drop is taken toward the next grid point in z
    at = margins["phi_ratio_decreasing_in_z"]["argmin"]
    z_next = (round(at["z"] * 31.0) + 1.0) / 31.0

    def ratio(z):
        return phi(z, at["p"]) / phi(amplifier_z_map(z, at["gain"]), at["q"])

    drop = ratio(at["z"]) - ratio(z_next)
    assert_allclose(margins["phi_ratio_decreasing_in_z"]["min_margin"], drop, rtol=1e-9)


@pytest.mark.parametrize(
    "grid",
    [
        LemmaGridSpec(z_points=30, order_points=1, gains=(2.0,)),
        LemmaGridSpec(z_points=30, order_points=4, gains=()),
        LemmaGridSpec(z_points=1, order_points=4, gains=(2.0,)),
    ],
    ids=["one-order", "no-gains", "one-z"],
)
def test_inequality_checked_at_no_points_fails(grid):
    # a one-order grid has no pair p < q, no gains leave nothing to map,
    # and one z point has no neighbour to decrease toward
    report = verify_lemma_inequalities(grid)
    assert not report.all_hold
    empty = [name for name, entry in report.margins.items() if entry["argmin"] == {}]
    assert empty and all(math.isnan(report.margins[name]["min_margin"]) for name in empty)


@pytest.mark.parametrize(
    "z_points, order_points, gains",
    [(199, 25, 4), (4000, 25, 1), (2000, 5, 4), (100, 100, 2), (4, 400, 1)],
)
def test_grid_peak_bytes_bound_what_the_grid_allocates(z_points, order_points, gains):
    grid = LemmaGridSpec(z_points, order_points, tuple(np.linspace(1.25, 4.0, gains)))
    verify_lemma_inequalities(LemmaGridSpec(4, 3, (2.0,)))  # numpy's first-call buffers
    tracemalloc.start()
    try:
        verify_lemma_inequalities(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= grid.peak_bytes() <= 1.3 * peak


def test_probe_thermal_input_cannot_beat_ceiling():
    report = pq_norm_saturation_probe(2.0, 1.2, 1.35, 12, 30, seed=7)
    assert not report.exceeded
    assert report.best_trial_log_ratio <= report.thermal_log_ceiling + 1e-6
    assert report.worst_margin >= 0.0


def test_probe_deterministic():
    a = pq_norm_saturation_probe(2.0, 1.2, 1.35, 10, 12, seed=11)
    b = pq_norm_saturation_probe(2.0, 1.2, 1.35, 10, 12, seed=11)
    assert a == b


def test_entropy_matched_thermal_attains_ratio():
    # pushing the entropy-matched thermal state through the channel and
    # measuring spectral norms reproduces the scanned ceiling
    kap, q = 2.0, 1.35
    z_bar = z_of_energy(1.0)
    p = solve_p_of_q(z_bar, kap, q)
    z_star, log_ceiling = scan_ratio_maximizer(kap, p, q)
    state_in = thermal_state(1.0, 60)
    state_out = apply_diagonal(amplifier(kap), state_in)
    realized = math.log(schatten_norm(state_out, q)) - math.log(schatten_norm(state_in, p))
    assert realized <= log_ceiling + 1e-9
    assert_allclose(realized, log_ceiling, atol=1e-7)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_value_is_the_smallest_margin():
    # an infinite gain maps every z to NaN; a NaN margin must surface at
    # that gain instead of losing every comparison with a finite one
    grid = LemmaGridSpec(z_points=20, order_points=4, gains=(2.0, math.inf))
    report = verify_lemma_inequalities(grid)
    assert not report.all_hold
    for name in ("phi_image_positive", "phi_ratio_decreasing_in_z", "f_strictly_ordered"):
        entry = report.margins[name]
        assert math.isnan(entry["min_margin"]) and entry["argmin"]["gain"] == math.inf, name


def test_norm_ratio_and_scan_reject_bad_arguments():
    for args in ((1.0, 2.0, 1.2, 1.3), (-0.1, 2.0, 1.2, 1.3), (0.5, 0.9, 1.2, 1.3),
                 (0.5, 2.0, 1.0, 1.3), (0.5, 2.0, 1.2, 1.0)):
        with pytest.raises(DomainError):
            log_thermal_norm_ratio(*args)
    for gain, p, q in ((0.9, 1.2, 1.3), (2.0, 1.0, 1.3), (2.0, 1.2, 0.5)):
        with pytest.raises(DomainError):
            scan_ratio_maximizer(gain, p, q)
    for q in (1.0, 0.5, math.nan):  # the trace-Frobenius bound needs q > 1
        with pytest.raises(DomainError):
            log_schatten_bound(1.0, math.sqrt(0.5), q)  # tr and ||.||_F of eye(2)/2


def test_scan_value_is_the_checked_ratio_at_its_maximizer():
    # the golden-section steps skip the argument checks but share the arithmetic
    for kap, p, q in ((1.5, 1.1, 1.3), (2.0, 1.2, 1.35), (4.0, 1.3, 1.49)):
        z_star, log_ratio = scan_ratio_maximizer(kap, p, q)
        assert log_ratio == log_thermal_norm_ratio(z_star, kap, p, q)
        assert type(log_ratio) is float


# ---------------------------------------------------------------------------
# the grid verifier's per-pair loops, kept as the oracle for its broadcasts
# ---------------------------------------------------------------------------


def _record_per_chunk(report, name, chunks):
    best = None
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


def _verify_per_pair(grid):
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
    vals = np.sqrt(z) + z * np.log(z) / (1.0 - z)
    _record_per_chunk(report, "sqrt_log_positivity", [(vals, {"z": z})])
    x = _one_minus_pow(z[:, None], orders[None, :] - 1.0)
    vals = -x - 0.5 * x * x - np.log1p(-x)
    _record_per_chunk(report, "log_tail_positivity", [(vals, {"z": z, "p": orders})])
    pz = phi(z[:, None], orders[None, :])
    images = [phi(amplifier_z_map(z, kap)[:, None], orders[None, :]) for kap in gains]
    _record_per_chunk(
        report,
        "phi_image_positive",
        [(low, {"gain": kap, "z": z, "q": orders}) for kap, low in zip(gains, images)],
    )
    _record_per_chunk(
        report,
        "phi_image_below_source",
        ((pz - low, {"gain": kap, "z": z, "q": orders}) for kap, low in zip(gains, images)),
    )
    dz = pz[:-1, :] - pz[1:, :]
    _record_per_chunk(report, "phi_decreasing_in_z", [(dz, {"z": z, "p": orders})])

    def ratio_drops():
        for kap, pzk in zip(gains, images):
            for ip, iq in pairs:
                ratio = pz[:, ip] / pzk[:, iq]
                axes = {"gain": kap, "z": z, "p": orders[ip], "q": orders[iq]}
                yield ratio[:-1] - ratio[1:], axes

    _record_per_chunk(report, "phi_ratio_decreasing_in_z", ratio_drops())
    fz = [f_func(z, p) for p in orders]

    def f_gaps():
        for kap in gains:
            zk = amplifier_z_map(z, kap)
            fzk = [f_func(zk, q) for q in orders]
            for ip, iq in pairs:
                axes = {"gain": kap, "z": z, "p": orders[ip], "q": orders[iq]}
                yield fz[ip] - fzk[iq], axes

    _record_per_chunk(report, "f_strictly_ordered", f_gaps())
    dfp = -f_partial_p(z[:, None], orders[None, :])
    _record_per_chunk(report, "f_decreasing_in_p", [(dfp, {"z": z, "p": orders})])
    h = FD_STEP
    keep = np.abs(orders - 1.5) > 0.01 + 1e-12
    pk = orders[keep]
    fd_f = (f_func(z[:, None], pk[None, :] + h) - f_func(z[:, None], pk[None, :] - h)) / (2.0 * h)
    _record_per_chunk(report, "f_decreasing_in_p_fd", [(-fd_f, {"z": z, "p": pk})])
    # the per-pair residual loop; its max() drops a NaN, so no grid below has one
    fd_max = 0.0
    for kap in gains:
        for q in orders:
            for p in orders[orders < q]:
                ana = norm_ratio_log_derivative(z, kap, p, q)
                num = (
                    log_thermal_norm_ratio(z + h, kap, p, q) - log_thermal_norm_ratio(z - h, kap, p, q)
                ) / (2.0 * h)
                fd_max = max(fd_max, float(np.max(np.abs(ana - num))))
    report.fd_max_residual = fd_max
    report.all_hold = fd_max <= FD_TOL and all(
        m["min_margin"] > 0.0 for m in report.margins.values()
    )
    return report


_DEFAULT_GRID = LemmaGridSpec(
    z_points=DEFAULT_CONFIG["lemma"]["grid_z_points"],
    order_points=DEFAULT_CONFIG["lemma"]["grid_order_points"],
    gains=tuple(DEFAULT_CONFIG["lemma"]["grid_gains"]),
)


@pytest.mark.parametrize(
    "grid",
    [
        _DEFAULT_GRID,
        dataclasses.replace(_DEFAULT_GRID, gains=(2.0,)),
        dataclasses.replace(_DEFAULT_GRID, order_points=2),
        dataclasses.replace(_DEFAULT_GRID, z_points=2),
    ],
    ids=["default", "one-gain", "one-pair", "two-z"],
)
def test_grid_broadcasts_equal_the_per_pair_loops(grid):
    # same values, same first-minimum argmin points, same point count;
    # assert_equal compares NaN as NaN
    assert_equal(
        dataclasses.asdict(verify_lemma_inequalities(grid)),
        dataclasses.asdict(_verify_per_pair(grid)),
    )


# ---------------------------------------------------------------------------
# the saturation probe without its bound, kept as the oracle for the pruning
# ---------------------------------------------------------------------------


def _probe_unpruned(gain, p, q, cutoff, trials, seed):
    spec = amplifier(gain)
    dims = default_dims(spec, cutoff)
    _, ceiling = scan_ratio_maximizer(gain, p, q)
    best = -math.inf
    for t in range(trials):
        kind = PROBE_KINDS[t % len(PROBE_KINDS)]
        state = draw_state(SamplerConfig(seed, cutoff, kind), t)
        apply = apply_diagonal if kind == "diagonal" else apply_channel
        out = apply(spec, state, dims)
        ratio = math.log(schatten_norm(out, q)) - math.log(schatten_norm(state, p))
        if ratio > best:
            best = ratio
    return SaturationProbeReport(
        gain=float(gain),
        p=float(p),
        q=float(q),
        cutoff=int(cutoff),
        trials=int(trials),
        thermal_log_ceiling=float(ceiling),
        best_trial_log_ratio=float(best),
        worst_margin=float(ceiling + PROBE_TOLERANCE - best),
        exceeded=bool(best > ceiling + PROBE_TOLERANCE),
    )


@pytest.mark.parametrize(
    "args",
    [
        (2.0, 1.2, 1.35, 24, 500, DEFAULT_CONFIG["seed"]),
        (1.5, 1.1, 1.3, 16, 300, 7),  # a pure trial is the best
        (2.0, 1.2, 2.0, 10, 60, 4),  # theta = 0: the bound is the Frobenius norm
        (2.0, 1.2, 2.5, 12, 60, 6),
        (2.0, 1.2, 3.0, 12, 60, 11),  # q > 2: pruned too, the bound is the Frobenius norm
        (2.0, 1.2, 4.0, 24, 300, 9),
        (2.0, 1.2, 1.35, 1, 30, 5),
        (2.0, 1.2, 1.35, 2, 30, 5),
        (2.0, 1.2, 1.35, 24, 1, 3),
        (2.0, 1.2, 1.35, 12, PROBE_CHUNK - 1, 8),
        (2.0, 1.2, 1.35, 12, PROBE_CHUNK, 8),
        (2.0, 1.2, 1.35, 12, PROBE_CHUNK + 1, 8),
        (2.0, 1.2, 1.35, 12, 2 * PROBE_CHUNK + 1, 8),
        (2.0, 1.2, 3.0, 12, 2 * PROBE_CHUNK + 1, 8),  # pruned across chunks
    ],
    ids=[
        "default",
        "pure-best",
        "q-two",
        "q-five-halves",
        "q-three",
        "q-four",
        "cutoff-1",
        "cutoff-2",
        "one-trial",
        "chunk-minus-one",
        "one-chunk",
        "chunk-plus-one",
        "two-chunks-plus-one",
        "q-three-two-chunks-plus-one",
    ],
)
def test_pruned_probe_equals_the_unpruned_loop(args):
    assert pq_norm_saturation_probe(*args) == _probe_unpruned(*args)


def test_probe_skips_almost_every_output_eigensolve(monkeypatch):
    # 334 of the default probe's 500 outputs are dense (mixed and pure
    # inputs); the trace-Frobenius bound rules out all but a handful
    d_out = default_dims(amplifier(2.0), 24).d_out
    dims = []
    spectrum = focklab.entropy.hermitian_spectrum

    def counted(m):
        dims.append(m.shape[0])
        return spectrum(m)

    monkeypatch.setattr(focklab.entropy, "hermitian_spectrum", counted)
    pq_norm_saturation_probe(2.0, 1.2, 1.35, 24, 500, seed=DEFAULT_CONFIG["seed"])
    assert 1 <= dims.count(d_out) <= 5


# ---------------------------------------------------------------------------
# the scalar order solver and maximizer scan, kept as the oracle for the
# lockstep array forms
# ---------------------------------------------------------------------------


def _solve_scalar(z_bar, gain, q):
    z_bar = float(z_bar)
    if not 0.0 < z_bar < 1.0:
        raise DomainError("z_bar must lie in (0, 1)")
    q = float(q)
    if q <= 1.0:
        raise DomainError("order q must exceed 1")
    z_out = float(amplifier_z_map(z_bar, gain))
    target = float(phi(z_out, q))

    def h(p):
        return float(phi(z_bar, p)) - target

    lo, hi = 1.0 + 1e-9, q - 1e-9
    h_lo, h_hi = h(lo), h(hi)
    if h_lo == 0.0:
        return lo
    if h_hi == 0.0:
        return hi
    if h_lo * h_hi > 0.0:
        raise LemmaViolationError("no bracket")
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
    if h_hi != h_lo:
        cand = lo - h_lo * (hi - lo) / (h_hi - h_lo)
        if lo <= cand <= hi and abs(h(cand)) <= abs(h(p)):
            p = cand
    return float(p)


def _scan_scalar(gain, p, q):
    """(z_star, value, coarse argmax index) of the interior-only scan."""
    n = 2000
    zg = np.arange(1, n + 1) / (n + 1.0)
    vals = log_thermal_norm_ratio(zg, gain, p, q)
    kap = float(gain)
    j = int(np.argmax(vals))
    lo = zg[j - 1] if j > 0 else zg[j] / 2.0
    hi = zg[j + 1] if j < n - 1 else 0.5 * (zg[j] + 1.0)
    inv_gold = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_gold * (b - a)
    d = a + inv_gold * (b - a)
    fc = float(_log_norm_ratio(c, kap, p, q))
    fd = float(_log_norm_ratio(d, kap, p, q))
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_gold * (b - a)
            fc = float(_log_norm_ratio(c, kap, p, q))
        else:
            a, c, fc = c, d, fd
            d = a + inv_gold * (b - a)
            fd = float(_log_norm_ratio(d, kap, p, q))
    z_star = 0.5 * (a + b)
    return float(z_star), float(_log_norm_ratio(z_star, kap, p, q)), j


def _solved_by_scalar(rows):
    out = []
    for z_bar, gain, q in rows:
        try:
            out.append(_solve_scalar(z_bar, gain, q))
        except LemmaViolationError:
            out.append(math.nan)
    return np.array(out)


# orders past the guaranteed region, as solver_q may hold them
EXPLORATORY_Q = [1.6, 2.0]


def _default_rows(*qs):
    lemma = DEFAULT_CONFIG["lemma"]
    qs = qs or (lemma["solver_q"],)
    return [
        (z, g, q)
        for q_list in qs
        for z in lemma["solver_z"]
        for g in lemma["solver_gains"]
        for q in q_list
    ]


def _random_rows(count, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.01, 0.99, count)
    gain = 1.0 + rng.uniform(1e-3, 4.0, count)
    q = 1.0 + rng.uniform(1e-3, 1.5, count)
    return list(zip(z, gain, q))


@pytest.mark.parametrize(
    "rows",
    [
        _default_rows(),
        [(TREND_Z, TREND_GAIN, q) for q in TREND_Q],
        _default_rows(EXPLORATORY_Q, [3.0, 10.0]),
        _random_rows(300, 1),
        [(0.5, 1.0, 1.3), (0.999, 1.0000001, 1.3), (0.5, 2.0, 1.3)],  # rows without a bracket
    ],
    ids=["default-rows", "trend", "exploratory", "random", "no-bracket"],
)
def test_lockstep_solver_equals_the_scalar_loop(rows):
    z_bar, gain, q = (np.array(col) for col in zip(*rows))
    expected = _solved_by_scalar(rows)
    assert_equal(solve_p_of_q(z_bar, gain, q), expected)
    # the scalar form is the array code on one row
    for row, p in zip(rows, expected):
        if math.isnan(p):
            with pytest.raises(LemmaViolationError):
                solve_p_of_q(*row)
        else:
            assert solve_p_of_q(*row) == p


def test_no_bracket_rows_stay_nan_in_a_batch():
    p = solve_p_of_q(np.array([0.5, 0.5, 0.5]), np.array([2.0, 1.0, 2.0]), np.array([1.3, 1.3, 1.1]))
    assert math.isnan(p[1]) and 1.0 < p[0] < 1.3 and 1.0 < p[2] < 1.1


@pytest.mark.parametrize(
    "rows",
    [
        _default_rows(),
        _default_rows(EXPLORATORY_Q),
        _random_rows(300, 2),
    ],
    ids=["default-rows", "exploratory", "random"],
)
def test_lockstep_scan_equals_the_scalar_scan_at_interior_maxima(rows):
    # the scalar scan refined on [z_1/2, z_2] when its argmax was the first
    # interior point; the array scan also scans z = 0, so it agrees wherever
    # the scalar argmax is past that point
    p = solve_p_of_q(*(np.array(col) for col in zip(*rows)))
    solved = [(g, pp, q) for (_, g, q), pp in zip(rows, p) if not math.isnan(pp)]
    oracle = [_scan_scalar(*row) for row in solved]
    keep = [i for i, (_, _, j) in enumerate(oracle) if j > 0]
    assert len(keep) >= 0.9 * len(rows)
    gain, pp, q = (np.array([solved[i][k] for i in keep]) for k in range(3))
    z_star, value = scan_ratio_maximizer(gain, pp, q)
    assert_equal(z_star, [oracle[i][0] for i in keep])
    assert_equal(value, [oracle[i][1] for i in keep])
    assert scan_ratio_maximizer(gain[0], pp[0], q[0]) == (oracle[keep[0]][0], oracle[keep[0]][1])


@pytest.mark.parametrize("gain", [1.0, 1.0000001, 1.001])
def test_scan_finds_a_supremum_at_z_zero(gain):
    # near gain 1 the ratio is largest at the vacuum, z = 0; the scan must
    # not report less than the ratio there
    p, q = 1.2, 1.35
    at_zero = log_thermal_norm_ratio(0.0, gain, p, q)
    z_star, ceiling = scan_ratio_maximizer(gain, p, q)
    assert 0.0 <= z_star < 1.0 / 2001.0
    assert ceiling >= at_zero - 1e-15
    # the interior-only scan stopped short of it
    assert _scan_scalar(gain, p, q)[1] < at_zero - 1e-10 or gain == 1.0


def test_scan_row_whose_grid_maps_onto_one_is_nan():
    z_star, value = scan_ratio_maximizer(np.array([2.0, 1e17]), 1.2, 1.35)
    assert not math.isnan(z_star[0]) and math.isnan(z_star[1]) and math.isnan(value[1])
    with pytest.raises(DomainError):
        scan_ratio_maximizer(1e17, 1.2, 1.35)


NAN = math.nan


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_p_of_q(0.5, NAN, 1.2),
        lambda: solve_p_of_q(0.5, 2.0, NAN),
        lambda: solve_p_of_q(np.array([0.5, 0.5]), 2.0, np.array([1.2, NAN])),
        lambda: scan_ratio_maximizer(NAN, 1.2, 1.3),
        lambda: scan_ratio_maximizer(2.0, NAN, 1.3),
        lambda: scan_ratio_maximizer(2.0, 1.2, NAN),
        lambda: amplifier_z_map(0.5, NAN),
        lambda: phi(0.5, NAN),
        lambda: psi(0.5, NAN),
        lambda: log_thermal_norm_ratio(0.5, 2.0, NAN, 1.3),
        lambda: g(NAN),
        lambda: g_prime(NAN),
        lambda: z_of_energy(NAN),
        lambda: thermal_state(NAN, 4),
        lambda: schatten_norm(thermal_state(0.5, 8), NAN),
        lambda: renyi_entropy(thermal_state(0.5, 8), NAN),
        lambda: log_thermal_schatten_norm(0.5, NAN),
        lambda: entropy_pinned_state(NAN, 8, substream(1, 0)),
    ],
)
def test_nan_orders_gains_energies_and_targets_are_refused(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("trials", [0, -5, 2.0, True])
def test_probe_refuses_a_trial_count_that_is_not_a_positive_integer(trials):
    # zero trials once passed with best -inf and exceeded False
    with pytest.raises(DomainError, match="probe trials must be an integer >= 1"):
        pq_norm_saturation_probe(2.0, 1.2, 1.35, cutoff=8, trials=trials, seed=1)
