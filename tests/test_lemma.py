import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from focklab.channels import amplifier, apply_diagonal
from focklab.entropy import schatten_norm
from focklab.errors import DomainError, LemmaViolationError
from focklab.lemma import (
    LemmaGridSpec,
    amplifier_z_map,
    f_func,
    f_partial_p,
    log_thermal_norm_ratio,
    norm_ratio_log_derivative,
    phi,
    pq_norm_saturation_probe,
    psi,
    scan_ratio_maximizer,
    solve_p_of_q,
    verify_lemma_inequalities,
)
from focklab.thermal import thermal_state, z_of_energy


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
