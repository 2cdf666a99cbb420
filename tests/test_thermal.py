import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from focklab.channels import additive_noise, amplifier, attenuator, contravariant_amplifier
from focklab.cmoe import bound_for
from focklab.errors import DomainError
from focklab.thermal import (
    g,
    g_inv,
    g_prime,
    thermal_state,
    thermal_tail_cutoff,
    z_of_energy,
)

from oracles import log_thermal_schatten_norm


def test_g_known_values():
    assert g(0.0) == 0.0
    assert_allclose(g(1.0), 2.0 * math.log(2.0), rtol=1e-15)
    assert_allclose(g(0.5), 1.5 * math.log(3.0) - math.log(2.0), rtol=1e-14)
    assert_allclose(g(3.0), 4.0 * math.log(4.0) - 3.0 * math.log(3.0), rtol=1e-14)


def test_g_monotone_increasing():
    grid = np.linspace(0.0, 6.0, 200)
    vals = np.array([g(e) for e in grid])
    assert np.all(np.diff(vals) > 0)


def test_g_prime_closed_form_and_fd():
    for e in (0.3, 1.0, 2.5):
        assert_allclose(g_prime(e), math.log(1.0 + 1.0 / e), rtol=1e-14)
        h = 1e-6
        fd = (g(e + h) - g(e - h)) / (2 * h)
        assert_allclose(g_prime(e), fd, rtol=1e-8)


def test_g_inv_round_trip():
    for e in (1e-6, 0.1, 0.5, 1.0, 3.0, 20.0):
        assert_allclose(g_inv(g(e)), e, rtol=1e-10, atol=1e-12)
    assert g_inv(0.0) == 0.0


def test_g_inv_rejects_negative():
    with pytest.raises(DomainError):
        g_inv(-0.1)


def _g_decimal(energy):
    # (E+1) ln(E+1) - E ln E with enough digits to survive the cancellation
    with localcontext() as ctx:
        ctx.prec = 400
        e = Decimal(energy)
        return float((e + 1) * (e + 1).ln() - e * e.ln())


def test_g_matches_a_decimal_oracle():
    for e in np.logspace(-300, 300, 121):
        assert_allclose(g(float(e)), _g_decimal(float(e)), rtol=1e-15, atol=0)
    assert_allclose(g(1e15), 35.5387763949107, rtol=1e-14)
    assert g(2.0**60) > g(2.0**53) > 0.0


def test_g_inv_round_trip_at_large_energies():
    for e in np.logspace(-12, 15, 82):
        assert_allclose(g_inv(g(float(e))), float(e), rtol=1e-14)
    assert_allclose(g_inv(36.0), 1.586013452313e15, rtol=1e-12)
    with pytest.raises(DomainError):
        g_inv(math.inf)


def _g_inv_decimal(entropy):
    # Newton on (E+1) ln(E+1) - E ln E = s from a start below the root
    with localcontext() as ctx:
        ctx.prec = 400
        s = Decimal(entropy)
        e = s / (3 - 2 * s.ln())
        for _ in range(30):
            e += (s - ((e + 1) * (e + 1).ln() - e * e.ln())) / (1 + 1 / e).ln()
        return e


def test_g_inv_at_subnormal_entropies():
    # 1/E overflows below _G_SMALL; the root is then found from the small-E
    # form of g and rounded to a subnormal (0.0 for the last two)
    spacing = Decimal(5e-324)
    for s in (1e-300, 1e-310, 1e-320, 1e-323, 5e-324):
        root, e = _g_inv_decimal(s), g_inv(s)
        assert abs(Decimal(e) - root) <= max(spacing, Decimal("1e-13") * root), (s, e)
    assert g_inv(5e-324) == 0.0


def _g_inv_bisection(s):
    # the doubling-bracket bisection g_inv used before its Newton start
    lo, hi = 0.0, 1.0
    while g(hi) < s:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) < s:
            lo = mid
        else:
            hi = mid
    e = 0.5 * (lo + hi)
    for _ in range(2):
        if e <= 0.0:
            break
        step = (g(e) - s) / g_prime(e)
        if e - step > 0.0:
            e = e - step
    return e


def test_g_inv_agrees_with_bisection():
    # below s ~ 2e-12 the bisection's absolute bracket of 1e-15 leaves its
    # own answer off by up to ~1e-13 relative; there the Newton root must
    # solve g(E) = s at least as closely
    for s in np.logspace(-12, math.log10(math.log(256.0)), 400):
        s = float(s)
        new, old = g_inv(s), _g_inv_bisection(s)
        close = abs(new - old) <= 1e-13 * old
        assert close or abs(g(new) - s) <= abs(g(old) - s), (s, new, old)
        assert abs(new - old) <= 2e-13 * old
    specs = (attenuator(0.7, 0.3), amplifier(2.0, 0.5), additive_noise(0.8),
             contravariant_amplifier(1.5, 0.2))
    for spec in specs:
        for s in np.linspace(1e-6, math.log(256.0), 60):
            old = g(spec.output_energy(_g_inv_bisection(float(s))))
            assert abs(bound_for(spec, float(s)) - old) <= 1e-12


def test_z_energy_round_trip():
    assert_allclose(z_of_energy(1.0), 0.5, atol=1e-15)
    assert z_of_energy(0.0) == 0.0
    for e in (0.2, 1.0, 4.0):
        z = z_of_energy(e)
        assert_allclose(z / (1.0 - z), e, rtol=1e-14)


def test_thermal_state_geometric_weights():
    e = 1.5
    z = z_of_energy(e)
    state = thermal_state(e, 30)
    expected = (1.0 - z) * z ** np.arange(30)
    assert_allclose(state.probs, expected, rtol=1e-14)


def test_thermal_state_deficit_is_exact_tail():
    e = 2.0
    z = z_of_energy(e)
    for cutoff in (5, 20, 60):
        state = thermal_state(e, cutoff)
        assert_allclose(state.trace_deficit, z**cutoff, rtol=1e-12)
        assert_allclose(state.trace + state.trace_deficit, 1.0, atol=1e-12)


def test_thermal_state_zero_energy_is_vacuum():
    state = thermal_state(0.0, 4)
    assert_allclose(state.probs, [1.0, 0.0, 0.0, 0.0], atol=0)
    assert state.trace_deficit == 0.0


def test_thermal_tail_cutoff_vacuum():
    assert thermal_tail_cutoff(0.0, 1e-9) == 1


def test_thermal_tail_cutoff_bracket():
    for e, tail in ((2.0, 1e-9), (0.5, 1e-14), (5.0, 1e-12)):
        n = thermal_tail_cutoff(e, tail)
        z = z_of_energy(e)
        assert z**n <= tail < z ** (n - 1)


@pytest.mark.parametrize("e", [1e16, 1e17, 1e300])
def test_thermal_tail_cutoff_where_z_rounds_to_one(e):
    # ln z is 0 there; ln(1 + 1/E) ~ 1/E gives about E ln(1/tail) levels
    assert z_of_energy(e) == 1.0
    assert math.isclose(thermal_tail_cutoff(e, 1e-14), -math.log(1e-14) * e, rel_tol=1e-12)


@pytest.mark.parametrize("e", [math.inf, math.nan, 1e307])
def test_thermal_tail_cutoff_refuses_an_energy_without_a_finite_cutoff(e):
    # 1e307 needs more levels than a float can count
    with pytest.raises(DomainError, match="no finite tail cutoff"):
        thermal_tail_cutoff(e, 1e-14)


def test_log_thermal_schatten_norm_vs_direct_sum():
    for z in (0.1, 0.5, 0.9):
        for p in (1.05, 1.5, 2.0, 4.0):
            n = np.arange(5000)
            probs = (1.0 - z) * z**n
            direct = math.log(np.sum(probs**p)) / p
            assert_allclose(log_thermal_schatten_norm(z, p), direct, rtol=1e-13, atol=1e-14)


def test_log_thermal_schatten_norm_vacuum():
    assert_allclose(log_thermal_schatten_norm(0.0, 2.0), 0.0, atol=1e-15)
