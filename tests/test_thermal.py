import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from focklab.errors import DomainError
from focklab.thermal import (
    g,
    g_inv,
    g_prime,
    log_thermal_schatten_norm,
    thermal_state,
    thermal_tail_cutoff,
    z_of_energy,
)


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


def test_log_thermal_schatten_norm_vs_direct_sum():
    for z in (0.1, 0.5, 0.9):
        for p in (1.05, 1.5, 2.0, 4.0):
            n = np.arange(5000)
            probs = (1.0 - z) * z**n
            direct = math.log(np.sum(probs**p)) / p
            assert_allclose(log_thermal_schatten_norm(z, p), direct, rtol=1e-13, atol=1e-14)


def test_log_thermal_schatten_norm_vacuum():
    assert_allclose(log_thermal_schatten_norm(0.0, 2.0), 0.0, atol=1e-15)
