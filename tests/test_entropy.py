import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from focklab.entropy import (
    renyi_entropy,
    schatten_norm,
    schatten_norms,
    spectral_distance,
    state_spectrum,
    trace_distance,
    von_neumann_entropy,
)
from focklab.errors import DomainError
from focklab.sampling import random_mixed, random_pure, substream
from focklab.states import DensityMatrix, DiagonalState
from focklab.thermal import g, log_thermal_schatten_norm, thermal_state, z_of_energy


def test_state_spectrum_sorted_and_clamped():
    rho = DensityMatrix(np.diag([0.2, 0.8, -1e-12]).astype(complex))
    vals = state_spectrum(rho)
    assert np.all(np.diff(vals) <= 0)
    assert vals.min() >= 0.0


def test_state_spectrum_accepts_diagonal_state():
    diag = DiagonalState(np.array([0.1, 0.6, 0.3]))
    assert_allclose(state_spectrum(diag), [0.6, 0.3, 0.1], atol=0)


def test_von_neumann_entropy_limits():
    pure = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert_allclose(von_neumann_entropy(pure), 0.0, atol=1e-14)
    mixed = DensityMatrix((np.eye(8) / 8.0).astype(complex))
    assert_allclose(von_neumann_entropy(mixed), math.log(8.0), rtol=1e-13)


def test_von_neumann_entropy_is_never_below_zero():
    # a top eigenvalue one ulp above 1 makes the sum read -2.2e-16
    above_one = DiagonalState(np.array([1.0 + 2**-52, 0.0]))
    assert von_neumann_entropy(above_one) == 0.0
    # -0.0 of an exact pure state is kept bit for bit
    assert math.copysign(1.0, von_neumann_entropy(DiagonalState(np.array([1.0, 0.0])))) == -1.0


def test_von_neumann_entropy_thermal_matches_g():
    for e in (0.3, 1.0, 2.5):
        state = thermal_state(e, 300)
        assert_allclose(von_neumann_entropy(state), g(e), rtol=1e-11)


def test_entropy_basis_invariant():
    rng = substream(31, 0)
    rho = random_mixed(8, 8, rng)
    diag = DiagonalState(state_spectrum(rho))
    assert_allclose(von_neumann_entropy(rho), von_neumann_entropy(diag), rtol=1e-12)


def test_schatten_norm_maximally_mixed():
    d = 8
    rho = DensityMatrix((np.eye(d) / d).astype(complex))
    for p in (1.5, 2.0, 3.0):
        assert_allclose(schatten_norm(rho, p), d ** (1.0 / p - 1.0), rtol=1e-13)


def test_schatten_norm_thermal_closed_form():
    for e in (0.4, 1.0, 3.0):
        z = z_of_energy(e)
        state = thermal_state(e, 400)
        for p in (1.1, 2.0, 4.0):
            expected = math.exp(log_thermal_schatten_norm(z, p))
            assert_allclose(schatten_norm(state, p), expected, rtol=1e-12)


def test_schatten_norm_rejects_order_at_most_one():
    rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(DomainError):
        schatten_norm(rho, 1.0)


def test_renyi_entropy_maximally_mixed():
    d = 6
    rho = DensityMatrix((np.eye(d) / d).astype(complex))
    for alpha in (1.2, 2.0, 5.0):
        assert_allclose(renyi_entropy(rho, alpha), math.log(d), rtol=1e-13)


def test_renyi_entropy_thermal_closed_form():
    e = 1.0
    z = z_of_energy(e)
    state = thermal_state(e, 400)
    for alpha in (1.3, 2.0):
        expected = (alpha / (1.0 - alpha)) * log_thermal_schatten_norm(z, alpha)
        assert_allclose(renyi_entropy(state, alpha), expected, rtol=1e-12)


def test_renyi_approaches_von_neumann():
    rng = substream(32, 0)
    rho = random_mixed(8, 8, rng)
    s = von_neumann_entropy(rho)
    assert abs(renyi_entropy(rho, 1.0 + 1e-6) - s) < 1e-4


def test_renyi_decreasing_in_order():
    rng = substream(33, 0)
    rho = random_mixed(8, 8, rng)
    orders = (1.1, 1.5, 2.0, 4.0)
    vals = [renyi_entropy(rho, a) for a in orders]
    assert np.all(np.diff(vals) < 0)
    assert vals[0] < von_neumann_entropy(rho)


def test_trace_distance_orthogonal_pure():
    a = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    b = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    assert_allclose(trace_distance(a, b), 1.0, atol=1e-14)
    assert_allclose(trace_distance(a, a), 0.0, atol=1e-14)


def test_trace_distance_pads_unequal_dims():
    a = thermal_state(1.0, 10).to_density()
    b = thermal_state(1.0, 16).to_density()
    # the only difference is the tail between levels 10 and 16
    tail = thermal_state(1.0, 16).probs[10:].sum()
    assert_allclose(trace_distance(a, b), 0.5 * tail, rtol=1e-10)


def test_spectral_distance_below_trace_distance():
    rng = substream(34, 0)
    for i in range(5):
        a = random_mixed(6, 6, substream(34, 2 * i))
        b = random_mixed(6, 6, substream(34, 2 * i + 1))
        sd = spectral_distance(a, b)
        td = trace_distance(a, b)
        assert sd <= td + 1e-12


def test_spectral_distance_equals_trace_distance_when_commuting():
    a = DiagonalState(np.array([0.7, 0.2, 0.1]))
    b = DiagonalState(np.array([0.5, 0.3, 0.2]))
    assert_allclose(
        spectral_distance(a, b), trace_distance(a.to_density(), b.to_density()), atol=1e-14
    )


def test_stacked_norms_equal_per_state_norms():
    # one stacked eigensolve gives every norm bit for bit
    states = [random_mixed(10, r, substream(9, r)) for r in range(1, 8)]
    states += [random_pure(10, substream(10, i)) for i in range(4)]
    stack = np.array([s.matrix for s in states])
    for alpha in (1.2, 1.35, 2.0, 3.0):
        assert schatten_norms(stack, alpha) == [schatten_norm(s, alpha) for s in states]
    with pytest.raises(DomainError):
        schatten_norms(stack, 1.0)
