import numpy as np
import pytest
from numpy.testing import assert_allclose

from focklab.errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    NonHermitianError,
    ResourceLimitError,
)
from focklab.linalg import (
    check_joint_dim,
    hermitian_eigh,
    hermitian_spectrum,
    ladder,
    partial_trace,
)


def test_ladder_action_on_basis():
    a = ladder(5)
    for n in range(1, 5):
        vec = np.zeros(5)
        vec[n] = 1.0
        lowered = a @ vec
        expected = np.zeros(5)
        expected[n - 1] = np.sqrt(n)
        assert_allclose(lowered, expected, atol=1e-15)
    assert_allclose(a @ np.eye(5)[:, 0], np.zeros(5), atol=1e-15)


def test_ladder_commutator_is_identity_below_cutoff():
    d = 7
    a = ladder(d)
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.eye(d)
    expected[d - 1, d - 1] = -(d - 1)
    assert_allclose(comm, expected, atol=1e-13)


def test_check_joint_dim_limit():
    assert check_joint_dim(100, 100) == 10000
    with pytest.raises(ResourceLimitError):
        check_joint_dim(200, 200)


def test_partial_trace_recovers_factors():
    rng = np.random.default_rng(11)
    m1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m1 = m1 @ m1.conj().T
    m1 /= np.trace(m1).real
    m2 = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    m2 = m2 @ m2.conj().T
    m2 /= np.trace(m2).real
    joint = np.kron(m1, m2)
    assert_allclose(partial_trace(joint, 3, 5, keep="sys"), m1, atol=1e-13)
    assert_allclose(partial_trace(joint, 3, 5, keep="env"), m2, atol=1e-13)


def test_partial_trace_shape_mismatch():
    with pytest.raises((DimensionMismatchError, InvalidDimensionError)):
        partial_trace(np.eye(10), 3, 5)


def test_hermitian_spectrum_sorted_descending():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = 0.5 * (m + m.conj().T)
    vals = hermitian_spectrum(m)
    assert np.all(np.diff(vals) <= 1e-14)


def test_hermitian_spectrum_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(NonHermitianError):
        hermitian_spectrum(m)


def test_eigh_reconstructs_matrix():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = 0.5 * (m + m.conj().T)
    vals, vecs = hermitian_eigh(m)
    assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, m, atol=1e-12)


def _char_poly_coeffs(m):
    """Faddeev-LeVerrier characteristic polynomial coefficients.

    Returns [1, c1, ..., cn] with p(x) = x^n + c1 x^(n-1) + ... + cn.
    """
    n = m.shape[0]
    coeffs = [1.0]
    work = np.zeros_like(m)
    for k in range(1, n + 1):
        work = m @ (work + coeffs[-1] * np.eye(n))
        coeffs.append(-np.trace(work).real / k)
    return np.array(coeffs)


def _bisect_roots(coeffs, lo, hi, count):
    """All real roots of a polynomial with `count` simple roots in [lo, hi]."""
    grid = np.linspace(lo, hi, 40001)
    vals = np.polyval(coeffs, grid)
    roots = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        a, b = grid[i], grid[i + 1]
        fa = np.polyval(coeffs, a)
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = np.polyval(coeffs, mid)
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    exact = grid[np.abs(vals) == 0.0]
    roots.extend(exact.tolist())
    assert len(roots) == count
    return np.sort(roots)[::-1]


def test_spectrum_against_characteristic_polynomial_oracle():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = 0.5 * (m + m.conj().T)
    coeffs = _char_poly_coeffs(m)
    radii = np.abs(m).sum(axis=1) - np.abs(np.diag(m))
    lo = float((np.diag(m).real - radii).min()) - 1e-9
    hi = float((np.diag(m).real + radii).max()) + 1e-9
    oracle = _bisect_roots(coeffs, lo, hi, 4)
    assert_allclose(hermitian_spectrum(m), oracle, atol=1e-8)


def test_spectrum_moment_identities():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    m = 0.5 * (m + m.conj().T)
    vals = hermitian_spectrum(m)
    power = np.eye(16, dtype=complex)
    for k in range(1, 5):
        power = power @ m
        assert_allclose(np.trace(power).real, np.sum(vals**k), rtol=1e-11)
