import ast
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from focklab import linalg
from focklab.channels import apply_channel
from focklab.cli import DEFAULT_CONFIG, parse_channel
from focklab.errors import (
    InvalidDimensionError,
    NonHermitianError,
    ResourceLimitError,
)
from focklab.linalg import hermitian_eigh, hermitian_spectrum
from focklab.sampling import random_mixed, substream

from dilation import check_joint_dim, ladder, partial_trace


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
    with pytest.raises(InvalidDimensionError):
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


@pytest.mark.parametrize("scale", [1.0, 250.0])
def test_hermiticity_tolerance_edges(scale):
    # the defect allowed is HERMITICITY_TOL * max(1, max|m|)
    m = np.diag([scale, 1.0]).astype(complex)
    m[1, 0] = 0.99e-12 * scale
    assert hermitian_spectrum(m).shape == (2,)
    m[1, 0] = 1.01e-12 * scale
    with pytest.raises(NonHermitianError):
        hermitian_spectrum(m)


def test_stacked_spectrum_equals_per_matrix_calls():
    from focklab.sampling import random_mixed, random_pure, substream

    mats = [random_mixed(12, 12, substream(5, i)).matrix for i in range(6)]
    mats += [random_pure(12, substream(6, i)).matrix for i in range(5)]
    stack = np.array(mats)
    np.testing.assert_equal(hermitian_spectrum(stack), [hermitian_spectrum(m) for m in mats])
    np.testing.assert_equal(hermitian_spectrum(stack[:1]), hermitian_spectrum(stack[0])[None])


def test_stack_with_one_non_hermitian_matrix_is_refused():
    stack = np.array([np.eye(3, dtype=complex)] * 4)
    stack[2, 0, 1] = 1e-6
    with pytest.raises(NonHermitianError, match="1.000e-06"):
        hermitian_spectrum(stack)
    with pytest.raises(InvalidDimensionError):
        hermitian_spectrum(np.zeros((2, 3, 4), dtype=complex))


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


def _enclosing_function(parents, node):
    scope = parents.get(node)
    while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = parents.get(scope)
    return scope.name if scope else None


def test_only_cli_main_opens_the_blas_scope_and_only_linalg_sets_blas_threads():
    # the caller's OpenBLAS thread counts change only inside the scope that
    # cli.main opens, and only linalg reaches an OpenBLAS thread setter
    src = os.path.dirname(linalg.__file__)
    openers, setters = [], set()
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                if called == "_single_blas_thread":
                    openers.append((name, _enclosing_function(parents, node)))
            used = {node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
                used = {module.split(".")[0] for module in modules}
            if used & {"_loaded_openblas", "ctypes", "threadpoolctl"} or (
                isinstance(node, ast.Constant) and "set_num_threads" in str(node.value)
            ):
                setters.add(name)
    assert openers == [("cli.py", "main")]
    assert setters == {"linalg.py"}


def test_spectrum_bits_do_not_depend_on_the_blas_thread_count(blas_controls):
    # a library search runs numpy's eigensolves at the caller's thread
    # count, so that count must not move a row
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts with one thread on one core")
    outputs = [
        apply_channel(parse_channel(entry), random_mixed(d, d, substream(d, i))).matrix
        for entry in DEFAULT_CONFIG["cmoe"]["channels"]
        for d in (16, 24)
        for i in range(20)
    ]
    saved, spectra = [get() for get, _ in blas_controls], []
    try:
        for threads in (1, 2):
            for _, put in blas_controls:
                put(threads)
            assert [get() for get, _ in blas_controls] == [threads] * len(blas_controls)
            spectra.append([hermitian_spectrum(m) for m in outputs])
    finally:
        for (_, put), count in zip(blas_controls, saved):
            put(count)
    assert all(np.array_equal(one, two) for one, two in zip(*spectra))


def _skew_hermitian(rng, n, norm1):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h - h.conj().T
    return h * (norm1 / max(np.abs(h).sum(axis=0).max(), 1e-300))


def test_expm_has_the_bits_of_scipy():
    from scipy.linalg import expm as scipy_expm

    expm, kernel = linalg._load_expm(), linalg._expm_kernel()
    assert expm is not scipy_expm  # the compiled path runs here
    rng = np.random.default_rng(23)
    structures, count = set(), 0
    for n in (1, 2, 16, 24):
        # 1-norms from 1e-4 to 60 reach every Padé order (3, 5, 7, 9, 13)
        # and up to 4 squarings
        for norm1 in np.geomspace(1e-4, 60.0, 520):
            a = _skew_hermitian(rng, n, norm1)
            if n > 1:
                work = np.zeros((5, n, n), dtype=complex)
                work[0] = a
                structures.add(kernel.pick_pade_structure(work))
            assert np.array_equal(expm(a), scipy_expm(a)), (n, norm1)
            count += 1
    diagonal = np.diag(1j * rng.normal(size=16))
    assert np.array_equal(expm(diagonal), scipy_expm(diagonal))
    assert count >= 2000
    assert {m for m, _ in structures} == {3, 5, 7, 9, 13}
    assert max(s for _, s in structures) >= 2
