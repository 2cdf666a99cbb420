import numpy as np
import pytest
from numpy.testing import assert_allclose

from focklab.channels import amplifier
from focklab.cmoe import check_cmoe
from focklab.errors import (
    DomainError,
    EigensolverError,
    InvalidDimensionError,
    NonHermitianError,
    PositivityError,
)
from focklab.states import DensityMatrix, DiagonalState, clamp_spectrum
from focklab.thermal import thermal_state

from dilation import validate_state


def test_clamp_spectrum_zeroes_small_negatives():
    vals = np.array([0.5, -1e-12, 0.5])
    out = clamp_spectrum(vals)
    assert_allclose(out, [0.5, 0.0, 0.5], atol=0)


def test_clamp_spectrum_rejects_large_negatives():
    with pytest.raises(PositivityError):
        clamp_spectrum(np.array([0.9, -1e-6]))


def test_density_matrix_basic_properties():
    rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    assert rho.dim == 2
    assert_allclose(rho.trace, 1.0, atol=0)
    assert rho.trace_deficit == 0.0
    assert rho.matrix.dtype == np.complex128


def test_from_matrix_infers_trace_deficit():
    rho = DensityMatrix.from_matrix(np.diag([0.5, 0.4]))
    assert_allclose(rho.trace_deficit, 0.1, atol=1e-15)
    # the matrix itself is stored as-is, never renormalized
    assert_allclose(rho.trace, 0.9, atol=1e-15)


def test_from_matrix_no_deficit_for_overfull_trace():
    rho = DensityMatrix.from_matrix(np.diag([0.6, 0.5]))
    assert rho.trace_deficit == 0.0


def test_density_matrix_rejects_non_square():
    with pytest.raises(InvalidDimensionError):
        DensityMatrix(np.zeros((2, 3), dtype=complex))


def test_validate_accepts_valid_state():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    m = m @ m.conj().T
    m /= np.trace(m).real
    validate_state(DensityMatrix.from_matrix(m))


def test_validate_rejects_non_hermitian():
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = 0.1
    with pytest.raises(NonHermitianError):
        validate_state(DensityMatrix(m))


def test_validate_rejects_negative_eigenvalue():
    m = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(PositivityError):
        validate_state(DensityMatrix(m))


def test_diagonal_state_clamps_tiny_negatives():
    state = DiagonalState(np.array([0.7, -1e-15, 0.3]))
    assert state.probs[1] == 0.0


def test_diagonal_state_rejects_large_negatives():
    with pytest.raises(PositivityError):
        DiagonalState(np.array([0.7, -1e-6]))


def test_diagonal_state_rejects_bad_shape():
    with pytest.raises(InvalidDimensionError):
        DiagonalState(np.zeros((2, 2)))


def test_to_density_round_trip():
    state = DiagonalState(np.array([0.2, 0.3, 0.4]), 0.1)
    rho = state.to_density()
    assert isinstance(rho, DensityMatrix)
    assert_allclose(rho.matrix, np.diag([0.2, 0.3, 0.4]).astype(complex), atol=0)
    assert_allclose(rho.trace_deficit, state.trace_deficit, atol=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_populations_are_refused(value):
    with pytest.raises(DomainError):
        DiagonalState([0.5, value, 0.25, 0.25])
    with pytest.raises(DomainError):
        clamp_spectrum([0.5, value])
    # a dense state with a non-finite entry fails in its eigensolve
    m = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    m[1, 1] = value
    with pytest.raises(EigensolverError):
        check_cmoe(amplifier(2.0), DensityMatrix(m))


@pytest.mark.parametrize("deficit", [float("nan"), -1.0, 1.0, float("inf"), "0.1", None])
@pytest.mark.parametrize(
    "make", [DiagonalState, lambda p, d: DensityMatrix(np.diag(p), d)], ids=["diagonal", "dense"]
)
def test_states_refuse_a_deficit_outside_zero_one(make, deficit):
    probs = thermal_state(0.5, 30).probs
    with pytest.raises(DomainError, match="trace_deficit must be a number in"):
        make(probs, deficit)
    # a NaN deficit once reached check_cmoe, which called the row an Equality
    assert make(probs, 0.0).trace_deficit == 0.0
    assert check_cmoe(amplifier(2.0), make(probs, 0.25 ** 30)).verdict is not None
