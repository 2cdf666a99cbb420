"""Property tests of the channel maps over every kind, quantum-limited and noisy.

Inputs live on at most 8 levels (12 for majorization) and use default
output sizes.  The hypothesis profile in conftest.py fixes the
examples, so a run is deterministic.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from focklab.channels import (
    ChannelKind,
    additive_noise,
    amplifier,
    apply_channel,
    apply_diagonal,
    attenuator,
    clear_caches,
    contravariant_amplifier,
)
from focklab.sampling import random_diagonal, random_mixed, random_pure, substream
from focklab.states import DensityMatrix, DiagonalState

MAX_LEVELS = 8

# slack allowed on a partial sum of the majorization check
MAJORIZATION_TOL = 1e-12

# an environment energy of exactly 0 gives the quantum-limited channel
env_energies = st.just(0.0) | st.floats(0.01, 1.5)
gains = st.floats(1.0, 3.0)

specs = st.one_of(
    st.builds(attenuator, st.floats(0.05, 1.0), env_energies),
    st.builds(amplifier, gains, env_energies),
    st.builds(additive_noise, st.floats(0.01, 1.5)),
    st.builds(contravariant_amplifier, gains, env_energies),
)


@st.composite
def states(draw):
    """A mixed state of any rank, a pure state or a Fock-diagonal state."""
    dim = draw(st.integers(1, MAX_LEVELS))
    rng = substream(draw(st.integers(0, 2**32 - 1)), 0)
    kind = draw(st.sampled_from(["mixed", "pure", "diagonal"]))
    if kind == "mixed":
        return random_mixed(dim, draw(st.integers(1, dim)), rng)
    if kind == "pure":
        return random_pure(dim, rng)
    return random_diagonal(dim, rng).to_density()


@given(specs, states())
def test_outputs_are_valid_states(spec, rho):
    apply_channel(spec, rho).validate()


@given(specs, states())
def test_trace_deficit_is_the_lost_mass(spec, rho):
    out = apply_channel(spec, rho)
    assert out.trace_deficit == max(0.0, 1.0 - out.trace)
    diag = apply_diagonal(spec, rho.diagonal_part())
    assert diag.trace_deficit == max(0.0, 1.0 - diag.trace)


@given(specs, states())
def test_apply_diagonal_is_the_output_diagonal(spec, rho):
    # phase covariance: the output populations depend on the input
    # populations alone, whatever the coherences
    full = apply_channel(spec, rho)
    fast = apply_diagonal(spec, rho.diagonal_part())
    assert_allclose(fast.probs, np.diagonal(full.matrix).real, rtol=0, atol=1e-12)


def _phase(phi, dim):
    """U_phi = exp(i phi a+a) on `dim` levels, as its diagonal."""
    return np.exp(1j * phi * np.arange(dim))


@given(specs, states(), st.floats(-np.pi, np.pi))
def test_phase_covariance(spec, rho, phi):
    # Phi(U_phi rho U_phi+) = U_{+-phi} Phi(rho) U_{+-phi}+, with -phi for
    # the contravariant amplifier; fresh caches make both applications
    # complete a map built with band 0 alone
    clear_caches()
    u_in = _phase(phi, rho.dim)
    rotated = apply_channel(spec, DensityMatrix(u_in[:, None] * rho.matrix * u_in.conj()[None, :]))
    clear_caches()
    out = apply_channel(spec, rho)
    sign = -1.0 if spec.kind == ChannelKind.CONTRAVARIANT else 1.0
    u_out = _phase(sign * phi, out.dim)
    expected = u_out[:, None] * out.matrix * u_out.conj()[None, :]
    assert_allclose(rotated.matrix, expected, rtol=0, atol=1e-12)


@given(specs, st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_passive_input_output_majorizes(spec, rank, seed):
    # the passive rearrangement rho_down of rho (its spectrum in
    # decreasing order on the Fock levels) gives an output that
    # majorizes Phi(rho): every partial sum of its sorted spectrum is
    # at least as large
    rho = random_mixed(12, rank, substream(seed, 0))
    spectrum = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
    passive = apply_diagonal(spec, DiagonalState(spectrum))
    out = apply_channel(spec, rho)
    top_passive = np.cumsum(np.sort(passive.probs)[::-1])
    top = np.cumsum(np.sort(np.linalg.eigvalsh(out.matrix))[::-1])
    assert np.all(top_passive >= top - MAJORIZATION_TOL)
