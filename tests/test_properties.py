"""Property tests of the channel maps over every kind, quantum-limited and noisy,
and of the trace-Frobenius bound on Schatten q-norms that the lemma probe uses.

Inputs live on at most 8 levels (12 for majorization) and use default
output sizes; the dilation reference gets extra levels in both modes.
The hypothesis profile in conftest.py fixes the examples, so a run is
deterministic.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from focklab.channels import (
    ChannelDims,
    ChannelKind,
    additive_noise,
    amplifier,
    apply_channel,
    apply_diagonal,
    attenuator,
    clear_caches,
    contravariant_amplifier,
)
from focklab.entropy import schatten_norm
from focklab.lemma import log_schatten_bound
from focklab.sampling import random_diagonal, random_mixed, random_pure, substream
from focklab.states import DensityMatrix, DiagonalState

from dilation import apply_channel_dense

MAX_LEVELS = 8

# slack allowed on a partial sum of the majorization check
MAJORIZATION_TOL = 1e-12

# the dilation reference gets this many levels above d_out in both modes,
# so that its squeezer cut reaches no output entry
REFERENCE_HEADROOM = 30

# slack allowed on the trace-Frobenius bound of ln ||x||_q
NORM_BOUND_TOL = 1e-12

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


@st.composite
def sub_unit_states(draw):
    """A mixed state of any rank, scaled to a trace in (0, 1]."""
    dim = draw(st.integers(1, MAX_LEVELS))
    rng = substream(draw(st.integers(0, 2**32 - 1)), 0)
    rho = random_mixed(dim, draw(st.integers(1, dim)), rng)
    return DensityMatrix(draw(st.floats(1e-3, 1.0)) * rho.matrix)


# the trace-Frobenius bound holds for 1 < q <= 2
bound_orders = st.floats(1.0, 2.0, exclude_min=True)


def _bound(x, q):
    return log_schatten_bound(np.trace(x.matrix).real, np.linalg.norm(x.matrix), q)


@given(specs, states())
def test_outputs_are_valid_states(spec, rho):
    apply_channel(spec, rho).validate()


@given(sub_unit_states() | st.builds(apply_channel, specs, states()), bound_orders)
def test_trace_frobenius_bound_holds(x, q):
    # ||x||_q <= (tr x)**theta * ||x||_F**(1 - theta), theta = 2/q - 1
    assert math.log(schatten_norm(x, q)) <= _bound(x, q) + NORM_BOUND_TOL


@given(st.integers(1, MAX_LEVELS), st.data(), st.floats(1e-3, 1.0), bound_orders)
def test_trace_frobenius_bound_is_attained_on_flat_spectra(dim, data, t, q):
    # t/r on r levels: ||x||_q = t r**(1/q - 1) equals the bound exactly
    # when theta = 2/q - 1; at rank one ||x||_q = tr x = ||x||_F = t
    rank = data.draw(st.integers(1, dim))
    rng = substream(data.draw(st.integers(0, 2**32 - 1)), 0)
    iso, _ = np.linalg.qr(rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))
    for r in (1, rank):
        x = DensityMatrix(t / r * iso[:, :r] @ iso[:, :r].conj().T)
        gap = _bound(x, q) - math.log(schatten_norm(x, q))
        assert abs(gap) <= NORM_BOUND_TOL


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


@given(specs, states())
def test_agrees_with_the_dilation_reference(spec, rho):
    # the channel's own two-mode dilation with a thermal environment,
    # evaluated without the Kraus bands or the stage decomposition
    out = apply_channel(spec, rho)
    d = out.dim + REFERENCE_HEADROOM
    ref = apply_channel_dense(spec, rho, ChannelDims(d, d, out.dim))
    assert_allclose(ref.matrix, out.matrix, rtol=0, atol=1e-12)
