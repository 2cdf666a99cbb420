"""Property tests of the channel maps over every kind, quantum-limited and noisy.

Inputs live on at most 8 levels and use default output sizes.  The
hypothesis profile in conftest.py fixes the examples, so a run is
deterministic.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from focklab.channels import (
    additive_noise,
    amplifier,
    apply_channel,
    apply_diagonal,
    attenuator,
    contravariant_amplifier,
)
from focklab.sampling import random_diagonal, random_mixed, random_pure, substream

MAX_LEVELS = 8

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
