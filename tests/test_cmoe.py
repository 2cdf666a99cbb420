import functools
import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from focklab import entropy
from focklab.channels import (
    ChannelDims,
    additive_noise,
    amplifier,
    apply_channel,
    attenuator,
    clear_caches,
    contravariant_amplifier,
    get_channel_map,
)
from focklab.cmoe import (
    VERDICT_EQUALITY,
    VERDICT_SATISFIED,
    VERDICT_SUPPRESSED,
    VIOLATION_SLACK,
    amplifier_entropy_chain,
    bound_for,
    check_cmoe,
    entropy_truncation_margin,
)
from focklab.entropy import renyi_entropy, state_spectrum
from focklab.errors import DomainError
from focklab.lemma import amplifier_z_map
from focklab.sampling import random_mixed, substream
from focklab.states import DensityMatrix
from focklab.thermal import (
    g,
    g_inv,
    log_thermal_schatten_norm,
    thermal_state,
    thermal_tail_cutoff,
    z_of_energy,
)

from dilation import ladder


def test_bound_formulas_on_thermal_entropies():
    # with a thermal-entropy input the bound is g of the mean-energy law
    s_in = g(1.0)
    assert_allclose(bound_for(attenuator(0.3, 2.0), s_in), g(0.3 * 1.0 + 0.7 * 2.0), rtol=1e-12)
    assert_allclose(bound_for(amplifier(2.0, 0.5), s_in), g(2.0 * 1.0 + 1.0 * 1.5), rtol=1e-12)
    assert_allclose(bound_for(additive_noise(2.0), s_in), g(3.0), rtol=1e-12)
    assert_allclose(
        bound_for(contravariant_amplifier(2.0, 0.5), s_in), g(1.0 * 2.0 + 2.0 * 0.5), rtol=1e-12
    )


def test_bound_known_numbers():
    assert_allclose(g(0.5), 0.9547712524422195, rtol=1e-14)
    assert_allclose(g(3.0), 2.249340578475233, rtol=1e-14)
    assert_allclose(bound_for(additive_noise(2.0), g(1.0)), 2.249340578475233, rtol=1e-12)


def test_bounds_monotone_in_input_entropy():
    grid = np.linspace(0.05, 2.5, 40)
    for spec in (
        attenuator(0.6, 0.5),
        amplifier(1.8, 0.5),
        additive_noise(1.0),
        contravariant_amplifier(1.8, 0.5),
    ):
        vals = np.array([bound_for(spec, s) for s in grid])
        assert np.all(np.diff(vals) > 0)


def test_bound_at_zero_entropy():
    # vacuum input: the bound reduces to the zero-input-energy law
    assert_allclose(bound_for(attenuator(0.5, 1.0), 0.0), g(0.5), rtol=1e-12)
    assert_allclose(bound_for(amplifier(2.0, 0.0), 0.0), g(1.0), rtol=1e-12)


def test_entropy_truncation_margin():
    assert entropy_truncation_margin(0.0, 100) == 0.0
    d, dim = 1e-6, 50
    expected = d * math.log(dim) + (-d * math.log(d) - (1 - d) * math.log1p(-d))
    assert_allclose(entropy_truncation_margin(d, dim), expected, rtol=1e-12)
    assert entropy_truncation_margin(1e-4, 100) > entropy_truncation_margin(1e-6, 100)


def test_check_cmoe_thermal_input_is_equality():
    for spec in (
        attenuator(0.3, 1.0),
        amplifier(2.0, 0.5),
        additive_noise(1.0),
        contravariant_amplifier(2.0, 0.5),
    ):
        rep = check_cmoe(spec, thermal_state(1.0, 60))
        assert rep.verdict_label == VERDICT_EQUALITY
        assert abs(rep.gap) < 1e-6
        assert_allclose(rep.input_entropy, g(1.0), rtol=1e-10)


DISPLACED_LEVELS = 40


@functools.cache
def _displaced_thermal_states():
    """D(a) w_E D(a)+ for a in {0.5, 1 + 0.5i} and E in {0, 0.5, 1}.

    Each is built on 160 levels and cut to DISPLACED_LEVELS, so the state
    carries the mass it loses as its trace deficit.
    """
    a, states = ladder(160), []
    for alpha in (0.5, 1.0 + 0.5j):
        d = scipy.linalg.expm(alpha * a.conj().T - np.conj(alpha) * a)
        for energy in (0.0, 0.5, 1.0):
            m = (d * thermal_state(energy, 160).probs) @ d.conj().T
            m = m[:DISPLACED_LEVELS, :DISPLACED_LEVELS]
            states.append(DensityMatrix.from_matrix(0.5 * (m + m.conj().T)))
    return states


def _worst_displaced_excess(spec):
    """Largest |gap| less truncation_margin + 1e-12 over the displaced thermal inputs."""
    reports = [check_cmoe(spec, rho) for rho in _displaced_thermal_states()]
    return max(abs(r.gap) - r.truncation_margin - 1e-12 for r in reports)


@pytest.mark.parametrize(
    "spec",
    [
        attenuator(0.5, 0.5),
        amplifier(2.0),
        amplifier(1.5, 0.3),
        additive_noise(0.5),
        contravariant_amplifier(2.0),
    ],
    ids=["attenuator", "amplifier", "noisy-amplifier", "additive", "contravariant"],
)
def test_displaced_thermal_inputs_sit_on_the_bound(spec):
    # the output of D(a) w D(a)+ is a displaced copy of the output of w,
    # with its entropy; unlike a Fock-diagonal input, it reaches bands >= 1
    assert _worst_displaced_excess(spec) <= 0.0
    # band 1's weight [0, 0] scaled by 1 + 1e-6 is seen (by 1.2e-7 to 3.7e-7)
    clear_caches()
    try:
        get_channel_map(spec, DISPLACED_LEVELS).complete()[1][0, 0] *= 1.0 + 1e-6
        assert _worst_displaced_excess(spec) > 0.0
    finally:
        clear_caches()


def test_check_cmoe_random_input_satisfied():
    rng = substream(41, 0)
    rho = random_mixed(10, 10, rng)
    rep = check_cmoe(amplifier(1.8, 0.3), rho)
    assert rep.verdict_label == VERDICT_SATISFIED
    assert rep.gap > 1e-4
    assert rep.output_entropy > rep.bound


def test_check_cmoe_gap_consistency():
    rng = substream(42, 0)
    rho = random_mixed(8, 8, rng)
    rep = check_cmoe(attenuator(0.6, 0.4), rho)
    assert_allclose(rep.gap, rep.output_entropy - rep.bound, atol=1e-14)
    assert rep.truncation_margin >= 0.0


def test_check_cmoe_suppressed_on_excessive_truncation():
    rho = DensityMatrix(np.diag([0.0] * 15 + [1.0]).astype(complex))
    rep = check_cmoe(amplifier(4.0), rho, ChannelDims(40, 40, 20))
    assert rep.verdict is None
    assert rep.verdict_label == VERDICT_SUPPRESSED
    assert math.isnan(rep.output_entropy)


def test_check_cmoe_rejects_deficient_input():
    rho = DensityMatrix.from_matrix(np.diag([0.5, 0.4]).astype(complex))
    with pytest.raises(DomainError):
        check_cmoe(attenuator(0.5), rho)


def test_chain_holds_for_random_states():
    for i in range(5):
        rho = random_mixed(12, 12, substream(43, i))
        for q in (1.3, 1.1):
            rec = amplifier_entropy_chain(rho, 2.0, q)
            assert rec.holds
            assert 1.0 < rec.p < q
            assert_allclose(
                rec.prefactor, (q / (q - 1.0)) * ((rec.p - 1.0) / rec.p), rtol=1e-12
            )
            # the first step never needs slack: entropy dominates any
            # higher-order entropy outright
            assert rec.step_monotone >= -1e-12


def _renyi_slack(state, alpha):
    """The Renyi tail term of the chain's slack, from the state's spectrum power sum."""
    vals = state_spectrum(state)
    return state.trace_deficit**alpha / ((alpha - 1.0) * np.sum(vals[vals > 0.0] ** alpha))


def test_chain_thermal_side_is_the_closed_form():
    # the oracle of the norm-margin form: the closed-form thermal norms at
    # z_bar and its amplifier image z', and the second step as a weighted
    # difference of Renyi entropies of rho, its output and the thermal pair
    for gain in (1.5, 2.0, 4.0):
        for i in range(4):
            rho = random_mixed(12, 12, substream(43, i))
            for q in (1.1, 1.3):
                rec = amplifier_entropy_chain(rho, gain, q)
                p, z_bar = rec.p, z_of_energy(g_inv(rec.input_entropy))
                log_q = log_thermal_schatten_norm(amplifier_z_map(z_bar, gain), q)
                log_p = log_thermal_schatten_norm(z_bar, p)
                assert rec.log_thermal_ratio == log_q - log_p
                sq_out = renyi_entropy(apply_channel(amplifier(gain), rho), q)
                sp_in = renyi_entropy(rho, p)
                renyi_form = (
                    sq_out - q / (1.0 - q) * log_q - rec.prefactor * (sp_in - p / (1.0 - p) * log_p)
                )
                assert abs(rec.step_saturation - renyi_form) <= 1e-14
    # thermal inputs that miss 2.3e-8 to 5.9e-5 of their trace: the Renyi tail
    # terms of the slack, read from the norms, equal the spectrum power sums
    for energy in (0.3, 0.5, 0.8):
        rho = thermal_state(energy, 12).to_density()
        assert rho.trace_deficit > 0.0
        for q in (1.1, 1.3):
            rec = amplifier_entropy_chain(rho, 2.0, q)
            out = apply_channel(amplifier(2.0), rho)
            slack = (
                VIOLATION_SLACK
                + _renyi_slack(out, q)
                + rec.prefactor * _renyi_slack(rho, rec.p)
                + entropy_truncation_margin(out.trace_deficit, out.dim)
            )
            assert_allclose(rec.slack, slack, rtol=1e-12, atol=0.0)


def test_chain_catches_a_broken_channel():
    # band 0's weight [1, 0] of the amplifier scaled by 1 + 1e-6 lifts the
    # output norm past the thermal ceiling: the step reads -6.2e-7 to
    # -1.9e-6 against a slack of 1e-9 on inputs that hold unbroken
    inputs = [thermal_state(e, thermal_tail_cutoff(e, 1e-14)).to_density() for e in (0.5, 1.0)]
    for rho in inputs:
        for q in (1.1, 1.3):
            assert amplifier_entropy_chain(rho, 2.0, q).holds
    clear_caches()
    try:
        for rho in inputs:
            get_channel_map(amplifier(2.0), rho.dim).complete()[0][1, 0] *= 1.0 + 1e-6
            for q in (1.1, 1.3):
                assert not amplifier_entropy_chain(rho, 2.0, q).holds
    finally:
        clear_caches()


def test_chain_solves_four_spectra(monkeypatch):
    # rho and its output, each once for its entropy and once for its norm,
    # whether or not rho misses part of its trace
    solved, spectrum = [], entropy.hermitian_spectrum
    monkeypatch.setattr(entropy, "hermitian_spectrum", lambda m: solved.append(m) or spectrum(m))
    for rho in (random_mixed(12, 12, substream(43, 0)), thermal_state(0.5, 12).to_density()):
        solved.clear()
        amplifier_entropy_chain(rho, 2.0, 1.3)
        assert len(solved) == 4


def test_chain_saturates_on_thermal_input():
    # thermal inputs sit at the equality point of the second step; the
    # residual shrinks with the input cutoff (8e-7 at 16, 9e-10 at 24)
    rho = thermal_state(1.0, 16).to_density()
    rec = amplifier_entropy_chain(rho, 2.0, 1.3)
    assert rec.holds
    assert abs(rec.step_saturation) < 1e-5


def test_chain_refuses_the_inputs_check_cmoe_refuses():
    # 12 levels at energy 2.0 miss 7.7e-3 of the trace; the chain passed
    # that input on slack alone (step_monotone -5.6e-2 against slack 0.20)
    rho = thermal_state(2.0, 12).to_density()
    with pytest.raises(DomainError) as chain:
        amplifier_entropy_chain(rho, 2.0, 1.1)
    with pytest.raises(DomainError) as cmoe:
        check_cmoe(amplifier(2.0), rho)
    assert str(chain.value) == str(cmoe.value) == "input trace_deficit 7.707e-03 exceeds 0.0001"


def test_chain_rejects_zero_entropy_input():
    pure = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(DomainError):
        amplifier_entropy_chain(pure, 2.0, 1.3)
