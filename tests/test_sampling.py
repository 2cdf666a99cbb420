import importlib.util
import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from focklab import sampling
from focklab.channels import amplifier, attenuator
from focklab.cmoe import VERDICT_EQUALITY, check_cmoe
from focklab.entropy import state_spectrum, von_neumann_entropy
from focklab.errors import DomainError
from focklab.sampling import (
    SamplerConfig,
    adversarial_search,
    draw_state,
    entropy_pinned_state,
    mix_entropy,
    random_diagonal,
    random_mixed,
    random_pure,
    random_unitary,
    state_from_json,
    state_to_json,
    substream,
)
from focklab.states import DensityMatrix, DiagonalState
from focklab.thermal import g, thermal_state

from dilation import validate_state


def test_substream_deterministic_and_disjoint():
    a = substream(123, 0).random(4)
    b = substream(123, 0).random(4)
    c = substream(123, 1).random(4)
    assert_allclose(a, b, atol=0)
    assert not np.allclose(a, c)


def test_substream_distinct_seeds():
    a = substream(1, 0).random(4)
    b = substream(2, 0).random(4)
    assert not np.allclose(a, b)


def test_random_pure_is_normalized_rank_one():
    rho = random_pure(9, substream(5, 0))
    assert_allclose(rho.trace, 1.0, atol=1e-12)
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
    assert_allclose(purity, 1.0, atol=1e-12)
    validate_state(rho)


def test_random_mixed_rank_control():
    rho = random_mixed(10, 3, substream(6, 0))
    assert_allclose(rho.trace, 1.0, atol=1e-12)
    vals = state_spectrum(rho)
    assert vals[2] > 1e-6
    assert vals[3] < 1e-12
    validate_state(rho)


def test_random_diagonal_normalized():
    diag = random_diagonal(12, substream(7, 0))
    assert isinstance(diag, DiagonalState)
    assert_allclose(diag.trace, 1.0, atol=1e-12)


def test_random_unitary_properties():
    u = random_unitary(8, substream(8, 0))
    assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
    v = random_unitary(8, substream(8, 0))
    assert_allclose(u, v, atol=0)


def test_mixed_entropy_concentrates_near_expected_value():
    # square-rank draws concentrate near log(d) - 1/2 for moderate d
    d, n = 16, 100
    vals = [von_neumann_entropy(random_mixed(d, d, substream(9, i))) for i in range(n)]
    mean = float(np.mean(vals))
    expected = math.log(d) - 0.5
    assert abs(mean - expected) < 0.2 * expected


def test_entropy_pinned_state_hits_target():
    for target in (0.2, 1.0, 2.0):
        rho = entropy_pinned_state(target, 12, substream(10, 0))
        assert abs(von_neumann_entropy(rho) - target) <= 1e-9
        validate_state(rho)


def test_entropy_pinned_state_zero_target_is_pure():
    rho = entropy_pinned_state(0.0, 8, substream(11, 0))
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
    assert_allclose(purity, 1.0, atol=1e-9)


def test_entropy_pinned_state_zero_target_at_one_level_is_the_level():
    # ln 1 = 0 is the only entropy at cutoff 1, and it is within PIN_TOL
    rho = entropy_pinned_state(0.0, 1, substream(13, 0))
    assert_allclose(rho.matrix, [[1.0]], atol=1e-15)
    with pytest.raises(DomainError):
        entropy_pinned_state(1e-6, 1, substream(13, 0))


def test_entropy_pinned_state_rejects_unreachable_target():
    with pytest.raises(DomainError):
        entropy_pinned_state(math.log(8.0) + 0.1, 8, substream(12, 0))


def test_mix_entropy_matches_eigensolved_mixture():
    for dim in (2, 16, 24):
        base = random_pure(dim, substream(dim, 0)).matrix
        eye = np.eye(dim) / dim
        for t in np.linspace(0.0, 1.0, 41):
            mixture = DensityMatrix((1.0 - t) * base + t * eye)
            assert abs(mix_entropy(float(t), dim) - von_neumann_entropy(mixture)) <= 1e-12


def _eigensolve_pinned_state(target, cutoff, rng, tol=1e-9):
    """Reference pinned sampler: bisection on the eigensolved mixture entropy."""
    eye = np.eye(cutoff) / cutoff
    base = random_pure(cutoff, rng).matrix
    t_star = 0.0
    if target > tol:
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            s_mid = von_neumann_entropy(DensityMatrix((1.0 - mid) * base + mid * eye))
            if abs(s_mid - target) <= tol:
                t_star = mid
                break
            if s_mid < target:
                lo = mid
            else:
                hi = mid
        else:
            raise AssertionError("reference bisection did not converge")
    v = random_unitary(cutoff, rng)
    rho = v @ ((1.0 - t_star) * base + t_star * eye) @ v.conj().T
    return 0.5 * (rho + rho.conj().T)


def test_entropy_pinned_state_matches_eigensolve_bisection():
    for seed in range(20):
        cutoff = (16, 24)[seed % 2]
        target = 0.05 + substream(seed, 1).random() * (0.9 * math.log(cutoff) - 0.05)
        fast = entropy_pinned_state(target, cutoff, substream(seed, 0)).matrix
        ref = _eigensolve_pinned_state(target, cutoff, substream(seed, 0))
        assert_allclose(fast, ref, rtol=0, atol=1e-13)


def test_draw_state_dispatch():
    seed = 99
    mixed = draw_state(SamplerConfig(seed, 8, kind="mixed"), 0)
    pure = draw_state(SamplerConfig(seed, 8, kind="pure"), 0)
    diag = draw_state(SamplerConfig(seed, 8, kind="diagonal"), 0)
    pinned = draw_state(SamplerConfig(seed, 8, kind="pinned", target_entropy=1.0), 0)
    assert isinstance(mixed, DensityMatrix)
    assert isinstance(pure, DensityMatrix)
    assert isinstance(diag, DiagonalState)
    assert abs(von_neumann_entropy(pinned) - 1.0) <= 1e-9


def test_draw_state_deterministic_per_index():
    cfg = SamplerConfig(31, 6, kind="mixed")
    a = draw_state(cfg, 4)
    b = draw_state(cfg, 4)
    c = draw_state(cfg, 5)
    assert_allclose(a.matrix, b.matrix, atol=0)
    assert not np.allclose(a.matrix, c.matrix)


def test_draw_state_unknown_kind():
    with pytest.raises(DomainError):
        draw_state(SamplerConfig(1, 6, kind="bogus"), 0)


def test_adversarial_search_never_finds_violation():
    spec = amplifier(1.6, 0.2)
    result = adversarial_search(spec, target_entropy=1.0, iterations=40, cutoff=8, seed=3)
    rep = result.best_report
    assert rep.verdict is not None
    assert rep.gap >= -(rep.truncation_margin + 1e-9)
    assert result.iterations == 40
    assert 0 <= result.accepted <= 40


def test_adversarial_search_keeps_entropy_pinned():
    spec = attenuator(0.6, 0.5)
    result = adversarial_search(spec, target_entropy=1.2, iterations=30, cutoff=8, seed=4)
    assert abs(von_neumann_entropy(result.best_state) - 1.2) <= 1e-6


def test_adversarial_search_deterministic():
    spec = amplifier(1.5, 0.1)
    a = adversarial_search(spec, 0.8, 20, 8, seed=5)
    b = adversarial_search(spec, 0.8, 20, 8, seed=5)
    assert_allclose(a.best_state.matrix, b.best_state.matrix, atol=0)
    assert a.accepted == b.accepted


def test_adversarial_search_only_improves():
    spec = amplifier(1.5, 0.1)
    target = 0.8
    start_rep = check_cmoe(spec, entropy_pinned_state(target, 8, substream(6, 0)))
    result = adversarial_search(
        spec, target, 25, 8, seed=6, start=entropy_pinned_state(target, 8, substream(6, 0))
    )
    assert result.best_report.output_entropy <= start_rep.output_entropy + 1e-12


def test_adversarial_search_rejects_start_of_wrong_size():
    start = entropy_pinned_state(0.8, 6, substream(6, 0))
    with pytest.raises(DomainError, match="6 levels"):
        adversarial_search(amplifier(1.5, 0.1), 0.8, 25, 8, seed=6, start=start)


def test_adversarial_search_runs_blas_on_one_thread_and_restores(threaded_blas, monkeypatch):
    # numpy's OpenBLAS keeps the caller's 2 threads during and after the
    # search; loading the expm kernel sets scipy's own to 1 and leaves it there
    scipy_dir = os.path.realpath(importlib.util.find_spec("scipy").submodule_search_locations[0])
    before, seen = threaded_blas(), []
    expected = {path: 1 if path.startswith(scipy_dir) else 2 for path in before}
    if 1 not in expected.values():
        pytest.skip("scipy brings no OpenBLAS of its own")

    def recording(spec, state):
        seen.append(threaded_blas())
        return check_cmoe(spec, state)

    monkeypatch.setattr(sampling, "check_cmoe", recording)
    adversarial_search(amplifier(1.5, 0.1), 0.8, 10, 8, seed=5)
    assert len(seen) > 1 and all(c == expected for c in seen)
    assert threaded_blas() == expected


def test_identity_gain_search_sits_at_equality():
    # unit gain makes the channel the identity, so the bound is tight
    # at every entropy and the search can only wander along equality
    spec = amplifier(1.0)
    result = adversarial_search(spec, 1.0, 15, 8, seed=7)
    rep = result.best_report
    assert rep.verdict_label == VERDICT_EQUALITY
    assert abs(rep.gap) <= 1e-6


def test_state_json_round_trip():
    rho = random_mixed(6, 6, substream(13, 0))
    spec = amplifier(2.0, 0.5)
    payload = state_to_json(rho, seed=42, spec=spec)
    back_state, back_seed, back_spec = state_from_json(payload)
    assert_allclose(back_state.matrix, rho.matrix, atol=0)
    assert back_seed == 42
    assert back_spec == spec
    assert payload["schema_version"] == 1


def test_thermal_start_search_stays_at_equality_gap():
    # starting from the entropy-matched thermal state, any accepted move
    # must keep the output entropy at or above the bound
    spec = amplifier(1.8)
    e_ref = 1.0
    start = thermal_state(e_ref, 16).to_density()
    result = adversarial_search(spec, g(e_ref), 20, 16, seed=8, start=start)
    rep = result.best_report
    assert rep.gap >= -(rep.truncation_margin + 1e-9)
