import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from focklab.channels import (
    AMPLIFIER_TAIL_TARGET,
    MAX_DENSE_BYTES,
    MAX_DENSE_D_OUT,
    ChannelDims,
    ChannelMap,
    ChannelKind,
    _checked_deficit,
    _kraus_bands,
    _negative_binomial_span,
    additive_noise,
    amplifier,
    apply_channel,
    apply_diagonal,
    attenuator,
    band_zero_bytes,
    clear_caches,
    contravariant_amplifier,
    decompose,
    default_dims,
    dense_bytes,
    get_channel_map,
    output_trace_frobenius,
)
from focklab.entropy import trace_distance
from focklab.errors import DomainError, ResourceLimitError, TruncationError
from focklab.sampling import random_mixed, random_pure, substream
from focklab.states import DensityMatrix, DiagonalState
from focklab.thermal import thermal_state, z_of_energy

from dilation import (
    _reference_dilation,
    apply_channel_dense,
    beamsplitter_unitary,
    ladder,
    partial_trace,
    squeezer_unitary,
)


def _expm_taylor(m):
    """Scaling-and-squaring Taylor exponential, independent of scipy."""
    norm = float(np.abs(m).sum(axis=1).max())
    s = max(0, int(math.ceil(math.log2(max(norm, 1e-300)))) + 1)
    a = m / (2.0**s)
    term = np.eye(m.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 40):
        term = term @ a / k
        out += term
    for _ in range(s):
        out = out @ out
    return out


def test_spec_constructors_validate():
    with pytest.raises(DomainError):
        attenuator(0.0)
    with pytest.raises(DomainError):
        attenuator(1.2)
    with pytest.raises(DomainError):
        amplifier(0.9)
    with pytest.raises(DomainError):
        contravariant_amplifier(0.5)
    with pytest.raises(DomainError):
        attenuator(0.5, env_energy=-0.1)
    attenuator(1.0)
    amplifier(1.0)
    additive_noise(0.5)


@pytest.mark.parametrize(
    "value", ["0.7", True, float("nan"), float("inf"), float("-inf"), 10**400, None]
)
def test_spec_parameters_must_be_finite_reals(value):
    builders = [
        lambda v: attenuator(v),
        lambda v: attenuator(0.7, v),
        lambda v: amplifier(v),
        lambda v: contravariant_amplifier(2.0, v),
        lambda v: additive_noise(v),
    ]
    for build in builders:
        with pytest.raises(DomainError):
            build(value)


def test_output_energy_laws():
    assert_allclose(attenuator(0.3, 1.0).output_energy(2.0), 0.3 * 2.0 + 0.7 * 1.0)
    assert_allclose(amplifier(2.0, 0.5).output_energy(1.0), 2.0 * 1.0 + 1.0 * 1.5)
    assert_allclose(additive_noise(0.8).output_energy(1.5), 2.3)
    assert_allclose(contravariant_amplifier(2.0, 0.5).output_energy(1.0), 1.0 * 2.0 + 2.0 * 0.5)


def test_parameter_property():
    assert attenuator(0.4, 1.0).parameter == 0.4
    assert amplifier(1.7).parameter == 1.7
    assert additive_noise(0.9).parameter == 0.9
    assert contravariant_amplifier(3.0).parameter == 3.0
    spec = amplifier(np.int64(2), 1)
    assert type(spec.gain) is float and type(spec.env_energy) is float


def test_decompose_noisy_attenuator():
    lam, e = 0.3, 1.0
    pair = decompose(attenuator(lam, e))
    kap = (1.0 - lam) * e + 1.0
    assert_allclose(pair, (lam / kap, kap), rtol=1e-14)
    # the composition reproduces the mean-energy law
    lam_p, kap_p = pair
    for e_in in (0.0, 1.0, 2.5):
        staged = amplifier(kap_p).output_energy(attenuator(lam_p).output_energy(e_in))
        assert_allclose(staged, attenuator(lam, e).output_energy(e_in), rtol=1e-13)


def test_decompose_noisy_amplifier():
    kap, e = 2.0, 0.5
    pair = decompose(amplifier(kap, e))
    scale = (1.0 - 1.0 / kap) * e + 1.0
    assert_allclose(pair, (1.0 / scale, kap * scale), rtol=1e-14)
    lam_p, kap_p = pair
    for e_in in (0.0, 1.0, 2.5):
        staged = amplifier(kap_p).output_energy(attenuator(lam_p).output_energy(e_in))
        assert_allclose(staged, amplifier(kap, e).output_energy(e_in), rtol=1e-13)


def test_decompose_quantum_limited_is_trivial():
    lam_p, kap_p = decompose(attenuator(0.4, 0.0))
    assert_allclose(lam_p, 0.4, atol=1e-15)
    assert_allclose(kap_p, 1.0, atol=1e-15)


def test_beamsplitter_matches_kron_generator_exponential():
    d = 6
    lam = 0.35
    theta = math.acos(math.sqrt(lam))
    a = ladder(d)
    gen = theta * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))
    oracle = _expm_taylor(gen)
    dense = beamsplitter_unitary(lam, d, d).dense()
    assert_allclose(dense, oracle, atol=1e-12)


def test_squeezer_matches_kron_generator_exponential():
    d = 8
    kap = 1.8
    r = math.acosh(math.sqrt(kap))
    a = ladder(d)
    gen = r * (np.kron(a.conj().T, a.conj().T) - np.kron(a, a))
    oracle = _expm_taylor(gen)
    dense = squeezer_unitary(kap, d, d).dense()
    assert_allclose(dense, oracle, atol=1e-12)


def test_beamsplitter_blocks_unitary():
    u = beamsplitter_unitary(0.5, 12, 12)
    assert u.block_unitarity_defect() < 1e-12


def test_beamsplitter_single_photon_amplitudes():
    lam = 0.37
    u = beamsplitter_unitary(lam, 3, 3).dense()
    # joint index is sys * d_env + env
    ket_10 = np.zeros(9)
    ket_10[1 * 3 + 0] = 1.0
    out = u @ ket_10
    assert_allclose(abs(out[1 * 3 + 0]) ** 2, lam, rtol=1e-12)
    assert_allclose(abs(out[0 * 3 + 1]) ** 2, 1.0 - lam, rtol=1e-12)


def test_squeezer_vacuum_column_is_thermal():
    kap = 2.0
    d = 50
    u = squeezer_unitary(kap, d, d).dense()
    out = u[:, 0]
    probs = np.abs(out.reshape(d, d)) ** 2
    # two-mode squeezed vacuum: diagonal weights form the thermal law at
    # mean energy gain - 1, perfectly correlated across the two modes
    expected = thermal_state(kap - 1.0, d).probs
    assert_allclose(np.diag(probs), expected, atol=1e-12)
    off = probs - np.diag(np.diag(probs))
    assert float(np.abs(off).max()) < 1e-24


def test_negative_binomial_span_matches_scipy():
    for r in (1, 5, 16, 40):
        for inv_gain in (0.5, 0.66, 0.9):
            span = _negative_binomial_span(r, inv_gain, AMPLIFIER_TAIL_TARGET)
            oracle = int(stats.nbinom.ppf(1.0 - AMPLIFIER_TAIL_TARGET, r, inv_gain))
            assert abs(span - oracle) <= 1


def test_negative_binomial_span_survives_underflowing_first_term():
    # 0.25**600 underflows to zero, so the first weight is not a normal float
    span = _negative_binomial_span(600, 0.25, AMPLIFIER_TAIL_TARGET)
    oracle = int(stats.nbinom.isf(AMPLIFIER_TAIL_TARGET, 600, 0.25))
    assert abs(span - oracle) <= 1
    assert default_dims(amplifier(4.0), 600).d_out == 600 + span


def test_default_dims_attenuator_square():
    dims = default_dims(attenuator(0.5, 0.0), 10)
    assert dims == ChannelDims(10, 10, 10)
    noisy = default_dims(attenuator(0.5, 1.0), 10)
    assert noisy.d_sys == noisy.d_env == noisy.d_out > 10


def test_default_dims_amplifier_headroom():
    dims = default_dims(amplifier(2.0), 16)
    assert dims.d_out > 2 * 16
    # closed-form maps have no truncation wall to crop away
    assert dims.d_sys == dims.d_env == dims.d_out


def test_default_dims_monotone_in_input():
    prev = 0
    for d_in in (4, 8, 16, 32):
        dims = default_dims(amplifier(2.0, 0.5), d_in)
        assert dims.d_out > prev
        prev = dims.d_out


def test_default_dims_additive_is_amplifier_stage():
    # the attenuator stage keeps the input levels; the amplifier(e + 1)
    # stage sizes the output
    assert default_dims(additive_noise(1.0), 8) == default_dims(amplifier(2.0), 8)


def test_pure_loss_half_on_one_photon():
    rho = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    out = apply_channel(attenuator(0.5), rho)
    assert_allclose(out.matrix, np.diag([0.5, 0.5]).astype(complex), atol=1e-14)
    assert out.trace_deficit < 1e-14


def test_band_path_matches_dense_path():
    rng = substream(101, 0)
    rho = random_mixed(6, 6, rng)
    # every kind against its own dilation.  The environments keep all but
    # 1e-15 of their thermal mass (43 levels at energy 0.8, 28 at 0.4),
    # and the squeezer gets levels beyond d_out so that its truncation
    # wall sits where the output has no mass
    cases = (
        (attenuator(0.6), ChannelDims(6, 6, 6)),
        (attenuator(0.6, 0.8), ChannelDims(48, 43, 48)),
        (amplifier(1.7), ChannelDims(80, 80, 40)),
        (amplifier(1.7, 0.4), ChannelDims(80, 80, 50)),
        (contravariant_amplifier(1.7), ChannelDims(80, 80, 40)),
        (contravariant_amplifier(1.7, 0.4), ChannelDims(80, 80, 50)),
        (additive_noise(0.8), ChannelDims(80, 80, 50)),
    )
    for spec, dims in cases:
        banded = apply_channel(spec, rho, dims)
        dense = apply_channel_dense(spec, rho, dims)
        assert_allclose(banded.matrix, dense.matrix, atol=1e-13)
        assert_allclose(banded.trace_deficit, dense.trace_deficit, atol=1e-13)


def test_dense_path_matches_literal_sandwich():
    rng = substream(111, 0)
    rho = random_mixed(5, 5, rng)
    d = 9
    cases = (
        (attenuator(0.4, 0.7), beamsplitter_unitary(0.4, d, d), "sys"),
        (amplifier(1.6, 0.4), squeezer_unitary(1.6, d, d), "sys"),
        (contravariant_amplifier(1.6, 0.4), squeezer_unitary(1.6, d, d), "env"),
    )
    for spec, unitary, keep in cases:
        u = unitary.dense()
        sys_part = np.zeros((d, d), dtype=complex)
        sys_part[:5, :5] = rho.matrix
        env = np.diag(thermal_state(spec.env_energy, d).probs)
        literal = partial_trace(u @ np.kron(sys_part, env) @ u.conj().T, d, d, keep=keep)
        got = apply_channel_dense(spec, rho, ChannelDims(d, d, d))
        assert_allclose(got.matrix, literal, atol=1e-14)


def test_apply_diagonal_matches_apply_channel():
    rng = substream(102, 0)
    probs = rng.random(12)
    probs /= probs.sum()
    diag = DiagonalState.from_probs(probs)
    rho = diag.to_density()
    for spec in (attenuator(0.3, 1.0), amplifier(2.0, 0.5), additive_noise(1.0)):
        fast = apply_diagonal(spec, diag)
        full = apply_channel(spec, rho)
        assert_allclose(fast.probs, np.diag(full.matrix).real, atol=1e-12)


def test_phase_covariance():
    rng = substream(103, 0)
    rho = random_mixed(8, 8, rng)
    theta = 0.7
    phases = np.exp(1j * theta * np.arange(8))
    rotated = DensityMatrix.from_matrix(phases[:, None] * rho.matrix * phases.conj()[None, :])
    for spec in (attenuator(0.6, 0.5), amplifier(1.6, 0.3)):
        out = apply_channel(spec, rho)
        out_rot = apply_channel(spec, rotated)
        d = out.dim
        out_phases = np.exp(1j * theta * np.arange(d))
        expected = out_phases[:, None] * out.matrix * out_phases.conj()[None, :]
        assert_allclose(out_rot.matrix, expected, atol=1e-10)


def test_phase_contravariance():
    rng = substream(104, 0)
    rho = random_mixed(8, 8, rng)
    theta = 0.7
    phases = np.exp(1j * theta * np.arange(8))
    rotated = DensityMatrix.from_matrix(phases[:, None] * rho.matrix * phases.conj()[None, :])
    spec = contravariant_amplifier(1.6, 0.3)
    out = apply_channel(spec, rho)
    out_rot = apply_channel(spec, rotated)
    d = out.dim
    out_phases = np.exp(-1j * theta * np.arange(d))
    expected = out_phases[:, None] * out.matrix * out_phases.conj()[None, :]
    assert_allclose(out_rot.matrix, expected, atol=1e-10)


def test_attenuator_semigroup():
    rng = substream(105, 0)
    rho = random_mixed(10, 10, rng)
    lam1, lam2 = 0.7, 0.6
    direct = apply_channel(attenuator(lam1 * lam2), rho)
    staged = apply_channel(attenuator(lam1), apply_channel(attenuator(lam2), rho))
    assert trace_distance(direct, staged) < 1e-12


def test_amplifier_semigroup():
    rng = substream(106, 0)
    rho = random_mixed(8, 8, rng)
    kap1, kap2 = 1.3, 1.5
    direct = apply_channel(amplifier(kap1 * kap2), rho)
    staged = apply_channel(amplifier(kap1), apply_channel(amplifier(kap2), rho))
    assert trace_distance(direct, staged) < 1e-7


def test_thermal_fixed_point_of_attenuator():
    e = 1.0
    diag = thermal_state(e, 40)
    out = apply_diagonal(attenuator(0.5, e), diag)
    expected = thermal_state(e, out.dim)
    assert_allclose(out.probs, expected.probs, atol=1e-12)


def test_amplifier_thermal_ratio_pushforward():
    z = 0.4
    kap = 2.0
    e_in = z / (1.0 - z)
    diag = thermal_state(e_in, 40)
    out = apply_diagonal(amplifier(kap), diag)
    z_out = (z + kap - 1.0) / kap
    expected = thermal_state(z_out / (1.0 - z_out), out.dim)
    assert_allclose(out.probs, expected.probs, atol=1e-10)


def test_contravariant_diagonal_law():
    e_in, kap, e_env = 1.0, 2.0, 0.5
    diag = thermal_state(e_in, 30)
    out = apply_diagonal(contravariant_amplifier(kap, e_env), diag)
    e_out = (kap - 1.0) * (e_in + 1.0) + kap * e_env
    expected = thermal_state(e_out, out.dim)
    assert_allclose(out.probs, expected.probs, atol=1e-9)


def test_additive_noise_is_staged_composition():
    rng = substream(107, 0)
    rho = random_mixed(8, 8, rng)
    e = 1.0
    direct = apply_channel(additive_noise(e), rho)
    lam = 1.0 / (e + 1.0)
    staged = apply_channel(amplifier(e + 1.0), apply_channel(attenuator(lam), rho))
    assert trace_distance(direct, staged) < 1e-10


def test_additive_noise_accepts_explicit_dims():
    rng = substream(112, 0)
    rho = random_mixed(4, 4, rng)
    out = apply_channel(additive_noise(1.0), rho, ChannelDims(30, 30, 30))
    assert out.dim == 30
    default = apply_channel(additive_noise(1.0), rho)
    assert trace_distance(out, default) < 1e-6


def test_truncation_error_on_undersized_output():
    # the top Fock level through a strong amplifier lands far above an
    # output cutoff of 20, so nearly all mass falls in the cropped zone
    rho = DensityMatrix(np.diag([0.0] * 15 + [1.0]).astype(complex))
    with pytest.raises(TruncationError) as info:
        apply_channel(amplifier(4.0), rho, ChannelDims(40, 40, 20))
    assert info.value.deficit > 0.01


def test_decomposition_identity_on_random_state():
    rng = substream(108, 0)
    rho = random_mixed(12, 12, rng)
    for spec in (attenuator(0.3, 1.0), amplifier(2.0, 0.5)):
        lam_p, kap_p = decompose(spec)
        direct = apply_channel(spec, rho)
        staged = apply_channel(amplifier(kap_p), apply_channel(attenuator(lam_p), rho))
        assert trace_distance(direct, staged) < 1e-9


def test_channel_map_cache_identity():
    clear_caches()
    spec = attenuator(0.55, 0.2)
    first = get_channel_map(spec, 6)
    second = get_channel_map(spec, 6)
    assert first is second
    clear_caches()
    third = get_channel_map(spec, 6)
    assert third is not first


def test_map_build_memory_is_bounded_by_the_bands_it_keeps():
    """A noisy contravariant map (d_in 24, d_out 157) keeps 24 bands.

    Its later stages act on d_out levels and could make 157 bands each;
    building all of them took 20 MB of temporaries.  Only the bands the
    first stage produced are built, one at a time.  A fresh map holds
    band 0 alone; complete() builds the rest.
    """
    clear_caches()
    spec = contravariant_amplifier(2.0, 0.5)
    tracemalloc.start()
    try:
        cmap = get_channel_map(spec, 24)
        fresh = len(cmap.bands)
        cmap.complete()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        clear_caches()
    assert fresh == 1
    assert cmap.d_out == 157 and len(cmap.bands) == 24
    assert peak < 4 * 2**20


def test_oversized_dense_map_is_refused_before_it_allocates():
    # gain 1000 at 4 input levels sizes d_out in the tens of thousands:
    # a d_out x d_out output of ~10 GiB.  Band 0 (d_out x 4) still serves
    # Fock-diagonal inputs.
    clear_caches()
    try:
        spec = amplifier(1000.0)
        cmap = get_channel_map(spec, 4)
        assert cmap.d_out > MAX_DENSE_D_OUT
        with pytest.raises(ResourceLimitError, match="exceeds limit"):
            apply_channel(spec, DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)))
        assert len(cmap.bands) == 1
        out = apply_diagonal(spec, DiagonalState(np.array([1.0, 0.0, 0.0, 0.0])))
        assert out.dim == cmap.d_out
    finally:
        clear_caches()


@pytest.mark.parametrize("spec", [amplifier(2.0), attenuator(0.6, 0.4), contravariant_amplifier(1.6)])
def test_dense_bytes_counts_what_the_dense_path_allocates(spec):
    clear_caches()
    try:
        cmap = get_channel_map(spec, 7)
        out = cmap.apply_matrix(random_mixed(7, 7, substream(3, 0)).matrix)
        arrays = (cmap._slabs, cmap._gather, cmap._to_vals, cmap._to_conj, out)
        assert dense_bytes(cmap.d_in, cmap.d_out) == sum(a.nbytes for a in arrays)
    finally:
        clear_caches()


def test_dense_byte_limit_admits_300_and_refuses_400_levels_at_gain_two():
    # sized by the formula alone: neither map is built
    spec = amplifier(2.0)
    need = {d_in: dense_bytes(d_in, default_dims(spec, d_in).d_out) for d_in in (300, 400)}
    assert need[300] <= MAX_DENSE_BYTES < need[400]


def test_dense_map_over_the_byte_limit_is_refused_before_it_allocates():
    # 400 levels at gain 2: d_out 987 is under MAX_DENSE_D_OUT, but the
    # slabs, their index arrays and one output need 626 MiB
    clear_caches()
    tracemalloc.start()
    try:
        cmap = get_channel_map(amplifier(2.0), 400)
        assert cmap.d_out <= MAX_DENSE_D_OUT
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]  # band 0, 3 MiB
        with pytest.raises(ResourceLimitError, match="exceeds limit"):
            cmap.complete()
        grown = tracemalloc.get_traced_memory()[1] - held
        assert len(cmap.bands) == 1
    finally:
        tracemalloc.stop()
        clear_caches()
    assert grown < 2**20


# every kind, quantum-limited and noisy
LAZY_SPECS = [
    attenuator(0.6),
    attenuator(0.6, 0.4),
    amplifier(1.8),
    amplifier(1.8, 0.3),
    additive_noise(0.5),
    contravariant_amplifier(1.6),
    contravariant_amplifier(1.6, 0.3),
]


def _spec_id(spec):
    return f"{spec.kind.value}-{spec.parameter:g}-env{spec.env_energy:g}"


def _completed_at_once(spec, d_in):
    """A map completed straight after its build, left out of the cache."""
    clear_caches()
    cmap = get_channel_map(spec, d_in)
    cmap.complete()
    clear_caches()
    return cmap


@pytest.mark.parametrize("spec", LAZY_SPECS, ids=_spec_id)
def test_bands_do_not_depend_on_build_order(spec):
    d_in = 10
    at_once = _completed_at_once(spec, d_in).bands
    rho = random_mixed(d_in, d_in, substream(111, 0))
    apply_diagonal(spec, rho.diagonal_part())
    assert len(get_channel_map(spec, d_in).bands) == 1
    apply_channel(spec, rho)
    built = get_channel_map(spec, d_in)
    assert len(built.bands) == len(at_once) == min(d_in, built.d_out)
    assert all(np.array_equal(a, b) for a, b in zip(built.bands, at_once))
    clear_caches()


@pytest.mark.parametrize("spec", LAZY_SPECS, ids=_spec_id)
def test_threads_complete_one_map(spec):
    # more threads than cores, switching often, all completing one fresh map
    d_in = 24
    rho = random_mixed(d_in, d_in, substream(112, 0))
    expected = _completed_at_once(spec, d_in).apply_matrix(rho.matrix)
    cmap = get_channel_map(spec, d_in)
    threads = 4
    start = threading.Barrier(threads)
    outputs = [None] * threads

    def run(slot):
        start.wait()
        try:
            outputs[slot] = cmap.apply_matrix(rho.matrix)
        except Exception as exc:  # reported below, with the thread's error
            outputs[slot] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(slot,)) for slot in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    clear_caches()
    assert not any(t.is_alive() for t in workers)
    for out in outputs:
        assert isinstance(out, np.ndarray), out
        assert np.array_equal(out, expected)


def _band_loop(cmap, rho):
    """The per-band loop apply_matrix ran before the slabs: the oracle."""
    rho = cmap._fit(np.asarray(rho, dtype=complex))
    out = np.zeros((cmap.d_out, cmap.d_out), dtype=complex)
    idx = np.arange(cmap.d_out)
    for k, band in enumerate(cmap.complete()):
        vin = np.diagonal(rho, offset=-k)
        if cmap.contravariant:
            vin = vin.conj()
        vout = band @ vin
        rows = idx[: cmap.d_out - k] + k
        cols = idx[: cmap.d_out - k]
        if k == 0:
            out[rows, cols] = vout.real
        else:
            out[rows, cols] = vout
            out[cols, rows] = vout.conj()
    return out


@pytest.mark.parametrize("spec", LAZY_SPECS, ids=_spec_id)
@pytest.mark.parametrize("d_in", [1, 2, 7, 8])
def test_slab_apply_matches_the_band_loop(spec, d_in):
    # odd and even band counts, default and explicit dims (d_out below
    # d_in too), and inputs smaller than the map's input dim
    clear_caches()
    for dims in (None, ChannelDims(d_in + 3, d_in + 3, max(1, d_in - 3))):
        cmap = get_channel_map(spec, d_in, dims)
        for n in sorted({1, max(1, d_in - 2), d_in}):
            rho = random_mixed(n, n, substream(113, n)).matrix
            out = cmap.apply_matrix(rho)
            assert out.shape == (cmap.d_out, cmap.d_out)
            assert np.array_equal(out, out.conj().T)
            tol = 1e-15 * float(np.abs(rho).max())
            assert_allclose(out, _band_loop(cmap, rho), rtol=0, atol=tol)
    clear_caches()


@pytest.mark.parametrize(
    "kind, parameter",
    [(ChannelKind.ATTENUATOR, 0.6), (ChannelKind.AMPLIFIER, 1.8), (ChannelKind.CONTRAVARIANT, 1.6)],
)
@pytest.mark.parametrize("d_in, d_out", [(1, 1), (2, 5), (7, 12), (8, 8), (8, 3)])
def test_completed_bands_equal_a_fresh_stream(kind, parameter, d_in, d_out):
    spec = {
        ChannelKind.ATTENUATOR: attenuator,
        ChannelKind.AMPLIFIER: amplifier,
        ChannelKind.CONTRAVARIANT: contravariant_amplifier,
    }[kind](parameter)
    clear_caches()
    cmap = get_channel_map(spec, d_in, ChannelDims(d_out, d_out, d_out))
    bands = cmap.complete()
    fresh = list(_kraus_bands(kind, parameter, d_in, d_out))
    clear_caches()
    assert len(bands) == len(fresh) == min(d_in, d_out)
    assert all(np.array_equal(a, b) for a, b in zip(bands, fresh))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_trace_is_refused(value):
    with pytest.raises(DomainError):
        _checked_deficit(value)


def test_dilation_builds_only_the_blocks_it_reads():
    # each block comes from the same eigensolve whether built on request
    # or with every other block
    clear_caches()
    spec = amplifier(1.5, 0.2)
    rho = random_mixed(4, 4, substream(114, 0))
    d_out = default_dims(spec, 4).d_out
    d = d_out + 10
    _reference_dilation.cache_clear()
    apply_channel_dense(spec, rho, ChannelDims(d, d, d_out))
    read = _reference_dilation("squeezer", spec.gain, d, d)._built
    full = {blk.cls: blk for blk in squeezer_unitary(spec.gain, d, d).blocks}
    clear_caches()
    assert 0 < len(read) < len(full)
    assert all(np.array_equal(blk.matrix, full[cls].matrix) for cls, blk in read.items())


def test_transmissivity_one_is_identity():
    rng = substream(109, 0)
    rho = random_mixed(6, 6, rng)
    out = apply_channel(attenuator(1.0), rho)
    assert_allclose(out.matrix[:6, :6], rho.matrix, atol=1e-12)


def test_gain_one_is_identity():
    rng = substream(110, 0)
    rho = random_mixed(6, 6, rng)
    out = apply_channel(amplifier(1.0), rho)
    assert_allclose(out.matrix[:6, :6], rho.matrix, atol=1e-12)


def test_kind_enum_values():
    assert ChannelKind.ATTENUATOR.value == "attenuator"
    assert ChannelKind.AMPLIFIER.value == "amplifier"
    assert ChannelKind.ADDITIVE.value == "additive"
    assert ChannelKind.CONTRAVARIANT.value == "contravariant"


@pytest.mark.parametrize(
    "spec",
    [amplifier(2.0), attenuator(0.6, 0.4), additive_noise(0.7), contravariant_amplifier(1.6, 0.3)],
)
@pytest.mark.parametrize("d_in", [1, 2, 7])
def test_stacked_trace_and_frobenius_match_the_dense_outputs(spec, d_in):
    states = [random_mixed(d_in, d_in, substream(4, i)) for i in range(3)]
    states += [random_pure(d_in, substream(5, i)) for i in range(2)]
    traces, norms = output_trace_frobenius(spec, np.array([s.matrix for s in states]))
    outs = [apply_channel(spec, s).matrix for s in states]
    assert_allclose(traces, [np.trace(o).real for o in outs], rtol=1e-14)
    assert_allclose(norms, [np.linalg.norm(o) for o in outs], rtol=1e-14)


def test_stacked_trace_refuses_a_lossy_output():
    # at 3 output levels the amplifier loses most of an input's mass
    rho = np.array([random_mixed(3, 3, substream(1, 0)).matrix])
    with pytest.raises(TruncationError):
        output_trace_frobenius(amplifier(3.0), rho, ChannelDims(3, 3, 3))


def test_band_outputs_of_a_stack_are_the_per_matrix_products():
    cmap = get_channel_map(amplifier(2.0), 6)
    rhos = np.array([random_mixed(6, 6, substream(2, i)).matrix for i in range(4)])
    stacked = cmap.band_outputs(rhos)
    for rho, vout in zip(rhos, stacked):
        assert_allclose(vout, cmap.band_outputs(rho), rtol=1e-15, atol=1e-17)
    # a smaller input is zero-padded on its two matrix axes only
    assert_allclose(cmap.band_outputs(rhos[:, :4, :4]), cmap.band_outputs(
        np.pad(rhos[:, :4, :4], [(0, 0), (0, 2), (0, 2)])), atol=0)


@pytest.mark.parametrize(
    "spec",
    [attenuator(0.7), amplifier(2.0, 0.5), additive_noise(1.0), contravariant_amplifier(2.0, 0.5)],
)
@pytest.mark.parametrize("d_in, d_out", [(60, 240), (200, 300), (10, 600)])
def test_band_zero_bytes_bounds_what_a_map_build_allocates(spec, d_in, d_out):
    clear_caches()
    tracemalloc.start()
    try:
        get_channel_map(spec, d_in, ChannelDims(d_out, d_out, d_out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_caches()
    stages = {"attenuator": [(d_in, d_out)], "amplifier": [(d_in, d_in), (d_in, d_out)],
              "additive": [(d_in, d_in), (d_in, d_out)],
              "contravariant": [(d_in, d_out), (d_out, d_out), (d_out, d_out)]}[spec.kind.value]
    need = band_zero_bytes(d_in, stages)
    assert peak <= need <= 1.5 * peak


def test_oversized_band_zero_is_refused_before_it_allocates():
    # 20,000 input levels at transmissivity 0.5: band 0 alone is 3 GiB
    clear_caches()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="band 0 of the 20000 -> 20000 level map"):
            get_channel_map(attenuator(0.5), 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_caches()
    assert peak < 2**20
