import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmeasure.core import SampleStream, Spectrum, forward_dft
from sgmeasure.errors import (
    InsufficientRepetitions,
    InsufficientSignals,
    StreamTooShort,
    ZeroBinExcitation,
)
from sgmeasure.safeguard import build_test_stream, default_threshold, safeguard_signal
from sgmeasure.separation import (
    divide_spectra,
    estimate_transfer,
    excitation_bins,
    fractional_octave_smooth,
    impulse_response,
    segment_block,
    signal_dependent_response,
    smooth_one_sided,
    time_invariant_response,
)
from sgmeasure.simulate import SimulationConfig, simulate_chain, white_noise_period

FS = 44100


def safeguarded_excitation(length, seed):
    """A safeguarded white-noise period and its L excitation bins."""
    signal = white_noise_period(length, FS, seed=seed)
    safeguarded, _ = safeguard_signal(signal, default_threshold(forward_dft(signal)))
    return safeguarded, excitation_bins(forward_dft(safeguarded))


def estimate_at(x_bins, samples, start):
    """The full-length transfer estimate of the one segment starting at ``start``."""
    return estimate_transfer(segment_block(samples, x_bins.size, 1, start), x_bins)[0]


# --- segment planning ---------------------------------------------------


def test_plan_middle_four_segments():
    L = 100
    samples = np.arange(6.0 * L)
    block = segment_block(samples, L, count=4, skip=L)
    assert block.shape == (4, L) and np.shares_memory(block, samples)
    assert block[:, 0].tolist() == [L, 2 * L, 3 * L, 4 * L]


def test_plan_single_segment():
    block = segment_block(np.arange(200.0), 100, count=1, skip=100)
    assert block.shape == (1, 100) and block[0, 0] == 100


def test_plan_capacity_bound():
    with pytest.raises(StreamTooShort):
        segment_block(np.zeros(200), 100, count=2, skip=100)


def test_plan_rejects_bad_count_and_skip():
    with pytest.raises(ValueError, match="count"):
        segment_block(np.zeros(400), 100, count=0, skip=100)
    with pytest.raises(ValueError, match="skip"):
        segment_block(np.zeros(400), 100, count=2, skip=-1)


# --- transfer estimation ------------------------------------------------


def test_identity_system_gives_unit_transfer():
    excitation, x_bins = safeguarded_excitation(256, seed=30)
    stream = build_test_stream(excitation, 3)
    h = estimate_transfer(segment_block(stream.samples, 256, 2, 256), x_bins)
    assert h.shape == (2, 256)
    assert np.max(np.abs(h - 1.0)) < 1e-10


def test_unaligned_start_differs_only_by_phase_ramp():
    # a segment offset of d within the period rotates bin k by 2*pi*k*d/L
    L = 256
    excitation, x_bins = safeguarded_excitation(L, seed=30)
    stream = build_test_stream(excitation, 3)
    d = 44
    h = estimate_at(x_bins, stream.samples, L + d)
    ramp = np.exp(2j * np.pi * np.arange(L) * d / L)
    assert np.max(np.abs(h - ramp)) < 1e-10
    assert np.max(np.abs(np.abs(h) - 1.0)) < 1e-10


def test_pure_delay_gives_phase_ramp():
    excitation, x_bins = safeguarded_excitation(256, seed=31)
    stream = build_test_stream(excitation, 3)
    delay = 17
    h = estimate_at(x_bins, np.roll(stream.samples, delay), 256)
    L = 256
    expected = np.exp(-2j * np.pi * np.arange(L) * delay / L)
    assert np.max(np.abs(h - expected)) < 1e-9


def test_known_ir_chain_recovered_at_every_plan_start():
    from sgmeasure.core import circular_convolve

    L = 256
    excitation, x_bins = safeguarded_excitation(L, seed=32)
    rng = np.random.default_rng(33)
    h = rng.standard_normal(32) * 0.3
    period_out = circular_convolve(excitation, h)
    stream = build_test_stream(period_out, 4)
    expected = np.fft.fft(h, n=L)
    for est in estimate_transfer(segment_block(stream.samples, L, 3, L), x_bins):
        assert np.max(np.abs(est - expected)) < 1e-8 * np.max(np.abs(expected))


def test_zero_bin_excitation_rejected():
    bins = np.fft.fft(np.ones(8))  # only DC nonzero
    spectrum = Spectrum(bins, FS, hermitian=True)
    with pytest.raises(ZeroBinExcitation):
        estimate_transfer(segment_block(np.ones(16), 8, 1, 8), excitation_bins(spectrum))


def test_segment_out_of_range():
    with pytest.raises(StreamTooShort):
        segment_block(np.zeros(100) + 1.0, 64, count=1, skip=40)


def test_non_finite_estimate_rejected():
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        divide_spectra(np.array([[1e300 + 0j, 1.0]]), np.array([1e-300 + 0j, 1.0]))


# --- batched block path -------------------------------------------------


def reference_estimates(samples, x, L, m, skip, k):
    """Per-segment FFT / X, then mean and variance summed in a Python loop."""
    rows = [np.fft.fft(samples[s : s + L])[:k] / x[:k] for s in range(skip, skip + m * L, L)]
    total = 0
    for row in rows:
        total = total + row
    mean = total / m
    spread = 0
    for row in rows:
        d = row - mean
        spread = spread + (d.real**2 + d.imag**2)
    return np.vstack(rows), mean, spread / (m - 1)


def assert_block_path_matches_reference(samples, x, L, m, skip, k):
    block = segment_block(samples, L, m, skip)
    assert block.shape == (m, L) and np.shares_memory(block, samples)
    h = estimate_transfer(block, x[:k])
    mean, var = time_invariant_response(h)
    ref_h, ref_mean, ref_var = reference_estimates(samples, x, L, m, skip, k)
    assert np.array_equal(h, ref_h)
    assert np.array_equal(mean, ref_mean) and np.array_equal(var, ref_var)


# (4096, 20) spans two FFT chunks of segment_spectra
@pytest.mark.parametrize("L, m", [(256, 3), (1000, 5), (4096, 20)])
def test_block_path_matches_per_segment_path_exactly(L, m):
    excitation, x_bins = safeguarded_excitation(L, seed=36)
    stream = simulate_chain(
        build_test_stream(excitation, m + 1), SimulationConfig(snr_db=30.0, seed=37)
    )
    assert_block_path_matches_reference(stream.samples, x_bins, L, m, L, L // 2 + 1)


@st.composite
def block_layouts(draw):
    """(L, M, skip, stream length, K), the stream sometimes a little too short."""
    L = draw(st.integers(2, 4096))
    m = draw(st.integers(2, 40))  # M > 65536 // L spans FFT chunks
    skip = draw(st.integers(0, 2 * L))
    n = skip + m * L + draw(st.integers(-L, L))
    k = draw(st.integers(1, L))
    return L, m, skip, n, k


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(layout=block_layouts(), seed=st.integers(0, 2**32 - 1))
def test_block_path_property(layout, seed):
    L, m, skip, n, k = layout
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(n)
    x = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    if skip + m * L > n:
        with pytest.raises(StreamTooShort):
            segment_block(samples, L, m, skip)
    else:
        assert_block_path_matches_reference(samples, x, L, m, skip, k)


def test_segment_block_checks_capacity():
    with pytest.raises(StreamTooShort):
        segment_block(np.zeros(250), 100, count=2, skip=100)


def test_excitation_bins_rejects_zero_bin():
    spectrum = Spectrum(np.fft.fft(np.ones(8)), FS, hermitian=True)
    with pytest.raises(ZeroBinExcitation):
        excitation_bins(spectrum, 5)


def test_one_sided_smoothing_matches_full_length():
    rng = np.random.default_rng(48)
    for L in (2, 3, 128, 1001):
        p = np.abs(np.fft.fft(rng.standard_normal(L))) ** 2
        full = fractional_octave_smooth(p, 1 / 6)
        assert np.array_equal(smooth_one_sided(p[: L // 2 + 1], 1 / 6), full[: L // 2 + 1])


# --- averaging and variances --------------------------------------------


def test_identical_estimates_have_zero_variance():
    h = np.array([1 + 1j, 2.0, -1j, 0.5])
    h_sti, d_stv_sq = time_invariant_response(np.vstack([h, h, h]))
    assert np.array_equal(h_sti, h)
    assert np.all(d_stv_sq == 0)


def test_opposite_estimates_hand_computed_variance():
    h = np.array([1 + 2j, 3.0, -1j, 0.25])
    h_sti, d_stv_sq = time_invariant_response(np.vstack([h, -h]))
    assert np.max(np.abs(h_sti)) < 1e-15
    assert np.max(np.abs(d_stv_sq - 2 * np.abs(h) ** 2)) < 1e-12


def test_noiseless_chain_variance_is_negligible():
    excitation, x_bins = safeguarded_excitation(256, seed=35)
    stream = build_test_stream(excitation, 5)
    h = estimate_transfer(segment_block(stream.samples, 256, 4, 256), x_bins)
    h_sti, d_stv_sq = time_invariant_response(h)
    assert np.max(d_stv_sq) < 1e-16 * np.max(np.abs(h_sti) ** 2)


def test_insufficient_repetitions():
    with pytest.raises(InsufficientRepetitions):
        time_invariant_response(np.ones((1, 4), dtype=complex))


def test_time_invariant_block_needs_two_rows():
    # A block of one segment gives a single (1, L) row of estimates: no variance.
    excitation, x_bins = safeguarded_excitation(64, seed=36)
    stream = build_test_stream(excitation, 3)
    h = estimate_transfer(segment_block(stream.samples, 64, 1, 64), x_bins)
    assert h.shape == (1, 64)
    with pytest.raises(InsufficientRepetitions):
        time_invariant_response(h)


def test_statistics_need_one_estimate_per_row():
    with pytest.raises(ValueError, match="2-D"):
        time_invariant_response(np.ones(4, dtype=complex))
    with pytest.raises(ValueError, match="2-D"):
        signal_dependent_response(np.ones(4, dtype=complex))


def test_identical_signals_have_zero_signal_dependence():
    h = np.array([1 + 1j, 2.0, -1j, 0.5])
    h_slti, h_ssdr_sq = signal_dependent_response(np.vstack([h, h, h]))
    assert np.array_equal(h_slti, h)
    assert np.all(h_ssdr_sq == 0)


def test_linear_chain_has_no_signal_dependence():
    per_signal = []
    for p in range(4):
        excitation, x_bins = safeguarded_excitation(256, seed=40 + p)
        stream = build_test_stream(excitation, 5)
        h = estimate_transfer(segment_block(stream.samples, 256, 4, 256), x_bins)
        h_sti, _ = time_invariant_response(h)
        per_signal.append(h_sti)
    h_slti, h_ssdr_sq = signal_dependent_response(np.vstack(per_signal))
    assert np.max(h_ssdr_sq) < 1e-16 * np.max(np.abs(h_slti) ** 2)
    # the LTI estimate equals the identity single-signal estimate
    assert np.max(np.abs(h_slti - 1.0)) < 1e-8


def test_insufficient_signals():
    with pytest.raises(InsufficientSignals):
        signal_dependent_response(np.ones((1, 4), dtype=complex))


def test_averaging_is_linear():
    rng = np.random.default_rng(41)
    hs = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    scaled_then_avg = signal_dependent_response(2.0 * hs)[0]
    avg_then_scaled = 2.0 * signal_dependent_response(hs)[0]
    assert np.array_equal(scaled_then_avg, avg_then_scaled)


# --- smoothing ------------------------------------------------------------


def test_smoothing_of_constant_is_identity():
    p = np.ones(128)
    out = fractional_octave_smooth(p)
    assert np.allclose(out, 1.0, atol=1e-14)


def test_smoothing_impulse_bin_bounded_mean():
    p = np.zeros(256)
    # single spectral line: mirrored pair at +-k0
    k0 = 40
    p[k0] = 5.0
    p[256 - k0] = 5.0
    out = fractional_octave_smooth(p)
    assert np.all(out <= 5.0 + 1e-12)
    assert np.all(out >= 0.0)
    assert out[k0] > 0.0
    window = np.nonzero(out[: 129])[0]
    lo, hi = window.min(), window.max()
    assert lo >= int(k0 * 2 ** (-1 / 6)) - 1
    assert hi <= int(k0 * 2 ** (1 / 6)) + 1


def test_smoothing_preserves_symmetry_and_dc():
    rng = np.random.default_rng(42)
    p = np.abs(np.fft.fft(rng.standard_normal(128))) ** 2
    out = fractional_octave_smooth(p)
    assert out[0] == p[0]
    for k in range(1, 64):
        assert out[k] == out[128 - k]


def test_smoothing_preserves_interior_mean():
    rng = np.random.default_rng(43)
    p = np.abs(np.fft.fft(rng.standard_normal(4096))) ** 2
    out = fractional_octave_smooth(p)
    interior = slice(100, 1800)  # away from band edges
    assert np.mean(out[interior]) == pytest.approx(np.mean(p[interior]), rel=0.01)


def test_smoothing_reduces_gain_deviation():
    # noisy gain estimate: smoothed spread strictly below unsmoothed
    excitation, x_bins = safeguarded_excitation(4096, seed=44)
    stream = build_test_stream(excitation, 2)
    recorded = simulate_chain(stream, SimulationConfig(snr_db=40.0, seed=45))
    power = np.abs(estimate_at(x_bins, recorded.samples, 4096)) ** 2
    half = slice(1, 2049)
    raw_sd = np.std(10 * np.log10(power[half]))
    smooth_sd = np.std(10 * np.log10(fractional_octave_smooth(power)[half]))
    assert smooth_sd < raw_sd


# --- impulse response ------------------------------------------------------


def test_all_ones_transfer_is_unit_impulse():
    ir = impulse_response(np.ones(64, dtype=complex))
    expected = np.zeros(64)
    expected[0] = 1.0
    assert np.max(np.abs(ir - expected)) < 1e-12


def test_phase_ramp_transfer_is_delayed_impulse():
    L, d = 64, 9
    bins = np.exp(-2j * np.pi * np.arange(L) * d / L)
    ir = impulse_response(bins)
    assert ir[d] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(np.delete(ir, d))) < 1e-12


def test_known_ir_recovered_from_simulated_chain():
    from sgmeasure.core import circular_convolve

    L = 8192
    excitation, x_bins = safeguarded_excitation(L, seed=46)
    rng = np.random.default_rng(47)
    h = rng.standard_normal(512) * np.exp(-np.arange(512) / 80.0)
    period_out = circular_convolve(excitation, h)
    stream = build_test_stream(period_out, 3)
    recovered = impulse_response(estimate_at(x_bins, stream.samples, L))
    assert np.max(np.abs(recovered[:512] - h)) < 1e-7
    assert np.max(np.abs(recovered[512:])) < 1e-7
