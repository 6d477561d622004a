import numpy as np
import pytest

from sgmeasure.core import SampleStream, Spectrum, forward_dft
from sgmeasure.errors import (
    InsufficientRepetitions,
    InsufficientSignals,
    SegmentOutOfRange,
    StreamTooShort,
    ZeroBinExcitation,
)
from sgmeasure.safeguard import build_test_stream, default_threshold, safeguard_signal
from sgmeasure.separation import (
    TransferEstimate,
    divide_spectra,
    estimate_transfer,
    excitation_bins,
    fractional_octave_smooth,
    impulse_response,
    plan_segments,
    segment_block,
    segment_spectra,
    signal_dependent_response,
    smooth_one_sided,
    time_invariant_block,
    time_invariant_response,
)
from sgmeasure.simulate import SimulationConfig, simulate_chain, white_noise_period

FS = 44100


def safeguarded_excitation(length, seed):
    signal = white_noise_period(length, FS, seed=seed)
    safeguarded, _ = safeguard_signal(signal, default_threshold(forward_dft(signal)))
    return safeguarded, forward_dft(safeguarded)


# --- segment planning ---------------------------------------------------


def test_plan_middle_four_segments():
    L = 100
    plan = plan_segments(6 * L, L, count=4, skip=L)
    assert plan.starts == (L, 2 * L, 3 * L, 4 * L)


def test_plan_single_segment():
    plan = plan_segments(200, 100, count=1, skip=100)
    assert plan.starts == (100,)


def test_plan_capacity_bound():
    with pytest.raises(StreamTooShort):
        plan_segments(200, 100, count=2, skip=100)


def test_plan_rejects_overlap_via_type():
    from sgmeasure.separation import SegmentPlan

    with pytest.raises(ValueError):
        SegmentPlan(period_length=100, starts=(100, 150), skip_preamble=100)


# --- transfer estimation ------------------------------------------------


def test_identity_system_gives_unit_transfer():
    excitation, spectrum = safeguarded_excitation(256, seed=30)
    stream = build_test_stream(excitation, 3)
    for start in (256, 512):
        est = estimate_transfer(spectrum, stream, start)
        assert np.max(np.abs(est.h_bins - 1.0)) < 1e-10


def test_unaligned_start_differs_only_by_phase_ramp():
    # a segment offset of d within the period rotates bin k by 2*pi*k*d/L
    L = 256
    excitation, spectrum = safeguarded_excitation(L, seed=30)
    stream = build_test_stream(excitation, 3)
    d = 44
    est = estimate_transfer(spectrum, stream, L + d)
    ramp = np.exp(2j * np.pi * np.arange(L) * d / L)
    assert np.max(np.abs(est.h_bins - ramp)) < 1e-10
    assert np.max(np.abs(np.abs(est.h_bins) - 1.0)) < 1e-10


def test_pure_delay_gives_phase_ramp():
    excitation, spectrum = safeguarded_excitation(256, seed=31)
    stream = build_test_stream(excitation, 3)
    delay = 17
    delayed = SampleStream(np.roll(stream.samples, delay), FS)
    est = estimate_transfer(spectrum, delayed, 256)
    L = 256
    expected = np.exp(-2j * np.pi * np.arange(L) * delay / L)
    assert np.max(np.abs(est.h_bins - expected)) < 1e-9


def test_known_ir_chain_recovered_at_every_plan_start():
    from sgmeasure.core import circular_convolve

    L = 256
    excitation, spectrum = safeguarded_excitation(L, seed=32)
    rng = np.random.default_rng(33)
    h = rng.standard_normal(32) * 0.3
    period_out = circular_convolve(excitation, h)
    stream = build_test_stream(period_out, 4)
    expected = np.fft.fft(h, n=L)
    plan = plan_segments(len(stream), L, count=3, skip=L)
    for start in plan.starts:
        est = estimate_transfer(spectrum, stream, start)
        assert np.max(np.abs(est.h_bins - expected)) < 1e-8 * np.max(np.abs(expected))


def test_zero_bin_excitation_rejected():
    bins = np.fft.fft(np.ones(8))  # only DC nonzero
    spectrum = Spectrum(bins, FS, hermitian=True)
    stream = SampleStream(np.ones(16), FS)
    with pytest.raises(ZeroBinExcitation):
        estimate_transfer(spectrum, stream, 8)


def test_segment_out_of_range():
    _, spectrum = safeguarded_excitation(64, seed=34)
    stream = SampleStream(np.zeros(100) + 1.0, FS)
    with pytest.raises(SegmentOutOfRange):
        estimate_transfer(spectrum, stream, 40)


# --- batched block path -------------------------------------------------


# (4096, 20) spans two FFT chunks of segment_spectra
@pytest.mark.parametrize("L, m", [(256, 3), (1000, 5), (4096, 20)])
def test_block_path_matches_per_segment_path_exactly(L, m):
    excitation, spectrum = safeguarded_excitation(L, seed=36)
    stream = simulate_chain(
        build_test_stream(excitation, m + 1), SimulationConfig(snr_db=30.0, seed=37)
    )
    k = L // 2 + 1
    block = segment_block(stream.samples, L, m, L)
    assert block.shape == (m, L) and np.shares_memory(block, stream.samples)
    h = divide_spectra(segment_spectra(block, k), excitation_bins(spectrum, k))
    estimates = [estimate_transfer(spectrum, stream, s) for s in range(L, (m + 1) * L, L)]
    assert np.array_equal(h, np.vstack([e.h_bins[:k] for e in estimates]))
    mean, var = time_invariant_block(h)
    full_mean, full_var = time_invariant_response(estimates)
    assert np.array_equal(mean, full_mean[:k]) and np.array_equal(var, full_var[:k])


def test_segment_block_checks_capacity():
    with pytest.raises(StreamTooShort):
        segment_block(np.zeros(250), 100, count=2, skip=100)


def test_excitation_bins_rejects_zero_bin():
    spectrum = Spectrum(np.fft.fft(np.ones(8)), FS, hermitian=True)
    with pytest.raises(ZeroBinExcitation):
        excitation_bins(spectrum, 5)


def test_time_invariant_block_needs_two_rows():
    with pytest.raises(InsufficientRepetitions):
        time_invariant_block(np.ones((1, 4), dtype=complex))


def test_one_sided_smoothing_matches_full_length():
    rng = np.random.default_rng(48)
    for L in (2, 3, 128, 1001):
        p = np.abs(np.fft.fft(rng.standard_normal(L))) ** 2
        full = fractional_octave_smooth(p, 1 / 6)
        assert np.array_equal(smooth_one_sided(p[: L // 2 + 1], 1 / 6), full[: L // 2 + 1])


# --- averaging and variances --------------------------------------------


def make_estimate(h_bins, signal_id=0, start=0):
    return TransferEstimate(
        h_bins=np.asarray(h_bins, dtype=complex),
        sample_rate=FS,
        source_signal_id=signal_id,
        segment_start=start,
    )


def test_identical_estimates_have_zero_variance():
    h = np.array([1 + 1j, 2.0, -1j, 0.5])
    estimates = [make_estimate(h, start=i) for i in range(3)]
    h_sti, d_stv_sq = time_invariant_response(estimates)
    assert np.array_equal(h_sti, h)
    assert np.all(d_stv_sq == 0)


def test_opposite_estimates_hand_computed_variance():
    h = np.array([1 + 2j, 3.0, -1j, 0.25])
    h_sti, d_stv_sq = time_invariant_response([make_estimate(h), make_estimate(-h)])
    assert np.max(np.abs(h_sti)) < 1e-15
    assert np.max(np.abs(d_stv_sq - 2 * np.abs(h) ** 2)) < 1e-12


def test_noiseless_chain_variance_is_negligible():
    excitation, spectrum = safeguarded_excitation(256, seed=35)
    stream = build_test_stream(excitation, 5)
    plan = plan_segments(len(stream), 256, count=4, skip=256)
    estimates = [estimate_transfer(spectrum, stream, s) for s in plan.starts]
    h_sti, d_stv_sq = time_invariant_response(estimates)
    assert np.max(d_stv_sq) < 1e-16 * np.max(np.abs(h_sti) ** 2)


def test_insufficient_repetitions():
    with pytest.raises(InsufficientRepetitions):
        time_invariant_response([make_estimate(np.ones(4))])


def test_mixed_signal_ids_rejected():
    with pytest.raises(ValueError):
        time_invariant_response(
            [make_estimate(np.ones(4), signal_id=0), make_estimate(np.ones(4), signal_id=1)]
        )


def test_identical_signals_have_zero_signal_dependence():
    h = np.array([1 + 1j, 2.0, -1j, 0.5])
    h_slti, h_ssdr_sq = signal_dependent_response([h, h, h])
    assert np.array_equal(h_slti, h)
    assert np.all(h_ssdr_sq == 0)


def test_linear_chain_has_no_signal_dependence():
    per_signal = []
    for p in range(4):
        excitation, spectrum = safeguarded_excitation(256, seed=40 + p)
        stream = build_test_stream(excitation, 5)
        plan = plan_segments(len(stream), 256, count=4, skip=256)
        estimates = [
            estimate_transfer(spectrum, stream, s, signal_id=p) for s in plan.starts
        ]
        h_sti, _ = time_invariant_response(estimates)
        per_signal.append(h_sti)
    h_slti, h_ssdr_sq = signal_dependent_response(per_signal)
    assert np.max(h_ssdr_sq) < 1e-16 * np.max(np.abs(h_slti) ** 2)
    # the LTI estimate equals the identity single-signal estimate
    assert np.max(np.abs(h_slti - 1.0)) < 1e-8


def test_insufficient_signals():
    with pytest.raises(InsufficientSignals):
        signal_dependent_response([np.ones(4)])


def test_averaging_is_linear():
    rng = np.random.default_rng(41)
    hs = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(3)]
    scaled_then_avg = signal_dependent_response([2.0 * h for h in hs])[0]
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
    from sgmeasure.simulate import SimulationConfig, simulate_chain

    excitation, spectrum = safeguarded_excitation(4096, seed=44)
    stream = build_test_stream(excitation, 2)
    recorded = simulate_chain(stream, SimulationConfig(snr_db=40.0, seed=45))
    est = estimate_transfer(spectrum, recorded, 4096)
    power = np.abs(est.h_bins) ** 2
    half = slice(1, 2049)
    raw_sd = np.std(10 * np.log10(power[half]))
    smooth_sd = np.std(10 * np.log10(fractional_octave_smooth(power)[half]))
    assert smooth_sd < raw_sd


# --- impulse response ------------------------------------------------------


def test_all_ones_transfer_is_unit_impulse():
    ir = impulse_response(make_estimate(np.ones(64)))
    expected = np.zeros(64)
    expected[0] = 1.0
    assert np.max(np.abs(ir - expected)) < 1e-12


def test_phase_ramp_transfer_is_delayed_impulse():
    L, d = 64, 9
    bins = np.exp(-2j * np.pi * np.arange(L) * d / L)
    ir = impulse_response(make_estimate(bins))
    assert ir[d] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(np.delete(ir, d))) < 1e-12


def test_known_ir_recovered_from_simulated_chain():
    from sgmeasure.core import circular_convolve

    L = 8192
    excitation, spectrum = safeguarded_excitation(L, seed=46)
    rng = np.random.default_rng(47)
    h = rng.standard_normal(512) * np.exp(-np.arange(512) / 80.0)
    period_out = circular_convolve(excitation, h)
    stream = build_test_stream(period_out, 3)
    est = estimate_transfer(spectrum, stream, L)
    recovered = impulse_response(est)
    assert np.max(np.abs(recovered[:512] - h)) < 1e-7
    assert np.max(np.abs(recovered[512:])) < 1e-7
