import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmeasure.errors import (
    InsufficientRepetitions,
    InsufficientSignals,
    LevelOutOfRange,
    StreamTooShort,
    ZeroBinExcitation,
)
from sgmeasure.safeguard import safeguard_period
from sgmeasure.separation import (
    estimate_transfer,
    excitation_bins,
    segment_block,
    separate_signals,
    smooth_one_sided,
)
from sgmeasure.session import analyze_session, load_manifest
from sgmeasure.simulate import simulate_chain, white_noise_period
from sgmeasure.wavio import write_audio

from oracles import (
    circular_convolve,
    fractional_octave_smooth,
    separate_stacked,
    time_invariant_response,
)

FS = 44100


def safeguarded_excitation(length, seed):
    """A safeguarded white-noise period and its L//2 + 1 excitation bins."""
    safeguarded, _ = safeguard_period(white_noise_period(length, seed=seed), 0.0)
    return safeguarded, excitation_bins(safeguarded)


def estimate_at(x_bins, samples, L, start):
    """The transfer estimate of the one length-L segment starting at ``start``."""
    return estimate_transfer(segment_block(samples, L, 1, start), x_bins)[0]


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
    stream = np.tile(excitation, 3)
    h = estimate_transfer(segment_block(stream, 256, 2, 256), x_bins)
    assert h.shape == (2, 129)
    assert np.max(np.abs(h - 1.0)) < 1e-10


def test_unaligned_start_differs_only_by_phase_ramp():
    # a segment offset of d within the period rotates bin k by 2*pi*k*d/L
    L = 256
    excitation, x_bins = safeguarded_excitation(L, seed=30)
    stream = np.tile(excitation, 3)
    d = 44
    h = estimate_at(x_bins, stream, L, L + d)
    ramp = np.exp(2j * np.pi * np.arange(L // 2 + 1) * d / L)
    assert np.max(np.abs(h - ramp)) < 1e-10
    assert np.max(np.abs(np.abs(h) - 1.0)) < 1e-10


def test_pure_delay_gives_phase_ramp():
    excitation, x_bins = safeguarded_excitation(256, seed=31)
    stream = np.tile(excitation, 3)
    delay = 17
    h = estimate_at(x_bins, np.roll(stream, delay), 256, 256)
    L = 256
    expected = np.exp(-2j * np.pi * np.arange(L // 2 + 1) * delay / L)
    assert np.max(np.abs(h - expected)) < 1e-9


def test_known_ir_chain_recovered_at_every_plan_start():
    L = 256
    excitation, x_bins = safeguarded_excitation(L, seed=32)
    rng = np.random.default_rng(33)
    h = rng.standard_normal(32) * 0.3
    period_out = circular_convolve(excitation, h)
    stream = np.tile(period_out, 4)
    expected = np.fft.rfft(h, n=L)
    for est in estimate_transfer(segment_block(stream, L, 3, L), x_bins):
        assert np.max(np.abs(est - expected)) < 1e-8 * np.max(np.abs(expected))


def test_zero_bin_excitation_rejected():
    with pytest.raises(ZeroBinExcitation):  # a constant period: only DC nonzero
        estimate_transfer(segment_block(np.ones(16), 8, 1, 8), excitation_bins(np.ones(8)))


def test_excitation_bins_must_match_the_segment_length():
    _, x_bins = safeguarded_excitation(64, seed=30)
    with pytest.raises(ValueError, match="33 excitation bins for segments of length 63"):
        estimate_transfer(np.ones((2, 63)), x_bins)
    with pytest.raises(ValueError, match="excitation bins"):
        estimate_transfer(np.ones((2, 64)), x_bins[:1])


def test_segment_out_of_range():
    with pytest.raises(StreamTooShort):
        segment_block(np.zeros(100) + 1.0, 64, count=1, skip=40)


def test_non_finite_estimate_rejected():
    """A non-finite estimate is refused from its mean over the rows, a check of K bins.

    The mean is non-finite when a row holds a non-finite bin or when the
    finite rows' sum overflows; a WAV file gives neither (float32 samples
    bound |Y/X| far below 1e308), so only the library reaches this check.
    """
    block = np.full((2, 8), 1e300)  # bin 0 of each segment is 8e300
    tiny = np.full(5, 1e-300 + 0j)
    with np.errstate(over="ignore"):
        with pytest.raises(LevelOutOfRange, match="non-finite"):
            estimate_transfer(block, tiny)
    finite = np.ones((3, 4), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.nan)):
            rows = finite.copy()
            rows[1, 2] = bad
            with pytest.raises(LevelOutOfRange, match="non-finite"):
                separate_signals([finite.copy(), rows])
        overflowing = np.full((2, 4), 1e308 + 0j)  # finite rows whose sum is not
        with pytest.raises(LevelOutOfRange, match="non-finite"):
            separate_signals([overflowing])


# --- batched block path -------------------------------------------------


def reference_estimates(samples, x, L, m, skip):
    """Per-segment one-sided FFT / X, then mean and variance summed in a Python loop."""
    k = L // 2 + 1
    rows = [np.fft.rfft(samples[s : s + L]) / x[:k] for s in range(skip, skip + m * L, L)]
    return (np.vstack(rows), *time_invariant_response(rows))


def assert_block_path_matches_reference(samples, x, L, m, skip):
    block = segment_block(samples, L, m, skip)
    assert block.shape == (m, L) and np.shares_memory(block, samples)
    h = estimate_transfer(block, x[: L // 2 + 1])
    ref_h, ref_mean, ref_var = reference_estimates(samples, x, L, m, skip)
    assert np.array_equal(h, ref_h)
    (mean,), (var,), _, _ = separate_signals([h])  # reduced in place
    assert np.array_equal(mean, ref_mean) and np.array_equal(var, ref_var)


# (4096, 20): twenty of the longest rows the property below draws, in one transform
@pytest.mark.parametrize("L, m", [(256, 3), (1000, 5), (4096, 20)])
def test_block_path_matches_per_segment_path_exactly(L, m):
    excitation, x_bins = safeguarded_excitation(L, seed=36)
    stream = simulate_chain(np.tile(excitation, m + 1), snr_db=30.0, seed=37)
    assert_block_path_matches_reference(stream, x_bins, L, m, L)


@st.composite
def block_layouts(draw):
    """(L, M, skip, stream length), the stream sometimes a little too short."""
    L = draw(st.integers(2, 4096))
    m = draw(st.integers(2, 40))
    skip = draw(st.integers(0, 2 * L))
    n = skip + m * L + draw(st.integers(-L, L))
    return L, m, skip, n


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(layout=block_layouts(), seed=st.integers(0, 2**32 - 1))
def test_block_path_property(layout, seed):
    L, m, skip, n = layout
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(n)
    x = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    if skip + m * L > n:
        with pytest.raises(StreamTooShort):
            segment_block(samples, L, m, skip)
    else:
        assert_block_path_matches_reference(samples, x, L, m, skip)


def test_time_invariant_block_holds_one_estimate():
    """Estimating and reducing a (64, 4096) block makes no array of H's size beside H."""
    rng = np.random.default_rng(50)
    block = rng.standard_normal((64, 4096))
    x = np.fft.rfft(rng.standard_normal(4096))
    h_bytes = 64 * 2049 * 16
    tracemalloc.start()
    try:
        separate_signals([estimate_transfer(block, x)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rfft output is 1.06x H's bytes; a quotient or deviation copy adds 1x
    assert peak <= 1.2 * h_bytes


def test_analyze_holds_one_recording_at_a_time(tmp_path):
    """A P = 4 session with a background never holds two recordings at once.

    Besides the P per-signal results and excitation bins, which the
    P-axis statistics and the background level need, the peak is one
    recording's float64 samples with the float32 file bytes decoded into
    them, and one (M, K) estimate.  A second recording alive adds a
    recording's bytes, more than the half-recording margin; so do the
    (P, K) stacks kept while the background is read.
    """
    L, M, P = 16384, 8, 4
    K = L // 2 + 1
    rng = np.random.default_rng(52)
    entries = []
    for p in range(P):
        period = rng.standard_normal(L) * 0.1
        recording = np.tile(period, M + 1) + rng.standard_normal((M + 1) * L) * 1e-3
        write_audio(tmp_path / f"exc{p}.wav", period, FS)
        write_audio(tmp_path / f"rec{p}.wav", recording, FS)
        entries.append({"excitation": f"exc{p}.wav", "recording": f"rec{p}.wav"})
    write_audio(tmp_path / "bg.wav", rng.standard_normal((M + 1) * L) * 1e-3, FS)
    (tmp_path / "session.json").write_text(json.dumps({
        "sample_rate": FS, "period_length": L, "segments_per_recording": M,
        "entries": entries, "background_recording": "bg.wav",
    }))
    manifest = load_manifest(tmp_path / "session.json")
    recording_bytes = (M + 1) * L * 8
    estimate_bytes = M * K * 16
    per_signal_bytes = P * K * (16 + 16 + 8)  # x_bins, h_sti and d_stv_sq rows
    tracemalloc.start()
    try:
        analyze_session(manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < per_signal_bytes + 1.5 * recording_bytes + estimate_bytes


def test_statistics_leave_their_input_unchanged():
    """The reduction over P leaves its input, the returned per-signal means, unchanged."""
    rng = np.random.default_rng(51)
    h = rng.standard_normal((5, 33)) + 1j * rng.standard_normal((5, 33))
    h_sti, _, _, _ = separate_signals([np.vstack([row, row]) for row in h])
    assert h_sti.tobytes() == h.tobytes()  # two equal rows reduce over M to that row


def test_segment_block_checks_capacity():
    with pytest.raises(StreamTooShort):
        segment_block(np.zeros(250), 100, count=2, skip=100)


def test_excitation_bins_rejects_zero_bin():
    with pytest.raises(ZeroBinExcitation):
        excitation_bins(np.ones(8))


# Integer periods whose spectrum is exactly zero at the listed bins: the DFT
# at these bins only adds and subtracts samples, so no rounding hides the zero.
@pytest.mark.parametrize("period, zeros", [
    ([3.0, 1.0, -2.0, 0.0, 1.0, -1.0, 0.0, -2.0], [0]),  # sum 0
    ([3.0, 1.0, 2.0, 0.0, 1.0, 4.0, 0.0, 1.0], [4]),  # alternating sum 0
    ([1.0, 2.0, 3.0, 1.0, 2.0, 0.0, 0.0, 1.0], [2, 6]),  # X[2] = conj(X[6]) = 0
], ids=["dc", "nyquist", "pair 2, 6"])
def test_zero_bin_excitation_fires_at_dc_nyquist_and_pairs(period, zeros):
    period = np.array(period)
    full = np.fft.fft(period)
    assert np.flatnonzero(np.abs(full) < 1e-12).tolist() == zeros
    with pytest.raises(ZeroBinExcitation):
        excitation_bins(period)
    period[zeros[0] + 1] += 0.5  # move the zero away: the same check passes
    assert excitation_bins(period).shape == (5,)


def test_one_sided_smoothing_matches_full_length():
    rng = np.random.default_rng(48)
    for L in (2, 3, 128, 1001):
        p = np.abs(np.fft.fft(rng.standard_normal(L))) ** 2
        full = fractional_octave_smooth(p, 1 / 6)
        assert np.array_equal(smooth_one_sided(p[: L // 2 + 1], 1 / 6), full[: L // 2 + 1])


# --- averaging and variances --------------------------------------------
# The hand-computed cases check the row-by-row oracle the block path is held to.


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
    stream = np.tile(excitation, 5)
    (h_sti,), (d_stv_sq,), _, _ = separate_signals(
        [estimate_transfer(segment_block(stream, 256, 4, 256), x_bins)]
    )
    assert np.max(d_stv_sq) < 1e-16 * np.max(np.abs(h_sti) ** 2)


def test_insufficient_repetitions():
    with pytest.raises(InsufficientRepetitions):
        separate_signals([estimate_transfer(np.ones((1, 4)), np.ones(3, dtype=complex))])


def test_time_invariant_block_needs_two_rows():
    # A block of one segment gives a single (1, L) row of estimates: no variance.
    excitation, x_bins = safeguarded_excitation(64, seed=36)
    stream = np.tile(excitation, 3)
    block = segment_block(stream, 64, 1, 64)
    assert estimate_transfer(block, x_bins).shape == (1, 33)
    with pytest.raises(InsufficientRepetitions):
        separate_signals([estimate_transfer(block, x_bins)])


def test_time_invariant_block_of_one_segment_is_insufficient():
    _, x_bins = safeguarded_excitation(64, seed=36)
    with pytest.raises(InsufficientRepetitions):
        separate_signals([estimate_transfer(np.ones((1, 64)), x_bins)])


@st.composite
def signal_blocks(draw):
    """P (block, x_bins) pairs of random (M, L) blocks and nonzero excitation bins."""
    p = draw(st.integers(1, 5))
    m = draw(st.integers(2, 6))
    L = draw(st.integers(2, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = L // 2 + 1
    return [
        (rng.standard_normal((m, L)), rng.standard_normal(k) + 1j * rng.standard_normal(k) + 0.1)
        for _ in range(p)
    ]


def assert_same_separation(a, b):
    for x, y in zip(a[:3], b[:3]):
        assert np.array_equal(x, y)
    assert (a[3] is None and b[3] is None) or np.array_equal(a[3], b[3])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(pairs=signal_blocks())
def test_separation_core_streamed_listed_and_stacked_agree(pairs):
    before = [(block.tobytes(), x.tobytes()) for block, x in pairs]
    streamed = separate_signals(estimate_transfer(block, x) for block, x in pairs)
    listed = separate_signals([estimate_transfer(block, x) for block, x in pairs])
    stacked = separate_stacked(pairs)
    assert_same_separation(streamed, listed)
    assert_same_separation(streamed, stacked)
    assert [(block.tobytes(), x.tobytes()) for block, x in pairs] == before
    h_sti, d_stv_sq, h_slti, h_ssdr_sq = streamed
    assert h_sti.shape == d_stv_sq.shape == (len(pairs), pairs[0][1].size)
    if len(pairs) == 1:
        assert h_ssdr_sq is None and np.array_equal(h_slti, h_sti[0])
    else:
        assert h_ssdr_sq.shape == h_slti.shape == (pairs[0][1].size,)


def test_separation_core_needs_a_signal():
    with pytest.raises(InsufficientSignals):
        separate_signals(iter([]))


def test_identical_signals_have_zero_signal_dependence():
    h = np.array([1 + 1j, 2.0, -1j, 0.5])
    _, _, h_slti, h_ssdr_sq = separate_signals([np.vstack([h, h]) for _ in range(3)])
    assert np.array_equal(h_slti, h)
    assert np.all(h_ssdr_sq == 0)


def test_linear_chain_has_no_signal_dependence():
    estimates = []
    for p in range(4):
        excitation, x_bins = safeguarded_excitation(256, seed=40 + p)
        stream = np.tile(excitation, 5)
        estimates.append(estimate_transfer(segment_block(stream, 256, 4, 256), x_bins))
    _, _, h_slti, h_ssdr_sq = separate_signals(estimates)
    assert np.max(h_ssdr_sq) < 1e-16 * np.max(np.abs(h_slti) ** 2)
    # the LTI estimate equals the identity single-signal estimate
    assert np.max(np.abs(h_slti - 1.0)) < 1e-8


def test_averaging_is_linear():
    rng = np.random.default_rng(41)
    hs = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    scaled_then_avg = separate_signals([np.vstack([h, h]) for h in 2.0 * hs])[2]
    avg_then_scaled = 2.0 * separate_signals([np.vstack([h, h]) for h in hs])[2]
    assert np.array_equal(scaled_then_avg, avg_then_scaled)


# --- smoothing ------------------------------------------------------------


def test_smoothing_of_constant_is_identity():
    p = np.ones(128)
    out = fractional_octave_smooth(p)
    assert np.allclose(out, 1.0, atol=1e-14)


@pytest.mark.parametrize("fraction", [200.0, 3000.0])
def test_smoothing_wider_than_the_band_averages_every_bin(fraction):
    """A factor beyond int64, or beyond float64, clamps to the whole band."""
    p = np.arange(1.0, 10.0)
    out = smooth_one_sided(p, fraction)
    assert out[0] == 1.0 and np.all(out[1:] == np.mean(p[1:]))


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
    stream = np.tile(excitation, 2)
    recorded = simulate_chain(stream, snr_db=40.0, seed=45)
    power = np.abs(estimate_at(x_bins, recorded, 4096, 4096)) ** 2
    half = slice(1, 2049)
    raw_sd = np.std(10 * np.log10(power[half]))
    smooth_sd = np.std(10 * np.log10(smooth_one_sided(power, 1 / 3)[half]))
    assert smooth_sd < raw_sd


# --- impulse response ------------------------------------------------------


def test_known_ir_recovered_from_simulated_chain():
    L = 8192
    excitation, x_bins = safeguarded_excitation(L, seed=46)
    rng = np.random.default_rng(47)
    h = rng.standard_normal(512) * np.exp(-np.arange(512) / 80.0)
    period_out = circular_convolve(excitation, h)
    stream = np.tile(period_out, 3)
    recovered = np.fft.irfft(estimate_at(x_bins, stream, L, L), n=L)
    assert np.max(np.abs(recovered[:512] - h)) < 1e-7
    assert np.max(np.abs(recovered[512:])) < 1e-7
