import types

import numpy as np
import pytest

import sgmeasure
from sgmeasure.core import (
    PeriodicSignal,
    SampleStream,
    Spectrum,
    forward_dft,
    forward_dft_raw,
    hermitian_sum,
    inverse_dft,
)
from sgmeasure.errors import LevelOutOfRange
from sgmeasure.wavio import read_audio, write_audio

from oracles import circular_convolve, power_db

FS = 44100


def dft_direct(x):
    """O(L^2) direct-summation DFT, the correctness oracle."""
    L = len(x)
    n = np.arange(L)
    return np.array(
        [np.sum(x * np.exp(-2j * np.pi * k * n / L)) for k in range(L)]
    )


def test_impulse_transform_is_flat():
    x = np.zeros(8)
    x[0] = 1.0
    spec = forward_dft(PeriodicSignal(x, FS))
    assert np.allclose(spec.bins, np.ones(5), atol=1e-14)
    assert spec.length == 8


def test_constant_signal_is_dc_only():
    spec = forward_dft(PeriodicSignal(np.ones(4), FS))
    assert np.allclose(spec.bins, [4, 0, 0], atol=1e-14)


def test_forward_dft_matches_direct_summation():
    rng = np.random.default_rng(1)
    for length in (15, 16):
        x = rng.standard_normal(length)
        spec = forward_dft(PeriodicSignal(x, FS))
        direct = dft_direct(x)[: length // 2 + 1]
        assert np.max(np.abs(spec.bins - direct)) < 1e-12 * np.max(np.abs(spec.bins))


def test_inverse_dft_dc_only():
    sig = inverse_dft(Spectrum([4, 0, 0], FS, 4))
    assert np.allclose(sig.samples, 1.0, atol=1e-14)
    assert sig.period_length == 4


def test_inverse_dft_beyond_float_range_is_out_of_range():
    """Each bin is finite, but the sum the inverse forms is not."""
    with pytest.raises(LevelOutOfRange, match="overflows"):
        inverse_dft(Spectrum([1e308, 1e308, 1e308], FS, 4))


@pytest.mark.parametrize("length", [4, 5])
def test_spectrum_length_fixes_the_parity_of_the_period(length):
    """Bins 0..2 belong to a period of 4 or of 5 samples; the inverse follows the length."""
    x = np.random.default_rng(length).standard_normal(length)
    spec = Spectrum(np.fft.rfft(x), FS, length)
    assert np.max(np.abs(inverse_dft(spec).samples - x)) < 1e-12


@pytest.mark.parametrize("bins,length", [(np.ones(4), 4), (np.ones(3), 6), (np.ones(1), 1)])
def test_spectrum_bin_count_must_match_length(bins, length):
    with pytest.raises(ValueError, match="bins"):
        Spectrum(bins, FS, length)


def test_spectrum_refuses_a_sample_rate_of_zero():
    """inverse_dft reads a ValueError of its period as an overflow: the rate is checked here."""
    with pytest.raises(ValueError, match="sample_rate"):
        Spectrum(np.ones(3), 0, 4)


def test_round_trip_identity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(100)
    back = inverse_dft(forward_dft(PeriodicSignal(x, FS)))
    assert np.max(np.abs(back.samples - x)) < 1e-12


@pytest.mark.parametrize("length", [2, 3, 17, 100, 441, 1000, 2048, 4096])
def test_round_trip_many_lengths(length):
    rng = np.random.default_rng(length)
    x = rng.standard_normal(length)
    back = inverse_dft(forward_dft(PeriodicSignal(x, FS)))
    assert np.max(np.abs(back.samples - x)) < 1e-12


def test_parseval():
    rng = np.random.default_rng(3)
    for length in (777, 778):
        x = rng.standard_normal(length)
        spec = forward_dft(PeriodicSignal(x, FS))
        time_energy = np.sum(x**2)
        freq_energy = hermitian_sum(np.abs(spec.bins) ** 2, length) / length
        assert abs(time_energy - freq_energy) < 1e-10 * time_energy


@pytest.mark.parametrize("length", [2, 3, 8, 9])
def test_hermitian_sum_counts_mirrored_bins_twice(length):
    one_sided = np.arange(1, length // 2 + 2)
    full = np.concatenate([one_sided, one_sided[1 : (length + 1) // 2][::-1]])
    assert full.size == length
    assert hermitian_sum(one_sided, length) == full.sum()
    low = one_sided > 1
    count = hermitian_sum(low, length)
    assert isinstance(int(count), int) and count == np.count_nonzero(full > 1)


def test_real_signal_spectrum_is_hermitian():
    """The full DFT of a real period mirrors bins 0..L//2, which are all a Spectrum keeps."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal(64)
    full = dft_direct(x)
    L = full.size
    mirrored = np.conj(full[(-np.arange(L)) % L])
    assert np.max(np.abs(full - mirrored)) < 1e-12 * np.max(np.abs(full))
    spec = forward_dft(PeriodicSignal(x, FS))
    assert np.max(np.abs(spec.bins - full[: L // 2 + 1])) < 1e-12 * np.max(np.abs(full))
    assert spec.bins[0].imag == 0.0
    assert spec.bins[L // 2].imag == 0.0


def test_convolve_identity_system():
    rng = np.random.default_rng(5)
    x = PeriodicSignal(rng.standard_normal(32), FS)
    y = circular_convolve(x, [1.0])
    assert np.array_equal(y.samples, x.samples)


def test_convolve_unit_delay():
    x = PeriodicSignal([1.0, 0.0, 0.0, 0.0], FS)
    y = circular_convolve(x, [0.0, 1.0])
    assert np.allclose(y.samples, [0.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_convolution_theorem_cross_check():
    rng = np.random.default_rng(6)
    x = PeriodicSignal(rng.standard_normal(64), FS)
    h = rng.standard_normal(16)
    y = circular_convolve(x, h)
    lhs = forward_dft(y).bins
    rhs = forward_dft(x).bins * np.fft.rfft(h, n=64)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))


def test_one_sided_transforms_keep_bins_up_to_nyquist():
    rng = np.random.default_rng(8)
    for L in (2, 7, 64):
        block = rng.standard_normal((3, L))
        spectra = forward_dft_raw(block)
        assert spectra.shape == (3, L // 2 + 1)
        for row, spectrum in zip(block, spectra):
            full = np.fft.fft(row)
            assert np.max(np.abs(spectrum - full[: L // 2 + 1])) < 1e-12 * np.max(np.abs(full))


def test_power_db_values():
    assert power_db(np.ones(10)) == pytest.approx(0.0, abs=1e-12)
    assert power_db(np.full(10, 0.1)) == pytest.approx(-20.0, abs=1e-12)
    assert power_db(np.zeros(5)) == float("-inf")


def test_a_period_is_a_sample_stream(tmp_path):
    """A period goes wherever a stream does: its length is L, and it writes as a WAV."""
    period = PeriodicSignal(np.float32([0.5, -0.25, 0.125]), FS)
    assert isinstance(period, SampleStream)
    assert len(period) == period.period_length == 3
    write_audio(tmp_path / "p.wav", period)
    back = read_audio(tmp_path / "p.wav")
    assert np.array_equal(back.samples, period.samples)
    assert back.sample_rate == FS


def test_package_exports_exactly_these_names():
    """Adding or dropping a public name of the package is a deliberate edit of this list."""
    exported = {
        name for name, value in vars(sgmeasure).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported) == [
        "FloorThreshold", "PeriodicSignal", "SafeguardReport", "SampleStream",
        "SessionManifest", "SimulationConfig", "Spectrum", "analyze_session",
        "apply_floor", "build_test_stream", "estimate_transfer", "excitation_bins",
        "floor_report", "forward_dft", "impulse_response", "inverse_dft", "load_manifest",
        "nonlinearity", "read_audio", "run_flooring_regression", "run_max_deviation_sweep",
        "run_nonlinearity_experiment", "run_random_response_experiment", "safeguard_signal",
        "segment_block", "separate_signals", "signal_dependent_response", "simulate_chain",
        "threshold_from_db", "time_invariant_block", "white_noise_period", "write_audio",
    ]


def test_periodic_signal_validation():
    with pytest.raises(ValueError, match="2 samples"):
        PeriodicSignal([1.0], FS)
    for kind in (PeriodicSignal, SampleStream):
        with pytest.raises(ValueError, match="finite"):
            kind([1.0, np.nan], FS)
        with pytest.raises(ValueError, match="finite"):
            kind([1.0, np.inf], FS)
        with pytest.raises(ValueError, match="1-D"):
            kind(np.ones((2, 3)), FS)
        with pytest.raises(ValueError, match="sample_rate"):
            kind([1.0, 2.0], 0)
