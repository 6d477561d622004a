import types

import numpy as np
import pytest

import sgmeasure
from sgmeasure.core import forward_dft_raw, hermitian_sum
from sgmeasure.errors import ClippedOutput, LevelOutOfRange
from sgmeasure.safeguard import floor_period, safeguard_period
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
    assert np.allclose(forward_dft_raw(x), np.ones(5), atol=1e-14)


def test_constant_signal_is_dc_only():
    assert np.allclose(forward_dft_raw(np.ones(4)), [4, 0, 0], atol=1e-14)


def test_forward_dft_matches_direct_summation():
    rng = np.random.default_rng(1)
    for length in (15, 16):
        x = rng.standard_normal(length)
        bins = forward_dft_raw(x)
        direct = dft_direct(x)[: length // 2 + 1]
        assert np.max(np.abs(bins - direct)) < 1e-12 * np.max(np.abs(bins))


def test_inverse_dft_dc_only():
    """The floor step's inverse is 1/L-normalized: zero bins floored at a vanishing theta."""
    period = floor_period(np.zeros(4), np.array([4.0, 0, 0]), np.array([4.0, 0, 0]), 1e-300)
    assert np.allclose(period, 1.0, atol=1e-14)
    assert period.shape == (4,)


def test_inverse_dft_beyond_float_range_is_out_of_range():
    """Each floored bin is finite, but the sum the inverse forms is not."""
    bins = np.array([1e308, 1e308, 0.0])
    with pytest.raises(LevelOutOfRange, match="overflows"):
        floor_period(np.zeros(4), bins, np.abs(bins), 1e308)


@pytest.mark.parametrize("length", [4, 5])
def test_spectrum_length_fixes_the_parity_of_the_period(length):
    """Bins 0..2 belong to a period of 4 or of 5 samples; the floored period follows the period."""
    x = np.random.default_rng(length).standard_normal(length)
    bins = forward_dft_raw(x)
    theta = float(np.min(np.abs(bins))) * (1.0 + 2.0**-40)  # one bin raised by ~1e-12
    floored = floor_period(x, bins, np.abs(bins), theta)
    assert floored.shape == (length,) and floored is not x
    assert np.max(np.abs(floored - x)) < 1e-12


def test_round_trip_identity():
    """The forward transform is unnormalized: numpy's 1/L inverse at length L gives x back."""
    rng = np.random.default_rng(2)
    x = rng.standard_normal(100)
    back = np.fft.irfft(forward_dft_raw(x), n=100)
    assert np.max(np.abs(back - x)) < 1e-12


@pytest.mark.parametrize("length", [2, 3, 17, 100, 441, 1000, 2048, 4096])
def test_round_trip_many_lengths(length):
    rng = np.random.default_rng(length)
    x = rng.standard_normal(length)
    back = np.fft.irfft(forward_dft_raw(x), n=length)
    assert np.max(np.abs(back - x)) < 1e-12


def test_parseval():
    rng = np.random.default_rng(3)
    for length in (777, 778):
        x = rng.standard_normal(length)
        time_energy = np.sum(x**2)
        freq_energy = hermitian_sum(np.abs(forward_dft_raw(x)) ** 2, length) / length
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
    """The full DFT of a real period mirrors bins 0..L//2, which are all a transform keeps."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal(64)
    full = dft_direct(x)
    L = full.size
    mirrored = np.conj(full[(-np.arange(L)) % L])
    assert np.max(np.abs(full - mirrored)) < 1e-12 * np.max(np.abs(full))
    bins = forward_dft_raw(x)
    assert np.max(np.abs(bins - full[: L // 2 + 1])) < 1e-12 * np.max(np.abs(full))
    assert bins[0].imag == 0.0
    assert bins[L // 2].imag == 0.0


def test_convolve_identity_system():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(32)
    y = circular_convolve(x, [1.0])
    assert np.array_equal(y, x)


def test_convolve_unit_delay():
    y = circular_convolve([1.0, 0.0, 0.0, 0.0], [0.0, 1.0])
    assert np.allclose(y, [0.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_convolution_theorem_cross_check():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(64)
    h = rng.standard_normal(16)
    y = circular_convolve(x, h)
    lhs = forward_dft_raw(y)
    rhs = forward_dft_raw(x) * np.fft.rfft(h, n=64)
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
    """A safeguarded period writes as a WAV of its L samples, and reads back."""
    period, _ = safeguard_period(np.float32([0.5, -0.25, 0.125]), -200.0)  # a vacuous floor
    assert period.shape == (3,)
    write_audio(tmp_path / "p.wav", period, FS)
    back, rate = read_audio(tmp_path / "p.wav")
    assert np.array_equal(back, period)
    assert rate == FS


def test_package_exports_exactly_these_names():
    """Adding or dropping a public name of the package is a deliberate edit of this list."""
    exported = {
        name for name, value in vars(sgmeasure).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported) == [
        "SafeguardReport", "SessionManifest",
        "analyze_session", "estimate_transfer", "excitation_bins", "floor_period",
        "floor_report", "floor_threshold", "load_manifest", "nonlinearity", "read_audio",
        "run_flooring_regression", "run_max_deviation_sweep", "run_nonlinearity_experiment",
        "run_random_response_experiment", "safeguard_period", "segment_block",
        "separate_signals", "simulate_chain", "white_noise_period", "write_audio",
    ]


def test_periodic_signal_validation(tmp_path):
    """A period is checked where it is safeguarded, samples and a rate where they are written."""
    path = tmp_path / "w.wav"
    for short in ([1.0], [], 2.0):
        with pytest.raises(ValueError, match="2 samples"):
            safeguard_period(short, 0.0)
    with pytest.raises(ValueError, match="1-D"):
        safeguard_period(np.ones((2, 3)), 0.0)
    with pytest.raises(ValueError, match="1-D"):
        write_audio(path, np.ones((2, 3)), FS)
    for bad in ([1.0, np.nan], [1.0, np.inf], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="finite"):
            safeguard_period(bad, 0.0)
        with pytest.raises(ClippedOutput, match="not finite"):
            write_audio(path, bad, FS)
    with pytest.raises(ValueError, match="sample_rate"):
        write_audio(path, [1.0, 2.0], 0)
    assert not path.exists()
