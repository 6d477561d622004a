import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmeasure.core import PeriodicSignal, forward_dft, inverse_dft, Spectrum
from sgmeasure.errors import DegenerateSpectrum
from sgmeasure.safeguard import (
    FloorThreshold,
    apply_floor,
    build_test_stream,
    floor_report,
    safeguard_signal,
    threshold_from_db,
)
from sgmeasure.simulate import white_noise_period

from oracles import added_component_db, floor_full_spectrum, power_db

FS = 44100


def hermitian_spectrum(rng, length):
    return forward_dft(PeriodicSignal(rng.standard_normal(length), FS))


# The default threshold is the 0 dB level: the mean bin magnitude itself.


def test_default_threshold_constant_magnitude():
    spec = Spectrum([1, 1, 1], FS, 4)
    assert threshold_from_db(spec, 0.0).theta_linear == pytest.approx(1.0)


def test_default_threshold_arithmetic_mean():
    spec = Spectrum([0, 2, 0], FS, 4)  # all four bins: 0, 2, 0, 2
    assert threshold_from_db(spec, 0.0).theta_linear == 1.0
    assert spec.mean_magnitude == 1.0


def test_default_threshold_matches_direct_recomputation():
    for length in (1024, 1025):
        signal = white_noise_period(length, FS, seed=11)
        theta = threshold_from_db(forward_dft(signal), 0.0)
        expected = sum(abs(b) for b in np.fft.fft(signal.samples)) / length
        assert abs(theta.theta_linear - expected) < 1e-12 * expected


def test_default_threshold_degenerate():
    with pytest.raises(DegenerateSpectrum):
        threshold_from_db(Spectrum(np.zeros(5), FS, 8), 0.0)


def test_threshold_must_be_positive():
    for theta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            FloorThreshold(theta)


def test_magnitude_is_computed_once_per_spectrum(monkeypatch):
    """Thresholds at every level, their reports and floors take one |X| of the spectrum."""
    spectrum = forward_dft(white_noise_period(1000, FS, seed=26))
    calls = []
    original = np.abs

    def counted(x, *args, **kwargs):
        calls.append(x is spectrum.bins)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", counted)
    for level_db in (-10.0, 0.0, 5.0):
        theta = threshold_from_db(spectrum, level_db)
        floor_report(spectrum, theta)
        apply_floor(spectrum, theta)
    assert calls.count(True) == 1
    assert not spectrum.magnitude.flags.writeable


def test_floor_is_noop_above_threshold():
    rng = np.random.default_rng(12)
    spec = hermitian_spectrum(rng, 64)
    theta = FloorThreshold(float(np.min(np.abs(spec.bins))) * 0.5)
    out = apply_floor(spec, theta)
    assert np.array_equal(out.bins, spec.bins)


def test_floor_fills_zero_bin_with_real_theta():
    spec = Spectrum([0, 1, 4], FS, 4)
    out = apply_floor(spec, FloorThreshold(0.5))
    assert out.bins[0] == 0.5 + 0.0j
    assert out.length == 4


def test_floor_scales_magnitude_preserving_phase():
    phi = 0.7
    bins = np.array([1.0, 0.1 * np.exp(1j * phi), 1.0])
    out = apply_floor(Spectrum(bins, FS, 4), FloorThreshold(1.0))
    assert abs(out.bins[1]) == pytest.approx(1.0, abs=1e-15)
    assert np.angle(out.bins[1]) == pytest.approx(phi, abs=1e-12)


def test_floor_magnitude_bound_and_phase_preservation():
    rng = np.random.default_rng(13)
    spec = hermitian_spectrum(rng, 256)
    theta = threshold_from_db(spec, 0.0)
    out = apply_floor(spec, theta)
    assert np.all(np.abs(out.bins) >= theta.theta_linear - 1e-12)
    nonzero = np.abs(spec.bins) > 0
    dphi = np.angle(out.bins[nonzero] * np.conj(spec.bins[nonzero]))
    assert np.max(np.abs(dphi)) < 1e-12


def test_floor_idempotent_bit_for_bit():
    rng = np.random.default_rng(14)
    spec = hermitian_spectrum(rng, 128)
    theta = threshold_from_db(spec, 0.0)
    once = apply_floor(spec, theta)
    twice = apply_floor(once, theta)
    assert np.array_equal(once.bins, twice.bins)


def test_bins_changed_monotone_in_theta():
    signal = white_noise_period(512, FS, seed=15)
    spec = forward_dft(signal)
    previous = -1
    for theta_db in (-40.0, -20.0, -10.0, 0.0, 10.0, 20.0):
        _, report = safeguard_signal(signal, threshold_from_db(spec, theta_db), spec)
        assert report.bins_changed >= previous
        previous = report.bins_changed


def test_safeguarded_signal_is_real():
    """Flooring all L bins keeps the spectrum Hermitian; the one-sided inverse is its real part."""
    signal = white_noise_period(1024, FS, seed=16)
    theta = threshold_from_db(forward_dft(signal), 0.0)
    floored = inverse_dft(apply_floor(forward_dft(signal), theta)).samples
    bins = np.fft.fft(signal.samples)
    mag = np.abs(bins)
    z = np.fft.ifft(np.where(mag < theta.theta_linear, theta.theta_linear * bins / mag, bins))
    rms = np.sqrt(np.mean(z.real**2))
    assert np.max(np.abs(z.imag)) < 1e-10 * rms
    assert np.max(np.abs(floored - z.real)) < 1e-12 * rms


def test_flooring_only_raises_power():
    signal = white_noise_period(2048, FS, seed=17)
    spec = forward_dft(signal)
    safeguarded, _ = safeguard_signal(signal, threshold_from_db(spec, 0.0), spec)
    assert power_db(safeguarded.samples) >= power_db(signal.samples)


def test_vacuous_floor_changes_nothing():
    signal = white_noise_period(256, FS, seed=18)
    spec = forward_dft(signal)
    theta = FloorThreshold(float(np.min(np.abs(spec.bins))) * 0.9)
    safeguarded, report = safeguard_signal(signal, theta, spec)
    assert report.bins_changed == 0
    assert report.added_component_db == float("-inf")
    assert np.max(np.abs(safeguarded.samples - signal.samples)) < 1e-12


@pytest.mark.parametrize("theta_db", [-200.0, -10.0, 0.0, 20.0])  # -200: vacuous floor
def test_given_spectrum_floors_like_own_transform(theta_db):
    """The period floored from the given spectrum is that of a fresh transform of it.

    A vacuous floor returns the period itself.
    """
    signal = white_noise_period(4096, FS, seed=23)
    spectrum = forward_dft(signal)
    theta = threshold_from_db(spectrum, theta_db)
    given, given_report = safeguard_signal(signal, theta, spectrum)
    own = forward_dft(signal)
    assert given_report == floor_report(own, theta)
    assert (given_report.bins_changed == 0) == (theta_db == -200.0)
    expected = signal if theta_db == -200.0 else inverse_dft(apply_floor(own, theta))
    assert given.samples.tobytes() == expected.samples.tobytes()
    assert given.sample_rate == signal.sample_rate


def test_given_spectrum_of_another_period_rejected():
    signal = white_noise_period(256, FS, seed=24)
    theta = threshold_from_db(forward_dft(signal), 0.0)
    for other in (white_noise_period(128, FS, seed=24), white_noise_period(256, 48000, seed=24)):
        with pytest.raises(ValueError):
            safeguard_signal(signal, theta, forward_dft(other))


def test_added_component_level_at_mean_flooring():
    # white noise, L=100000, theta at the mean magnitude: about -10.3 dB
    spec = forward_dft(white_noise_period(100000, FS, seed=19))
    report = floor_report(spec, threshold_from_db(spec, 0.0))
    assert report.added_component_db == pytest.approx(-10.3, abs=1.0)


def test_added_component_level_at_minus_10db_flooring():
    # -10 dB flooring adds a component 30 dB below the signal
    spec = forward_dft(white_noise_period(100000, FS, seed=20))
    report = floor_report(spec, threshold_from_db(spec, -10.0))
    assert report.added_component_db == pytest.approx(-30.0, abs=1.5)


def test_regression_law_over_sweep():
    # slope ~2, intercept ~-10.3 when regressing added level on flooring level
    signal = white_noise_period(100000, FS, seed=21)
    spec = forward_dft(signal)
    pts = []
    for theta_db in range(-50, 25, 5):
        report = floor_report(spec, threshold_from_db(spec, float(theta_db)))
        if 100 <= report.bins_changed <= 0.9 * 100000:
            pts.append((theta_db, report.added_component_db))
    slope, intercept = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)
    assert slope == pytest.approx(1.995, abs=0.10)
    assert intercept == pytest.approx(-10.321, abs=1.0)


def test_build_test_stream_single_repeat():
    period = PeriodicSignal([1.0, 2.0, 3.0], FS)
    stream = build_test_stream(period, 1)
    assert np.array_equal(stream.samples, period.samples)


def test_build_test_stream_index_arithmetic():
    period = PeriodicSignal([0.0, 1.0, 2.0, 3.0, 4.0], FS)
    stream = build_test_stream(period, 4)
    assert len(stream) == 20
    assert stream.samples[7] == period.samples[2]


def test_build_test_stream_six_repeats():
    period = white_noise_period(100, FS, seed=22)
    stream = build_test_stream(period, 6)
    assert len(stream) == 600


@st.composite
def periods(draw):
    """A real period of odd or even length: noise, tones over weaker noise, or impulses.

    The noise under the tones keeps every bin well above rounding level.
    Flooring scales a bin's phase error by theta / |X[k]|, so a bin that is
    zero in exact arithmetic, whose phase is rounding noise, floors
    differently in the two transforms.
    """
    length = draw(st.integers(2, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    kind = draw(st.sampled_from(["noise", "tones", "sparse"]))
    if kind == "noise":
        x = rng.standard_normal(length)
    elif kind == "tones":
        n = np.arange(length)
        x = 0.1 * rng.standard_normal(length)
        for k in rng.integers(0, length, 3):
            x += np.cos(2 * np.pi * k * n / length + rng.uniform(0, 6))
    else:
        x = np.zeros(length)
        x[rng.integers(0, length, 2)] = rng.standard_normal(2)
    return PeriodicSignal(scale * x, FS)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(signal=periods(), level_db=st.sampled_from([-200.0, -30.0, -10.0, 0.0, 5.0, 20.0]))
def test_one_sided_flooring_matches_full_spectrum_oracle(signal, level_db):
    """Bins 0..L//2 floor like all L bins: the same count, the same period, and idempotence."""
    spectrum = forward_dft(signal)
    theta = threshold_from_db(spectrum, level_db)
    safeguarded, report = safeguard_signal(signal, theta, spectrum)
    changed, oracle = floor_full_spectrum(signal.samples, theta.theta_linear)
    assert report.bins_changed == changed
    assert report.fraction_changed == changed / signal.period_length
    peak = float(np.max(np.abs(oracle)))
    assert np.max(np.abs(safeguarded.samples - oracle)) <= 1e-12 * peak
    once = apply_floor(spectrum, theta)
    assert apply_floor(once, theta).bins.tobytes() == once.bins.tobytes()


@st.composite
def floor_cases(draw):
    """A one-sided spectrum of odd or even length, some bins zero or all of them, and a floor.

    The floor is vacuous (half the smallest magnitude), a level relative to
    the mean magnitude, or full (twice the largest); a silent spectrum gets
    an explicit threshold.
    """
    length = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bins = np.fft.rfft(draw(st.sampled_from([1e-6, 1.0, 1e6])) * rng.standard_normal(length))
    bins[rng.integers(0, bins.size, draw(st.integers(0, 3)))] = 0.0
    if draw(st.integers(0, 4)) == 0:
        bins[:] = 0.0
    spectrum = Spectrum(bins, FS, length)
    mag = np.abs(bins)
    if not np.any(mag):
        return spectrum, FloorThreshold(draw(st.sampled_from([1e-3, 1.0, 1e3])))
    floor = draw(st.sampled_from(["vacuous", "level", "full"]))
    if floor == "vacuous" and np.all(mag > 0):
        return spectrum, FloorThreshold(0.5 * float(np.min(mag)))
    if floor == "full":
        return spectrum, FloorThreshold(2.0 * float(np.max(mag)))
    level_db = draw(st.sampled_from([-40.0, -20.0, -10.0, 0.0, 5.0, 10.0]))
    return spectrum, threshold_from_db(spectrum, level_db)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=floor_cases())
def test_floor_report_matches_time_domain_formula(case):
    """The spectral report counts the floored bins exactly and gives the time-domain level."""
    spectrum, theta = case
    L = spectrum.length
    report = floor_report(spectrum, theta)
    mirrored = np.concatenate([spectrum.bins, np.conj(spectrum.bins[1 : (L + 1) // 2][::-1])])
    expected_changed = int(np.count_nonzero(np.abs(mirrored) < theta.theta_linear * (1 - 2.0**-50)))
    assert report.bins_changed == expected_changed
    assert report.fraction_changed == expected_changed / L
    samples = np.fft.irfft(spectrum.bins, n=L)
    expected_db = added_component_db(samples, apply_floor(spectrum, theta))
    if math.isinf(expected_db):
        assert report.added_component_db == expected_db
    else:
        assert abs(report.added_component_db - expected_db) <= 1e-9
    if expected_changed == 0:
        assert report.added_component_db == -math.inf


def test_floor_report_of_a_silent_period_is_plus_inf():
    report = floor_report(Spectrum(np.zeros(5), FS, 9), FloorThreshold(1.0))
    assert (report.bins_changed, report.fraction_changed) == (9, 1.0)
    assert report.added_component_db == math.inf


def test_safeguard_signal_reports_floor_report():
    signal = white_noise_period(1000, FS, seed=25)
    spectrum = forward_dft(signal)
    theta = threshold_from_db(spectrum, -5.0)
    safeguarded, report = safeguard_signal(signal, theta, spectrum)
    assert report == floor_report(spectrum, theta)
    floored = inverse_dft(apply_floor(spectrum, theta))
    assert safeguarded.samples.tobytes() == floored.samples.tobytes()
