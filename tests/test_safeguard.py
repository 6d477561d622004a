import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmeasure.core import forward_dft_raw
from sgmeasure.errors import DegenerateSpectrum, LevelOutOfRange
from sgmeasure.safeguard import floor_period, floor_report, floor_threshold, safeguard_period
from sgmeasure.simulate import white_noise_period
from sgmeasure.wavio import read_audio, write_audio

from oracles import added_component_db, floor_bins, floor_full_spectrum, power_db

FS = 44100


def transformed(x):
    """A period with its bins 0..L//2 and their magnitudes: the floor step's arguments."""
    bins = forward_dft_raw(x)
    return x, bins, np.abs(bins)


# The default threshold is the 0 dB level: the mean bin magnitude itself.


def test_default_threshold_constant_magnitude():
    assert floor_threshold(np.ones(3), 4, 0.0) == pytest.approx(1.0)


def test_default_threshold_arithmetic_mean():
    assert floor_threshold(np.array([0.0, 2.0, 0.0]), 4, 0.0) == 1.0  # all four bins: 0, 2, 0, 2
    assert floor_threshold(np.array([0.0, 2.0, 0.0]), 5, 0.0) == 4.0 / 5  # 0, 2, 0, 0, 2


def test_default_threshold_matches_direct_recomputation():
    for length in (1024, 1025):
        x = white_noise_period(length, seed=11)
        theta = floor_threshold(np.abs(forward_dft_raw(x)), length, 0.0)
        expected = sum(abs(b) for b in np.fft.fft(x)) / length
        assert abs(theta - expected) < 1e-12 * expected


def test_default_threshold_degenerate():
    with pytest.raises(DegenerateSpectrum):
        floor_threshold(np.zeros(5), 8, 0.0)
    with pytest.raises(DegenerateSpectrum):
        safeguard_period(np.zeros(8), 0.0)


def test_threshold_must_be_positive():
    """A level whose theta underflows to zero or overflows float64 is out of range."""
    for magnitude, level_db in [
        (np.ones(3), -7000.0),  # 10**(-350) is zero
        (np.ones(3), 7000.0),  # 10**350 overflows in the power
        (np.full(3, 1e300), 200.0),  # the product overflows
    ]:
        with pytest.raises(LevelOutOfRange, match="beyond float64"):
            floor_threshold(magnitude, 4, level_db)
    with pytest.raises(LevelOutOfRange, match="beyond float64"):
        safeguard_period(np.ones(4), -7000.0)
    assert floor_threshold(np.ones(3), 4, -6000.0) > 0.0  # 1e-300 is in range


def test_magnitude_is_computed_once_per_spectrum(monkeypatch):
    """Thresholds at every level, their reports and floors read the magnitudes given."""
    x, bins, magnitude = transformed(white_noise_period(1000, seed=26))
    calls = []
    original = np.abs

    def counted(value, *args, **kwargs):
        calls.append(value.shape)
        return original(value, *args, **kwargs)

    monkeypatch.setattr(np, "abs", counted)
    for level_db in (-10.0, 0.0, 5.0):
        theta = floor_threshold(magnitude, x.size, level_db)
        floor_report(magnitude, x.size, theta)
        floor_period(x, bins, magnitude, theta)
    assert calls == []
    safeguard_period(x, 0.0)
    assert calls == [bins.shape]


def test_floor_is_noop_above_threshold():
    x, bins, magnitude = transformed(np.random.default_rng(12).standard_normal(64))
    assert floor_period(x, bins, magnitude, float(np.min(magnitude)) * 0.5) is x


def test_floor_fills_zero_bin_with_real_theta():
    bins = np.array([0.0, 1.0, 4.0], dtype=complex)
    out = floor_period(np.fft.irfft(bins, n=4), bins, np.abs(bins), 0.5)
    assert out.shape == (4,)
    dc = forward_dft_raw(out)[0]
    assert dc.real == pytest.approx(0.5, abs=1e-15) and dc.imag == 0.0


def test_floor_scales_magnitude_preserving_phase():
    phi = 0.7
    bins = np.array([1.0, 0.1 * np.exp(1j * phi), 1.0])
    out = forward_dft_raw(floor_period(np.fft.irfft(bins, n=4), bins, np.abs(bins), 1.0))
    assert abs(out[1]) == pytest.approx(1.0, abs=1e-15)
    assert np.angle(out[1]) == pytest.approx(phi, abs=1e-12)


def test_floor_magnitude_bound_and_phase_preservation():
    x, bins, magnitude = transformed(np.random.default_rng(13).standard_normal(256))
    theta = floor_threshold(magnitude, 256, 0.0)
    out = forward_dft_raw(floor_period(x, bins, magnitude, theta))
    assert np.all(np.abs(out) >= theta - 1e-12)
    nonzero = magnitude > 0
    dphi = np.angle(out[nonzero] * np.conj(bins[nonzero]))
    assert np.max(np.abs(dphi)) < 1e-12


def test_floor_idempotent_bit_for_bit():
    """Bins raised to the floor re-measure within the guard: flooring them again is vacuous."""
    x, bins, magnitude = transformed(np.random.default_rng(14).standard_normal(128))
    theta = floor_threshold(magnitude, 128, 0.0)
    low, floored = floor_bins(bins, theta)
    assert low.any()
    assert floor_report(np.abs(floored), 128, theta).bins_changed == 0
    assert floor_period(x, floored, np.abs(floored), theta) is x


def test_bins_changed_monotone_in_theta():
    x = white_noise_period(512, seed=15)
    previous = -1
    for theta_db in (-40.0, -20.0, -10.0, 0.0, 10.0, 20.0):
        _, report = safeguard_period(x, theta_db)
        assert report.bins_changed >= previous
        previous = report.bins_changed


def test_safeguarded_signal_is_real():
    """Flooring all L bins keeps the spectrum Hermitian; the one-sided inverse is its real part."""
    x = white_noise_period(1024, seed=16)
    floored, report = safeguard_period(x, 0.0)
    theta = report.theta_linear
    bins = np.fft.fft(x)
    mag = np.abs(bins)
    z = np.fft.ifft(np.where(mag < theta, theta * bins / mag, bins))
    rms = np.sqrt(np.mean(z.real**2))
    assert np.max(np.abs(z.imag)) < 1e-10 * rms
    assert np.max(np.abs(floored - z.real)) < 1e-12 * rms


def test_flooring_only_raises_power():
    x = white_noise_period(2048, seed=17)
    safeguarded, _ = safeguard_period(x, 0.0)
    assert power_db(safeguarded) >= power_db(x)


def test_vacuous_floor_changes_nothing(monkeypatch):
    """No bin below theta: the period comes back with no inverse transform."""
    x, bins, magnitude = transformed(white_noise_period(256, seed=18))
    monkeypatch.setattr(np.fft, "irfft", None)  # any inverse transform fails
    assert floor_period(x, bins, magnitude, float(np.min(magnitude)) * 0.9) is x
    safeguarded, report = safeguard_period(x, -200.0)
    assert report.bins_changed == 0
    assert report.added_component_db == float("-inf")
    assert safeguarded.tobytes() == x.tobytes()


@pytest.mark.parametrize("theta_db", [-200.0, -10.0, 0.0, 20.0])  # -200: vacuous floor
def test_given_spectrum_floors_like_own_transform(theta_db):
    """Bins shared by every level floor the period as safeguard_period's own transform does.

    A vacuous floor returns the period itself.
    """
    x, bins, magnitude = transformed(white_noise_period(4096, seed=23))
    theta = floor_threshold(magnitude, x.size, theta_db)
    given = floor_period(x, bins, magnitude, theta)
    own, own_report = safeguard_period(x, theta_db)
    assert own_report == floor_report(magnitude, x.size, theta)
    assert (own_report.bins_changed == 0) == (theta_db == -200.0)
    assert (given is x) == (theta_db == -200.0)
    assert given.tobytes() == own.tobytes()


def test_added_component_level_at_mean_flooring():
    # white noise, L=100000, theta at the mean magnitude: about -10.3 dB
    _, report = safeguard_period(white_noise_period(100000, seed=19), 0.0)
    assert report.added_component_db == pytest.approx(-10.3, abs=1.0)


def test_added_component_level_at_minus_10db_flooring():
    # -10 dB flooring adds a component 30 dB below the signal
    _, report = safeguard_period(white_noise_period(100000, seed=20), -10.0)
    assert report.added_component_db == pytest.approx(-30.0, abs=1.5)


def test_regression_law_over_sweep():
    # slope ~2, intercept ~-10.3 when regressing added level on flooring level
    magnitude = np.abs(forward_dft_raw(white_noise_period(100000, seed=21)))
    pts = []
    for theta_db in range(-50, 25, 5):
        theta = floor_threshold(magnitude, 100000, float(theta_db))
        report = floor_report(magnitude, 100000, theta)
        if 100 <= report.bins_changed <= 0.9 * 100000:
            pts.append((theta_db, report.added_component_db))
    slope, intercept = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)
    assert slope == pytest.approx(1.995, abs=0.10)
    assert intercept == pytest.approx(-10.321, abs=1.0)


def repeated(tmp_path, period, repeats):
    """The test stream of ``period`` repeated, as make-test writes it and analyze reads it."""
    write_audio(tmp_path / "stream.wav", period, FS, repeats)
    return read_audio(tmp_path / "stream.wav")[0]


def test_build_test_stream_single_repeat(tmp_path):
    period = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(repeated(tmp_path, period, 1), period)


def test_build_test_stream_index_arithmetic(tmp_path):
    period = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    stream = repeated(tmp_path, period, 4)
    assert stream.size == 20
    assert stream[7] == period[2]


def test_build_test_stream_six_repeats(tmp_path):
    period, _ = safeguard_period(white_noise_period(100, seed=22), 0.0)
    stream = repeated(tmp_path, period, 6)
    assert stream.size == 600
    assert np.array_equal(stream[500:], period.astype(np.float32))


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
    return scale * x


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(x=periods(), level_db=st.sampled_from([-200.0, -30.0, -10.0, 0.0, 5.0, 20.0]))
def test_one_sided_flooring_matches_full_spectrum_oracle(x, level_db):
    """Bins 0..L//2 floor like all L bins: the same count, the same period, and idempotence."""
    safeguarded, report = safeguard_period(x, level_db)
    theta = report.theta_linear
    changed, oracle = floor_full_spectrum(x, theta)
    assert report.bins_changed == changed
    assert report.fraction_changed == changed / x.size
    peak = float(np.max(np.abs(oracle)))
    assert np.max(np.abs(safeguarded - oracle)) <= 1e-12 * peak
    _, floored = floor_bins(forward_dft_raw(x), theta)
    assert floor_report(np.abs(floored), x.size, theta).bins_changed == 0
    assert floor_period(x, floored, np.abs(floored), theta) is x


@st.composite
def floor_cases(draw):
    """Bins 0..L//2 of odd or even L, some bins zero or all of them, and a floor.

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
    mag = np.abs(bins)
    if not np.any(mag):
        return bins, length, draw(st.sampled_from([1e-3, 1.0, 1e3]))
    floor = draw(st.sampled_from(["vacuous", "level", "full"]))
    if floor == "vacuous" and np.all(mag > 0):
        return bins, length, 0.5 * float(np.min(mag))
    if floor == "full":
        return bins, length, 2.0 * float(np.max(mag))
    level_db = draw(st.sampled_from([-40.0, -20.0, -10.0, 0.0, 5.0, 10.0]))
    return bins, length, floor_threshold(mag, length, level_db)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=floor_cases())
def test_floor_report_matches_time_domain_formula(case):
    """The spectral report counts the floored bins exactly and gives the time-domain level."""
    bins, L, theta = case
    report = floor_report(np.abs(bins), L, theta)
    mirrored = np.concatenate([bins, np.conj(bins[1 : (L + 1) // 2][::-1])])
    expected_changed = int(np.count_nonzero(np.abs(mirrored) < theta * (1 - 2.0**-50)))
    assert report.theta_linear == theta
    assert report.bins_changed == expected_changed
    assert report.fraction_changed == expected_changed / L
    expected_db = added_component_db(np.fft.irfft(bins, n=L), floor_bins(bins, theta)[1])
    if math.isinf(expected_db):
        assert report.added_component_db == expected_db
    else:
        assert abs(report.added_component_db - expected_db) <= 1e-9
    if expected_changed == 0:
        assert report.added_component_db == -math.inf


def test_floor_report_of_a_silent_period_is_plus_inf():
    report = floor_report(np.zeros(5), 9, 1.0)
    assert (report.bins_changed, report.fraction_changed) == (9, 1.0)
    assert report.added_component_db == math.inf


def test_safeguard_signal_reports_floor_report():
    x, bins, magnitude = transformed(white_noise_period(1000, seed=25))
    safeguarded, report = safeguard_period(x, -5.0)
    theta = floor_threshold(magnitude, 1000, -5.0)
    assert report == floor_report(magnitude, 1000, theta)
    assert safeguarded.tobytes() == floor_period(x, bins, magnitude, theta).tobytes()
