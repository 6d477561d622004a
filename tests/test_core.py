import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmeasure.core import (
    PeriodicSignal,
    SampleStream,
    Spectrum,
    circular_convolve_fast,
    forward_dft,
    forward_dft_raw,
    inverse_dft,
    lti_transfer,
    power_db,
)
from sgmeasure.errors import ImpulseResponseTooLong, NonHermitianInput

from oracles import circular_convolve

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
    assert np.allclose(spec.bins, np.ones(8), atol=1e-14)
    assert spec.hermitian


def test_constant_signal_is_dc_only():
    spec = forward_dft(PeriodicSignal(np.ones(4), FS))
    assert np.allclose(spec.bins, [4, 0, 0, 0], atol=1e-14)


def test_forward_dft_matches_direct_summation():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(16)
    spec = forward_dft(PeriodicSignal(x, FS))
    assert np.max(np.abs(spec.bins - dft_direct(x))) < 1e-12 * np.max(np.abs(spec.bins))


def test_inverse_dft_dc_only():
    sig = inverse_dft(Spectrum([4, 0, 0, 0], FS, hermitian=True))
    assert np.allclose(sig.samples, 1.0, atol=1e-14)


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
    x = rng.standard_normal(777)
    spec = forward_dft(PeriodicSignal(x, FS))
    time_energy = np.sum(x**2)
    freq_energy = np.sum(np.abs(spec.bins) ** 2) / len(x)
    assert abs(time_energy - freq_energy) < 1e-10 * time_energy


def test_real_signal_spectrum_is_hermitian():
    rng = np.random.default_rng(4)
    spec = forward_dft(PeriodicSignal(rng.standard_normal(64), FS))
    L = spec.length
    mirrored = np.conj(spec.bins[(-np.arange(L)) % L])
    assert np.max(np.abs(spec.bins - mirrored)) < 1e-12 * np.max(np.abs(spec.bins))
    assert abs(spec.bins[0].imag) < 1e-12
    assert abs(spec.bins[L // 2].imag) < 1e-12


def test_non_hermitian_spectrum_rejected_on_inverse():
    bins = np.zeros(8, dtype=complex)
    bins[1] = 1.0 + 1.0j  # no conjugate partner
    with pytest.raises(NonHermitianInput):
        inverse_dft(Spectrum(bins, FS, hermitian=False))


def test_hermitian_flag_validated_on_construction():
    bins = np.zeros(8, dtype=complex)
    bins[1] = 1.0 + 1.0j
    with pytest.raises(ValueError):
        Spectrum(bins, FS, hermitian=True)


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
    rhs = forward_dft(x).bins * np.fft.fft(h, n=64)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))


def test_fast_convolution_matches_oracle():
    rng = np.random.default_rng(7)
    x = PeriodicSignal(rng.standard_normal(64), FS)
    h = rng.standard_normal(16)
    slow = circular_convolve(x, h).samples
    fast = circular_convolve_fast(x.samples, h)
    assert np.max(np.abs(slow - fast)) < 1e-10


@pytest.mark.parametrize("length", [2, 3, 63, 64, 441, 1000])
@pytest.mark.parametrize("given_transfer", [False, True])
def test_fast_convolution_matches_oracle_odd_and_even(length, given_transfer):
    rng = np.random.default_rng(length)
    x = PeriodicSignal(rng.standard_normal(length), FS)
    h = rng.standard_normal(min(length, 16))
    transfer = lti_transfer(h, length) if given_transfer else None
    fast = circular_convolve_fast(x.samples, h, transfer)
    assert np.max(np.abs(circular_convolve(x, h).samples - fast)) < 1e-10


def test_fast_convolution_rejects_a_transfer_of_another_length():
    with pytest.raises(ValueError, match="bins"):
        circular_convolve_fast(np.ones(64), [1.0], np.ones(64, dtype=complex))


def test_one_sided_transforms_keep_bins_up_to_nyquist():
    rng = np.random.default_rng(8)
    for L in (2, 7, 64):
        block = rng.standard_normal((3, L))
        spectra = forward_dft_raw(block)
        assert spectra.shape == (3, L // 2 + 1)
        for row, spectrum in zip(block, spectra):
            full = forward_dft(PeriodicSignal(row, FS)).bins
            assert np.max(np.abs(spectrum - full[: L // 2 + 1])) < 1e-12 * np.max(np.abs(full))
        h = rng.standard_normal(L)
        assert np.allclose(lti_transfer(h, L), np.fft.fft(h)[: L // 2 + 1], rtol=0, atol=1e-12)


def test_impulse_response_too_long():
    x = PeriodicSignal(np.zeros(8) + 1.0, FS)
    with pytest.raises(ImpulseResponseTooLong):
        circular_convolve(x, np.ones(9))
    with pytest.raises(ImpulseResponseTooLong):
        circular_convolve_fast(x.samples, np.ones(9))


def test_power_db_values():
    assert power_db(np.ones(10)) == pytest.approx(0.0, abs=1e-12)
    assert power_db(np.full(10, 0.1)) == pytest.approx(-20.0, abs=1e-12)
    assert power_db(np.zeros(5)) == float("-inf")


def test_periodic_signal_validation():
    with pytest.raises(ValueError):
        PeriodicSignal([1.0], FS)
    with pytest.raises(ValueError):
        PeriodicSignal([1.0, np.nan], FS)
    with pytest.raises(ValueError):
        SampleStream([1.0, np.inf], FS)


def mirrored_asymmetry(bins):
    """max_k |X[k] - conj(X[(-k) mod L])|, the mirrored-index form of the Hermitian test."""
    L = bins.size
    return np.max(np.abs(bins - np.conj(bins[(-np.arange(L)) % L])))


@st.composite
def perturbed_spectra(draw):
    """An exactly Hermitian spectrum, perturbed by a factor of the tolerance at one bin."""
    L = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bins = np.fft.fft(draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.standard_normal(L))
    bins[0] = bins[0].real
    bins[L // 2 + 1:] = np.conj(bins[1:(L + 1) // 2][::-1])
    if L % 2 == 0:
        bins[L // 2] = bins[L // 2].real
    places = ["none", "dc"] + (["nyquist"] if L % 2 == 0 else []) + (["bin"] if L > 2 else [])
    where = draw(st.sampled_from(places))
    factor = draw(st.sampled_from([0.5, 1 - 1e-3, 1 + 1e-3, 2.0]))
    delta = factor * 1e-12 * max(float(np.max(np.abs(bins))), 1.0)
    if where in ("dc", "nyquist"):  # a self-mirrored bin: |X - conj(X)| = 2|Im X|
        bins[0 if where == "dc" else L // 2] += 0.5j * delta * draw(st.sampled_from([1, -1]))
    elif where == "bin":
        k = draw(st.integers(1, L - 1).filter(lambda k: 2 * k != L))
        bins[k] += delta * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    return bins, where != "none" and factor > 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=perturbed_spectra())
def test_hermitian_check_matches_mirrored_formula(case):
    bins, beyond_tolerance = case
    expected = mirrored_asymmetry(bins) > 1e-12 * max(float(np.max(np.abs(bins))), 1.0)
    assert expected == beyond_tolerance  # the perturbation sits where it was meant to
    if expected:
        with pytest.raises(ValueError, match="Hermitian"):
            Spectrum(bins, FS, hermitian=True)
    else:
        Spectrum(bins, FS, hermitian=True)
