"""Periodic-signal and spectrum types plus the DFT/convolution primitives.

Convention: unnormalized forward DFT, 1/L-normalized inverse.  Real signals
live in :class:`PeriodicSignal` / :class:`SampleStream`.  A :class:`Spectrum`
holds all L bins of one period; the block transforms (:func:`forward_dft_raw`,
:func:`lti_transfer`) hold only bins 0..L//2, which carry all of a real
signal's spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImpulseResponseTooLong, NonHermitianInput

__all__ = [
    "PeriodicSignal",
    "Spectrum",
    "SampleStream",
    "forward_dft",
    "forward_dft_raw",
    "inverse_dft",
    "circular_convolve_fast",
    "lti_transfer",
    "power_db",
]


@dataclass(frozen=True)
class PeriodicSignal:
    """One period of a real discrete-time signal.

    Repetition semantics live in operations (see
    :func:`sgmeasure.safeguard.build_test_stream`), not in the type.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("period must be a 1-D sequence of length >= 2")
        if not np.all(np.isfinite(samples)):
            raise ValueError("period contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)

    @property
    def period_length(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class Spectrum:
    """Length-L complex DFT bins of one period.

    ``hermitian`` asserts conjugate symmetry (the spectrum of a real
    signal); it is validated on construction.
    """

    bins: np.ndarray
    sample_rate: int
    hermitian: bool = False

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.ndim != 1 or bins.size < 2:
            raise ValueError("spectrum must be a 1-D sequence of length >= 2")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "bins", bins)
        if self.hermitian:
            scale = float(np.max(np.abs(bins)))
            tol = 1e-12 * max(scale, 1.0)
            # X[k] against conj(X[L-k]) for k >= 1, and X[0] against its own
            # conjugate: |X0 - conj(X0)| = 2|Im X0|.  np.maximum propagates a
            # NaN, as one max over all L differences does.
            asymmetry = np.maximum(
                np.max(np.abs(bins[1:] - np.conj(bins[:0:-1]))), 2.0 * abs(bins[0].imag)
            )
            if asymmetry > tol:
                raise ValueError("bins violate Hermitian symmetry")

    @property
    def length(self) -> int:
        return self.bins.size

    def frequencies(self) -> np.ndarray:
        """Bin center frequencies in Hz for k = 0..L-1."""
        return np.arange(self.length) * (self.sample_rate / self.length)


@dataclass(frozen=True)
class SampleStream:
    """A real sample sequence of any length with provenance label."""

    samples: np.ndarray
    sample_rate: int
    label: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("stream must be 1-D")
        if not np.all(np.isfinite(samples)):
            raise ValueError("stream contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


def forward_dft(signal: PeriodicSignal) -> Spectrum:
    """Unnormalized forward DFT of one period (X[k] = sum x[n] e^{-i2pi kn/L})."""
    return Spectrum(np.fft.fft(signal.samples), signal.sample_rate, hermitian=True)


def forward_dft_raw(samples: np.ndarray) -> np.ndarray:
    """Bins 0..L//2 of the forward DFT of real samples, along the last axis."""
    return np.fft.rfft(np.asarray(samples, dtype=np.float64))


def inverse_dft(spectrum: Spectrum) -> PeriodicSignal:
    """1/L-normalized inverse DFT, returning a real period.

    For a spectrum not flagged Hermitian, an imaginary residue above
    1e-6 of the signal RMS raises :class:`NonHermitianInput` (a corrupted
    spectrum); below that it is discarded like rounding noise.
    """
    z = np.fft.ifft(spectrum.bins)
    real = z.real
    residue = float(np.max(np.abs(z.imag)))
    if not spectrum.hermitian:
        rms = float(np.sqrt(np.mean(real**2)))
        if residue > 1e-6 * max(rms, np.finfo(np.float64).tiny):
            raise NonHermitianInput(
                f"imaginary residue {residue:.3e} exceeds 1e-6 of RMS {rms:.3e}"
            )
    return PeriodicSignal(real, spectrum.sample_rate)


def lti_transfer(h: np.ndarray, length: int) -> np.ndarray:
    """Bins 0..length//2 of the DFT of ``h`` zero-padded to ``length`` points.

    These are the bins a length-``length`` block is multiplied by.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.size > length:
        raise ImpulseResponseTooLong(f"len(h)={h.size} exceeds block length {length}")
    return np.fft.rfft(h, n=length)


def circular_convolve_fast(
    samples: np.ndarray, h: np.ndarray, transfer: np.ndarray | None = None
) -> np.ndarray:
    """Spectral-multiplication circular convolution over the full block length.

    ``transfer`` is ``lti_transfer(h, len(samples))`` when the caller
    already holds it (one per stream length, however many blocks).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if transfer is None:
        transfer = lti_transfer(h, samples.size)
    elif transfer.shape != (samples.size // 2 + 1,):
        raise ValueError(
            f"transfer has {transfer.size} bins for a block of {samples.size} samples"
        )
    return np.fft.irfft(np.fft.rfft(samples) * transfer, n=samples.size)


def power_db(samples: np.ndarray) -> float:
    """Mean-square power in dB; -inf for all-zero input."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("power_db of empty sequence")
    mean_sq = float(np.mean(samples**2))
    if mean_sq == 0.0:
        return float("-inf")
    return 10.0 * np.log10(mean_sq)
