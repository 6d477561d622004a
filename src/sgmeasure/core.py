"""Periodic-signal and spectrum types plus the DFT primitives.

Convention: unnormalized forward DFT, 1/L-normalized inverse.  Real signals
live in a :class:`SampleStream`; one period is a :class:`PeriodicSignal`.
Every transform keeps only bins 0..L//2, which carry all of a real signal's
spectrum: a :class:`Spectrum` holds those bins of one period plus L, whose
parity the bin count does not fix, and computes their magnitudes once.
:func:`hermitian_sum` turns a quantity on those bins into its sum over all L bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LevelOutOfRange

__all__ = [
    "PeriodicSignal",
    "Spectrum",
    "SampleStream",
    "forward_dft",
    "forward_dft_raw",
    "inverse_dft",
]


@dataclass(frozen=True)
class Spectrum:
    """Bins 0..length//2 of the DFT of one real period of ``length`` samples.

    ``magnitude`` and ``mean_magnitude`` are computed on first read and kept,
    so the bins must not be changed in place.
    """

    bins: np.ndarray
    sample_rate: int
    length: int

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        if self.length < 2 or bins.shape != (self.length // 2 + 1,):
            raise ValueError(f"a period of {self.length} needs {self.length // 2 + 1} bins")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "bins", bins)

    @cached_property
    def magnitude(self) -> np.ndarray:
        """|X[k]| of the bins, read-only."""
        magnitude = np.abs(self.bins)
        magnitude.flags.writeable = False
        return magnitude

    @cached_property
    def mean_magnitude(self) -> float:
        """Mean |X[k]| over all ``length`` bins: the 0 dB flooring reference."""
        return full_spectrum_mean(self.magnitude, self.length)


@dataclass(frozen=True)
class SampleStream:
    """A real sample sequence of any length: 1-D, finite, at a positive sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be 1-D")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class PeriodicSignal(SampleStream):
    """One period of a real discrete-time signal: a stream of at least 2 samples.

    Repetition semantics live in operations (see
    :func:`sgmeasure.safeguard.build_test_stream`), not in the type.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.samples.size < 2:
            raise ValueError("a period needs at least 2 samples")

    @property
    def period_length(self) -> int:
        return self.samples.size


def forward_dft(signal: PeriodicSignal) -> Spectrum:
    """Unnormalized forward DFT of one period (X[k] = sum x[n] e^{-i2pi kn/L}), k = 0..L//2."""
    return Spectrum(np.fft.rfft(signal.samples), signal.sample_rate, signal.period_length)


def forward_dft_raw(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Bins 0..L//2 of the real samples' forward DFT along the last axis, into ``out`` if given."""
    return np.fft.rfft(np.asarray(samples, dtype=np.float64), out=out)


def inverse_dft(spectrum: Spectrum) -> PeriodicSignal:
    """1/L-normalized inverse DFT of the real period whose bins 0..L//2 these are.

    The imaginary parts of bin 0 and, for even L, bin L/2 are ignored: a
    real period has none.  Bins whose period overflows float64 raise
    :class:`LevelOutOfRange`.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        samples = np.fft.irfft(spectrum.bins, n=spectrum.length)
    try:
        return PeriodicSignal(samples, spectrum.sample_rate)
    except ValueError:  # non-finite samples: Spectrum has checked the length and the rate
        peak = float(np.max(spectrum.magnitude))
        raise LevelOutOfRange(f"inverse DFT of bins up to {peak!r} overflows float64") from None


def hermitian_sum(one_sided: np.ndarray, length: int):
    """Sum over all ``length`` bins of a quantity equal at bins k and length-k, from 0..length//2.

    A bin k in 1..(length-1)//2 stands for itself and its mirror image, so
    it counts twice; bin 0 and, for even length, bin length/2 count once.
    Boolean bins give an integer count.
    """
    total = one_sided[0] + 2 * one_sided[1 : (length + 1) // 2].sum()
    if length % 2 == 0:
        total += one_sided[length // 2]
    return total


def full_spectrum_mean(one_sided: np.ndarray, length: int) -> float:
    """Mean over all ``length`` bins of a real signal's power or magnitude spectrum."""
    return float(hermitian_sum(one_sided, length) / length)

