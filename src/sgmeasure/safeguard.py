"""DFT-magnitude flooring: turn an arbitrary period into a safeguarded excitation.

Flooring raises every DFT bin magnitude to at least a threshold while
preserving phase, so the bin-wise deconvolution ``Y[k]/X[k]`` stays well
conditioned at every frequency.  dB flooring levels are always relative to
the mean absolute bin magnitude of the source spectrum (0 dB reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PeriodicSignal, SampleStream, Spectrum, hermitian_sum, inverse_dft
from .errors import DegenerateSpectrum, LevelOutOfRange

__all__ = [
    "FloorThreshold",
    "SafeguardReport",
    "threshold_from_db",
    "apply_floor",
    "floor_report",
    "safeguard_signal",
    "build_test_stream",
]


@dataclass(frozen=True)
class FloorThreshold:
    """Magnitude floor in linear DFT units: a positive, finite float."""

    theta_linear: float

    def __post_init__(self):
        if not 0.0 < self.theta_linear < math.inf:
            raise ValueError(f"theta_linear must be positive and finite, got {self.theta_linear}")


@dataclass(frozen=True)
class SafeguardReport:
    """What flooring did: bins touched and added deterministic level.

    ``added_component_db`` is the power of (x_s - x) relative to the power
    of x, read from the spectrum by :func:`floor_report`; -inf when no bin
    changed.
    """

    bins_changed: int
    fraction_changed: float
    added_component_db: float


def threshold_from_db(spectrum: Spectrum, level_db: float) -> FloorThreshold:
    """Threshold at ``level_db`` relative to the mean absolute bin magnitude.

    0 dB is the mean magnitude itself.  A level whose threshold overflows
    float64 or underflows to zero raises :class:`LevelOutOfRange`.
    """
    mean_mag = spectrum.mean_magnitude
    if mean_mag == 0.0:
        raise DegenerateSpectrum("all-zero spectrum has no magnitude reference")
    try:
        return FloorThreshold(mean_mag * 10.0 ** (level_db / 20.0))
    except (ValueError, OverflowError):  # FloorThreshold refuses zero and infinity
        raise LevelOutOfRange(f"flooring level {level_db} dB is beyond float64 range") from None


def apply_floor(spectrum: Spectrum, theta: FloorThreshold) -> Spectrum:
    """Raise every bin magnitude to at least theta, preserving phase.

    Bins at or above the threshold pass through bit-exactly; zero bins are
    filled with theta + 0i (phase 0 keeps bin 0 and bin L/2 real).
    """
    th = theta.theta_linear
    bins = spectrum.bins
    mag = spectrum.magnitude
    out = bins.copy()
    # few-ulp guard keeps repeated flooring bit-for-bit idempotent: a bin
    # already raised to the floor re-measures at th*(1 +- 2 ulp)
    low = (mag > 0) & (mag < th * (1.0 - 2.0**-50))
    out[low] = th * bins[low] / mag[low]
    out[mag == 0] = th
    return Spectrum(out, spectrum.sample_rate, spectrum.length)


def floor_report(spectrum: Spectrum, theta: FloorThreshold) -> SafeguardReport:
    """What :func:`apply_floor` does to ``spectrum``, read from the bins alone.

    A floored bin k gains (theta - |X[k]|) in magnitude along its own
    phase, so by Parseval the added component's power over the signal's is
    sum (theta - |X[k]|)^2 over the floored bins / sum |X[k]|^2, with no
    inverse transform.  Flooring a silent period adds +inf dB, and so does
    an added power beyond float64.
    """
    th = theta.theta_linear
    length = spectrum.length
    mag = spectrum.magnitude
    low = mag < th * (1.0 - 2.0**-50)
    changed = int(hermitian_sum(low, length))
    if changed == 0:
        return SafeguardReport(0, 0.0, -math.inf)
    # an overflowed square gives +inf dB: the regression refuses it, and the
    # safeguard command refuses the floored period (beyond float32) first
    with np.errstate(divide="ignore", over="ignore"):
        added = hermitian_sum(np.where(low, th - mag, 0.0) ** 2, length)
        total = hermitian_sum(mag**2, length)
        added_db = float(10.0 * np.log10(added / total)) if total > 0 else math.inf
    return SafeguardReport(changed, changed / length, added_db)


def safeguard_signal(
    signal: PeriodicSignal, theta: FloorThreshold, spectrum: Spectrum
) -> tuple[PeriodicSignal, SafeguardReport]:
    """Floor the period's spectrum and return the safeguarded period plus report.

    ``spectrum`` is ``forward_dft(signal)``, the one ``theta`` is derived
    from.  A vacuous floor (no bin below the threshold) returns the input
    period unchanged rather than a transform round-trip of it.
    """
    if (spectrum.length, spectrum.sample_rate) != (signal.period_length, signal.sample_rate):
        raise ValueError(
            f"spectrum of {spectrum.length} bins at {spectrum.sample_rate} Hz does not "
            f"belong to a period of {signal.period_length} at {signal.sample_rate} Hz"
        )
    report = floor_report(spectrum, theta)
    if report.bins_changed == 0:
        return signal, report
    with np.errstate(over="ignore", invalid="ignore"):  # inverse_dft refuses a non-finite bin
        floored = apply_floor(spectrum, theta)
    return inverse_dft(floored), report


def build_test_stream(period: SampleStream, repeats: int) -> SampleStream:
    """Concatenate the period ``repeats`` times into a playable test stream."""
    return SampleStream(np.tile(period.samples, repeats), period.sample_rate)
