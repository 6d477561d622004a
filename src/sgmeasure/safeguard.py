"""DFT-magnitude flooring: turn an arbitrary period into a safeguarded excitation.

Flooring raises every DFT bin magnitude to at least a threshold theta while
preserving phase, so the bin-wise deconvolution ``Y[k]/X[k]`` stays well
conditioned at every frequency.  A period is a 1-D float64 array of at
least 2 samples, theta a positive finite float in linear DFT units.  dB
flooring levels are always relative to the mean absolute bin magnitude of
the source spectrum (0 dB reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import forward_dft_raw, full_spectrum_mean, hermitian_sum
from .errors import DegenerateSpectrum, LevelOutOfRange

__all__ = [
    "SafeguardReport",
    "floor_threshold",
    "floor_report",
    "floor_period",
    "safeguard_period",
]

# A bin is below theta when its magnitude is below theta*(1 - 2^-50).  The
# few-ulp guard keeps flooring bit-for-bit idempotent: a bin already raised
# to the floor re-measures at theta*(1 +- 2 ulp).
_GUARD = 1.0 - 2.0**-50


@dataclass(frozen=True)
class SafeguardReport:
    """What flooring at ``theta_linear`` did: bins touched and added deterministic level.

    ``added_component_db`` is the power of (x_s - x) relative to the power
    of x, read from the spectrum by :func:`floor_report`; -inf when no bin
    changed.
    """

    theta_linear: float
    bins_changed: int
    fraction_changed: float
    added_component_db: float


def floor_threshold(magnitude: np.ndarray, length: int, level_db: float) -> float:
    """Theta at ``level_db`` relative to the mean of a period's bin magnitudes.

    ``magnitude`` holds |X[k]| of bins 0..length//2.  0 dB is the mean
    magnitude over all ``length`` bins itself.  An all-zero spectrum raises
    :class:`DegenerateSpectrum`, and a level whose threshold overflows
    float64 or underflows to zero raises :class:`LevelOutOfRange`.
    """
    mean_mag = full_spectrum_mean(magnitude, length)
    if mean_mag == 0.0:
        raise DegenerateSpectrum("all-zero spectrum has no magnitude reference")
    try:
        theta = mean_mag * 10.0 ** (level_db / 20.0)
    except OverflowError:
        theta = math.inf
    if not 0.0 < theta < math.inf:
        raise LevelOutOfRange(f"flooring level {level_db} dB is beyond float64 range")
    return theta


def floor_report(magnitude: np.ndarray, length: int, theta: float) -> SafeguardReport:
    """What flooring at ``theta`` does to the bins 0..length//2 of magnitude ``magnitude``.

    A floored bin k gains (theta - |X[k]|) in magnitude along its own
    phase, so by Parseval the added component's power over the signal's is
    sum (theta - |X[k]|)^2 over the floored bins / sum |X[k]|^2, with no
    inverse transform.  Flooring a silent period adds +inf dB, and so does
    an added power beyond float64.
    """
    low = magnitude < theta * _GUARD
    changed = int(hermitian_sum(low, length))
    if changed == 0:
        return SafeguardReport(theta, 0, 0.0, -math.inf)
    # an overflowed square gives +inf dB: the regression refuses it, and the
    # safeguard command refuses the floored period (beyond float32) first
    with np.errstate(divide="ignore", over="ignore"):
        added = hermitian_sum(np.where(low, theta - magnitude, 0.0) ** 2, length)
        total = hermitian_sum(magnitude**2, length)
        added_db = float(10.0 * np.log10(added / total)) if total > 0 else math.inf
    return SafeguardReport(theta, changed, changed / length, added_db)


def floor_period(
    period: np.ndarray, bins: np.ndarray, magnitude: np.ndarray, theta: float
) -> np.ndarray:
    """The period whose bins are ``bins`` with every magnitude raised to at least theta.

    ``bins`` are bins 0..L//2 of ``period`` and ``magnitude`` their
    absolute values; neither is changed.  Raised bins keep their phase,
    zero bins become theta + 0i (phase 0 keeps bin 0 and bin L/2 real),
    and the others pass through bit-exactly.  With no bin below theta the
    period itself is returned, not a transform round-trip of it.  A floored
    period that overflows float64 raises :class:`LevelOutOfRange`.
    """
    low = magnitude < theta * _GUARD
    if not low.any():
        return period
    out = bins.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        out[low] = theta * bins[low] / magnitude[low]  # 0/0 at a zero bin, set next
        out[magnitude == 0] = theta
        samples = np.fft.irfft(out, n=period.size)
    if not np.all(np.isfinite(samples)):
        peak = float(np.max(np.abs(out)))
        raise LevelOutOfRange(f"inverse DFT of bins up to {peak!r} overflows float64")
    return samples


def safeguard_period(period, theta_db: float) -> tuple[np.ndarray, SafeguardReport]:
    """Floor ``period`` at ``theta_db`` and return the safeguarded period plus report.

    ``period`` must be 1-D, finite and at least 2 samples long, or
    :class:`ValueError` is raised.  A vacuous floor (no bin below the
    threshold) returns the period unchanged as float64.
    """
    period = np.asarray(period, dtype=np.float64)
    if period.ndim != 1 or period.size < 2:
        raise ValueError(f"a period is 1-D with at least 2 samples, got shape {period.shape}")
    if not np.all(np.isfinite(period)):
        raise ValueError("samples must be finite")
    bins = forward_dft_raw(period)
    magnitude = np.abs(bins)
    theta = floor_threshold(magnitude, period.size, theta_db)
    report = floor_report(magnitude, period.size, theta)
    return floor_period(period, bins, magnitude, theta), report
