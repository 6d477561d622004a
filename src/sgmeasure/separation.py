"""Transfer estimation from excitation/recording pairs and response separation.

A recording of a repeated safeguarded period is cut into non-overlapping
length-L segments.  Each segment gives one transfer estimate
H[k] = Y[k]/X_s[k].  Averaging over repeated segments separates the
time-invariant response from the random/time-varying one; averaging the
per-signal results over different test signals separates the LTI response
from the signal-dependent one.  Both spreads are unbiased sample variances
(denominators M-1 and P-1).

The session analysis works on blocks: a recording's M segments form one
(M, L) view (:func:`segment_block`), each row is transformed on the bins the
caller keeps (:func:`segment_spectra`) and divided by X_s
(:func:`divide_spectra`), and the rows are reduced over axis 0
(:func:`time_invariant_block`).  The per-segment API
(:func:`estimate_transfer`, :func:`time_invariant_response`) runs through the
same excitation check, finiteness check and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SampleStream, Spectrum, forward_dft_raw
from .errors import (
    InsufficientRepetitions,
    InsufficientSignals,
    SegmentOutOfRange,
    StreamTooShort,
    ZeroBinExcitation,
)

__all__ = [
    "SegmentPlan",
    "TransferEstimate",
    "SeparationResult",
    "plan_segments",
    "estimate_transfer",
    "time_invariant_response",
    "signal_dependent_response",
    "fractional_octave_smooth",
    "impulse_response",
]


@dataclass(frozen=True)
class SegmentPlan:
    """Analysis segment start indices into a recording stream."""

    period_length: int
    starts: tuple[int, ...]
    skip_preamble: int

    def __post_init__(self):
        for s in self.starts:
            if s < self.skip_preamble:
                raise ValueError(f"segment start {s} inside skipped preamble")
        starts = sorted(self.starts)
        for a, b in zip(starts, starts[1:]):
            if b - a < self.period_length:
                raise ValueError("analysis segments overlap")


@dataclass(frozen=True)
class TransferEstimate:
    """One bin-wise transfer function H[k] = Y[k]/X_s[k]."""

    h_bins: np.ndarray
    sample_rate: int
    source_signal_id: int
    segment_start: int

    def __post_init__(self):
        bins = np.asarray(self.h_bins, dtype=np.complex128)
        _require_finite(bins)
        object.__setattr__(self, "h_bins", bins)

    @property
    def length(self) -> int:
        return self.h_bins.size


@dataclass(frozen=True)
class SeparationResult:
    """Separated responses for a full session.

    ``h_sti`` and ``d_stv_sq`` are stacked per test signal (shape (P, K) for
    the K bins analyzed, K = L//2 + 1 in a session analysis);
    ``h_slti`` / ``h_ssdr_sq`` aggregate over signals and are None when
    only one signal was measured.
    """

    h_sti: np.ndarray
    d_stv_sq: np.ndarray
    h_slti: np.ndarray | None
    h_ssdr_sq: np.ndarray | None
    m_count: int
    p_count: int


def plan_segments(stream_length: int, period_length: int, count: int, skip: int) -> SegmentPlan:
    """Consecutive non-overlapping length-L segments after the skipped preamble.

    The preamble must cover at least the first period plus any propagation
    delay; alignment with the period phase is not required.
    """
    if count < 1:
        raise ValueError("segment count must be >= 1")
    if skip < 0:
        raise ValueError("skip must be >= 0")
    if skip + count * period_length > stream_length:
        raise StreamTooShort(
            f"stream of {stream_length} samples cannot hold {count} segments of "
            f"{period_length} after skipping {skip}"
        )
    starts = tuple(skip + i * period_length for i in range(count))
    return SegmentPlan(period_length=period_length, starts=starts, skip_preamble=skip)


def segment_block(samples: np.ndarray, period_length: int, count: int, skip: int) -> np.ndarray:
    """The planned segments of a recording as one (count, L) view, no copy."""
    plan_segments(samples.size, period_length, count, skip)
    return samples[skip : skip + count * period_length].reshape(count, period_length)


def excitation_bins(excitation_spectrum: Spectrum, bins: int | None = None) -> np.ndarray:
    """The first ``bins`` excitation bins (all by default), checked once for zeros.

    Every |X_s[k]| of the full spectrum must be nonzero, so the excitation
    must be safeguarded.
    """
    x_bins = excitation_spectrum.bins
    if np.any(x_bins == 0):
        raise ZeroBinExcitation("excitation has zero bins; safeguard it first")
    return x_bins[:bins]


# Rows per FFT call in segment_spectra: about 1 MiB of complex output at a
# time, so a long block never materializes all its full-length spectra.
_FFT_CHUNK_POINTS = 1 << 16


def segment_spectra(block: np.ndarray, bins: int) -> np.ndarray:
    """Forward DFT of each row of an (M, L) block, keeping bins 0..bins-1."""
    m, L = block.shape
    rows = max(1, _FFT_CHUNK_POINTS // L)
    out = np.empty((m, bins), dtype=np.complex128)
    for i in range(0, m, rows):
        out[i : i + rows] = forward_dft_raw(block[i : i + rows])[:, :bins]
    return out


def _require_finite(h: np.ndarray) -> None:
    if not np.all(np.isfinite(h)):
        raise ValueError("transfer estimate has non-finite bins")


def divide_spectra(y_bins: np.ndarray, x_bins: np.ndarray) -> np.ndarray:
    """Bin-wise H = Y/X_s, one row per segment; a non-finite H raises.

    ``x_bins`` comes from :func:`excitation_bins`, which checked it for zeros.
    """
    h = y_bins / x_bins
    _require_finite(h)
    return h


def estimate_transfer(
    excitation_spectrum: Spectrum,
    recording: SampleStream,
    start: int,
    signal_id: int = 0,
) -> TransferEstimate:
    """Bin-wise deconvolution of one recording segment against the excitation.

    Requires a safeguarded excitation: every |X_s[k]| must be nonzero.
    """
    x_bins = excitation_bins(excitation_spectrum)
    L = x_bins.size
    if start < 0 or start + L > len(recording):
        raise SegmentOutOfRange(
            f"segment [{start}, {start + L}) outside recording of {len(recording)}"
        )
    y_bins = forward_dft_raw(recording.samples[start : start + L])
    return TransferEstimate(  # checks H for non-finite bins, as divide_spectra does
        h_bins=y_bins / x_bins,
        sample_rate=excitation_spectrum.sample_rate,
        source_signal_id=signal_id,
        segment_start=start,
    )


def _stack(estimates: list[np.ndarray]) -> np.ndarray:
    lengths = {e.size for e in estimates}
    if len(lengths) != 1:
        raise ValueError("estimates have mismatched lengths")
    return np.vstack(estimates)


def _mean_and_variance(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin-wise mean and unbiased sample variance over the first axis.

    numpy reduces axis 0 of a C-contiguous array row by row, and squared
    magnitudes are formed as re^2 + im^2, so the result is bit-identical to
    a direct summation of the formulas.
    """
    n = rows.shape[0]
    mean = rows.sum(axis=0) / n
    sq = (rows - mean).view(np.float64)  # re, im of each deviation, interleaved
    sq *= sq
    return mean, (sq[:, 0::2] + sq[:, 1::2]).sum(axis=0) / (n - 1)


def time_invariant_block(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and unbiased variance over the M rows of one signal's (M, K) estimates."""
    m = h.shape[0]
    if m < 2:
        raise InsufficientRepetitions(f"need M >= 2 repeated estimates, got {m}")
    return _mean_and_variance(h)


def time_invariant_response(
    estimates: list[TransferEstimate],
) -> tuple[np.ndarray, np.ndarray]:
    """Mean response and unbiased per-bin variance over M repeated segments.

    Returns ``(h_sti, d_stv_sq)``: the time-invariant response and the
    squared absolute random/time-varying response.
    """
    m = len(estimates)
    if m < 2:
        raise InsufficientRepetitions(f"need M >= 2 repeated estimates, got {m}")
    ids = {e.source_signal_id for e in estimates}
    if len(ids) != 1:
        raise ValueError("estimates mix different source signals")
    return time_invariant_block(_stack([e.h_bins for e in estimates]))


def signal_dependent_response(
    per_signal_h_sti: list[np.ndarray] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean response and unbiased per-bin variance over P distinct test signals.

    Takes one h_sti per signal, as a list or as the rows of a (P, K) array.
    Returns ``(h_slti, h_ssdr_sq)``: the LTI response and the squared
    absolute signal-dependent response.
    """
    p = len(per_signal_h_sti)
    if p < 2:
        raise InsufficientSignals(f"need P >= 2 distinct signals, got {p}")
    return _mean_and_variance(
        _stack([np.asarray(x, dtype=np.complex128) for x in per_signal_h_sti])
    )


def fractional_octave_smooth(
    power_spectrum: np.ndarray,
    fraction: float = 1.0 / 3.0,
    sample_rate: int | None = None,
) -> np.ndarray:
    """Rectangular log-frequency smoothing of a power spectrum.

    Each bin k > 0 up to L/2 is replaced by the arithmetic mean of the
    power over bins whose frequency lies within +-fraction/2 octave of the
    bin center, clamped to the valid band.  Bin 0 passes through and the
    upper half mirrors the lower to keep the symmetry of a real signal's
    spectrum.  ``sample_rate`` is irrelevant to the bin math (windows are
    constant relative bandwidth) and accepted only for interface symmetry.
    """
    p = np.asarray(power_spectrum, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("power spectrum must be nonnegative")
    L = p.size
    half = L // 2
    out = np.empty(L)
    out[: half + 1] = smooth_one_sided(p[: half + 1], fraction)
    # mirror onto the conjugate half (excludes Nyquist for even L, bin 0 always)
    mirror = np.arange(half + 1, L)
    out[mirror] = out[L - mirror]
    return out


def smooth_one_sided(power: np.ndarray, fraction: float) -> np.ndarray:
    """:func:`fractional_octave_smooth` on bins 0..L/2 of a power spectrum."""
    if fraction <= 0:
        raise ValueError("fraction must be positive")
    half = power.size - 1
    k = np.arange(1, half + 1)
    factor = 2.0 ** (fraction / 2.0)
    lo = np.maximum(np.ceil(k / factor).astype(np.int64), 1)
    hi = np.minimum(np.floor(k * factor).astype(np.int64), half)
    csum = np.concatenate(([0.0], np.cumsum(power[1:])))
    out = power.copy()
    out[1:] = (csum[hi] - csum[lo - 1]) / (hi - lo + 1)
    return out


def impulse_response(h: TransferEstimate) -> np.ndarray:
    """Impulse response from a transfer estimate.

    The estimate is symmetrized, (H[k] + conj(H[-k mod L]))/2, before the
    1/L inverse transform so the result is exactly real.
    """
    bins = h.h_bins
    L = bins.size
    sym = 0.5 * (bins + np.conj(bins[(-np.arange(L)) % L]))
    return np.fft.ifft(sym).real
