"""Transfer estimation from excitation/recording pairs and response separation.

A recording of a repeated safeguarded period is cut into M non-overlapping
length-L segments, viewed as one (M, L) block (:func:`segment_block`).
Each row is transformed on the bins the caller keeps and divided by X_s
(:func:`estimate_transfer`), giving one transfer estimate H[k] = Y[k]/X_s[k]
per row.  The mean and variance over the M rows separate the time-invariant
response from the random/time-varying one
(:func:`time_invariant_response`); the mean and variance over the per-signal
results of P different test signals separate the LTI response from the
signal-dependent one (:func:`signal_dependent_response`).  Both spreads
are unbiased sample variances (denominators M-1 and P-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Spectrum, forward_dft_raw
from .errors import (
    InsufficientRepetitions,
    InsufficientSignals,
    StreamTooShort,
    ZeroBinExcitation,
)

__all__ = [
    "SeparationResult",
    "segment_block",
    "excitation_bins",
    "estimate_transfer",
    "time_invariant_response",
    "signal_dependent_response",
    "fractional_octave_smooth",
    "impulse_response",
]


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


def segment_block(samples: np.ndarray, period_length: int, count: int, skip: int) -> np.ndarray:
    """``count`` consecutive length-L segments after ``skip`` samples, as one (count, L) view.

    The preamble must cover at least the first period plus any propagation
    delay; alignment with the period phase is not required.  No copy is made.
    """
    if count < 1:
        raise ValueError("segment count must be >= 1")
    if skip < 0:
        raise ValueError("skip must be >= 0")
    if skip + count * period_length > samples.size:
        raise StreamTooShort(
            f"stream of {samples.size} samples cannot hold {count} segments of "
            f"{period_length} after skipping {skip}"
        )
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


def divide_spectra(y_bins: np.ndarray, x_bins: np.ndarray) -> np.ndarray:
    """Bin-wise H = Y/X_s, one row per segment; a non-finite H raises.

    ``x_bins`` comes from :func:`excitation_bins`, which checked it for zeros.
    """
    h = y_bins / x_bins
    if not np.all(np.isfinite(h)):
        raise ValueError("transfer estimate has non-finite bins")
    return h


def estimate_transfer(block: np.ndarray, x_bins: np.ndarray) -> np.ndarray:
    """(M, K) transfer estimates of an (M, L) segment block on the K bins of ``x_bins``.

    ``x_bins`` comes from :func:`excitation_bins`, which checked it for zeros.
    """
    return divide_spectra(segment_spectra(block, x_bins.size), x_bins)


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0, adding the rows in order.

    numpy reduces axis 0 of a C-contiguous (M, K) array row by row when
    K >= 2; a single column it sums pairwise, so that case accumulates.
    """
    return a.sum(axis=0) if a.shape[1] > 1 else np.cumsum(a, axis=0)[-1]


def _mean_and_variance(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin-wise mean and unbiased sample variance over the first axis.

    The rows are added in order and squared magnitudes are formed as
    re^2 + im^2, so the result is bit-identical to a direct summation of
    the formulas.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    if rows.ndim != 2:
        raise ValueError(f"expected one estimate per row of a 2-D array, got shape {rows.shape}")
    n = rows.shape[0]
    mean = _sum_rows(rows) / n
    sq = (rows - mean).view(np.float64)  # re, im of each deviation, interleaved
    sq *= sq
    return mean, _sum_rows(sq[:, 0::2] + sq[:, 1::2]) / (n - 1)


def time_invariant_response(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean response and unbiased per-bin variance over the M rows of an (M, K) array.

    Returns ``(h_sti, d_stv_sq)``: the time-invariant response and the
    squared absolute random/time-varying response.
    """
    m = len(h)
    if m < 2:
        raise InsufficientRepetitions(f"need M >= 2 repeated estimates, got {m}")
    return _mean_and_variance(h)


def signal_dependent_response(per_signal_h_sti: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean response and unbiased per-bin variance over the P rows of a (P, K) array.

    Each row is one test signal's h_sti.  Returns ``(h_slti, h_ssdr_sq)``:
    the LTI response and the squared absolute signal-dependent response.
    """
    p = len(per_signal_h_sti)
    if p < 2:
        raise InsufficientSignals(f"need P >= 2 distinct signals, got {p}")
    return _mean_and_variance(per_signal_h_sti)


def fractional_octave_smooth(
    power_spectrum: np.ndarray,
    fraction: float = 1.0 / 3.0,
) -> np.ndarray:
    """Rectangular log-frequency smoothing of a power spectrum.

    Each bin k > 0 up to L/2 is replaced by the arithmetic mean of the
    power over bins whose frequency lies within +-fraction/2 octave of the
    bin center, clamped to the valid band.  Bin 0 passes through and the
    upper half mirrors the lower to keep the symmetry of a real signal's
    spectrum.
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


def impulse_response(h: np.ndarray) -> np.ndarray:
    """Impulse response from one full-length transfer estimate H[0..L-1].

    The estimate is symmetrized, (H[k] + conj(H[-k mod L]))/2, before the
    1/L inverse transform so the result is exactly real.
    """
    L = h.size
    sym = 0.5 * (h + np.conj(h[(-np.arange(L)) % L]))
    return np.fft.ifft(sym).real
