"""Transfer estimation from excitation/recording pairs and response separation.

A recording of a repeated safeguarded period is cut into M non-overlapping
length-L segments, viewed as one (M, L) block (:func:`segment_block`).
The block is transformed onto its K = L//2 + 1 one-sided bins, which carry
all of a real signal's spectrum, in one call, and divided by X_s in place
(:func:`estimate_transfer`), giving one transfer estimate H[k] = Y[k]/X_s[k]
per row.  The mean and variance over the M rows separate the time-invariant
response from the random/time-varying one (:func:`time_invariant_block`,
which reduces the estimate in its own memory, so no array the size of H is
made beside it); the mean and variance over the per-signal results of P
different test signals separate the LTI response from the signal-dependent
one (:func:`signal_dependent_response`).  Both spreads are unbiased sample
variances (denominators M-1 and P-1).
:func:`separate_signals` runs the whole separation on P estimates, reducing
each one as it arrives, so a generator of estimates keeps one in memory.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .core import forward_dft_raw
from .errors import (
    InsufficientRepetitions,
    InsufficientSignals,
    StreamTooShort,
    ZeroBinExcitation,
)

__all__ = [
    "segment_block",
    "excitation_bins",
    "estimate_transfer",
    "time_invariant_block",
    "signal_dependent_response",
    "separate_signals",
    "impulse_response",
]


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


def excitation_bins(period: np.ndarray) -> np.ndarray:
    """Bins 0..L//2 of a real excitation period's spectrum, checked once for zeros.

    For a real period X_s[L-k] = conj(X_s[k]), so a zero anywhere in the
    full spectrum is a zero among these bins.  Every bin must be nonzero:
    the excitation must be safeguarded.
    """
    x_bins = forward_dft_raw(period)
    if np.any(x_bins == 0):
        raise ZeroBinExcitation("excitation has zero bins; safeguard it first")
    return x_bins


def divide_spectra(y_bins: np.ndarray, x_bins: np.ndarray) -> np.ndarray:
    """Bin-wise H = Y/X_s in the memory of ``y_bins``, one row per segment; a non-finite H raises.

    ``x_bins`` comes from :func:`excitation_bins`, which checked it for zeros.
    """
    y_bins /= x_bins
    if not np.all(np.isfinite(y_bins)):
        raise ValueError("transfer estimate has non-finite bins")
    return y_bins


def estimate_transfer(block: np.ndarray, x_bins: np.ndarray) -> np.ndarray:
    """(M, L//2 + 1) transfer estimates of an (M, L) segment block.

    ``x_bins`` comes from :func:`excitation_bins` of a length-L period,
    which checked it for zeros.  The spectra are divided in place, so the
    estimate is the only (M, K) array made.
    """
    L = block.shape[1]
    if x_bins.shape != (L // 2 + 1,):
        raise ValueError(f"{x_bins.size} excitation bins for segments of length {L}")
    return divide_spectra(forward_dft_raw(block), x_bins)


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0, adding the rows in order.

    numpy reduces axis 0 of an (M, K) array row by row when K >= 2; a
    single column it sums pairwise, so that case accumulates.
    """
    return a.sum(axis=0) if a.shape[1] > 1 else np.cumsum(a, axis=0)[-1]


def _reduce_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin-wise mean and unbiased sample variance over the rows of a complex (n, K) array.

    ``rows`` is overwritten: the deviations from the mean, squared part by
    part, are formed in its memory.  The rows are added in order and
    squared magnitudes are formed as re^2 + im^2, so the result is
    bit-identical to a direct summation of the formulas.  Fewer than two
    rows raise :class:`InsufficientRepetitions`: a reduction over P checks
    for two signals first.
    """
    if rows.ndim != 2:
        raise ValueError(f"expected one estimate per row of a 2-D array, got shape {rows.shape}")
    n = rows.shape[0]
    if n < 2:
        raise InsufficientRepetitions(f"need M >= 2 repeated estimates, got {n}")
    mean = _sum_rows(rows)
    mean /= n
    rows -= mean
    sq = rows.view(np.float64)  # re, im of each deviation, interleaved
    sq *= sq
    re = sq[:, 0::2]
    np.add(re, sq[:, 1::2], out=re)
    var = _sum_rows(re)
    var /= n - 1
    return mean, var


def time_invariant_block(block: np.ndarray, x_bins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and unbiased per-bin variance over M of :func:`estimate_transfer` of an (M, L) block.

    Returns ``(h_sti, d_stv_sq)``: the time-invariant response and the
    squared absolute random/time-varying response.  The estimate is reduced
    in its own memory and not returned.
    """
    return _reduce_rows(estimate_transfer(block, x_bins))


def signal_dependent_response(per_signal_h_sti: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean response and unbiased per-bin variance over the P rows of a (P, K) array.

    Each row is one test signal's h_sti.  Returns ``(h_slti, h_ssdr_sq)``:
    the LTI response and the squared absolute signal-dependent response.
    The input is not modified.
    """
    p = len(per_signal_h_sti)
    if p < 2:
        raise InsufficientSignals(f"need P >= 2 distinct signals, got {p}")
    return _reduce_rows(np.array(per_signal_h_sti, dtype=np.complex128))


def separate_signals(
    estimates: Iterable[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Separate the responses of P test signals from their (M, K) transfer estimates.

    Each estimate, such as :func:`estimate_transfer` gives, is reduced over
    its M rows in its own memory as it arrives, overwriting it, and is not
    referenced once reduced, so ``estimates`` may be a generator that makes
    one at a time.  Returns ``(h_sti, d_stv_sq, h_slti, h_ssdr_sq)``: the
    per-signal statistics stacked as (P, K) arrays, then
    :func:`signal_dependent_response` of ``h_sti``; with P = 1, ``h_slti``
    is the single row and ``h_ssdr_sq`` is None.
    """
    means, variances = [], []
    # map binds no estimate between calls; a loop over ``estimates`` would
    # keep the last one alive while the next one is made
    for mean, var in map(_reduce_rows, estimates):
        means.append(mean)
        variances.append(var)
    if not means:
        raise InsufficientSignals("need at least one signal")
    h_sti = np.vstack(means)
    del means  # each list goes once it is stacked, so no row is held twice for long
    d_stv_sq = np.vstack(variances)
    del variances
    if len(h_sti) == 1:
        return h_sti, d_stv_sq, h_sti[0], None
    return h_sti, d_stv_sq, *signal_dependent_response(h_sti)


def smooth_one_sided(power: np.ndarray, fraction: float) -> np.ndarray:
    """Rectangular log-frequency smoothing of bins 0..L/2 of a power spectrum.

    Each bin k > 0 is replaced by the arithmetic mean of the power over
    bins whose frequency lies within +-fraction/2 octave of the bin center,
    clamped to the valid band; bin 0 passes through.
    """
    if fraction <= 0:
        raise ValueError("fraction must be positive")
    half = power.size - 1
    k = np.arange(1, half + 1)
    factor = 2.0 ** min(fraction / 2.0, 64.0)  # 2**64 spans every bin an array can hold
    lo = np.maximum(np.ceil(k / factor).astype(np.int64), 1)
    hi = np.minimum(np.floor(k * factor), half).astype(np.int64)  # clamped before the cast
    csum = np.concatenate(([0.0], np.cumsum(power[1:])))
    out = power.copy()
    out[1:] = (csum[hi] - csum[lo - 1]) / (hi - lo + 1)
    return out


def impulse_response(h: np.ndarray, length: int) -> np.ndarray:
    """Length-``length`` impulse response from one transfer estimate H[0..length//2].

    The 1/L inverse transform extends H to the Hermitian spectrum of a real
    response, taking the real part of H[0] (and of H[L/2] for even L).
    """
    return np.fft.irfft(h, n=length)
