"""Transfer estimation from excitation/recording pairs and response separation.

The paper's steps, in order.  A recording of a repeated safeguarded period
is cut into M non-overlapping length-L segments, viewed as one (M, L)
block (:func:`segment_block`).  The excitation period's spectrum is taken
on its K = L//2 + 1 one-sided bins, which carry all of a real signal's
spectrum (:func:`excitation_bins`).  The block is transformed in one call
and divided by X_s in place (:func:`estimate_transfer`), giving one
transfer estimate H[k] = Y[k]/X_s[k] per row.  One statistic, the bin-wise
mean and unbiased sample variance, is then taken twice
(:func:`separate_signals`): over the M rows of each estimate, which
separates the time-invariant response from the random/time-varying one,
and over the per-signal means of P different test signals, which
separates the LTI response from the signal-dependent one.  Each estimate
is reduced in its own memory as it arrives, so a generator of estimates
keeps one in memory.  A length-L impulse response is
``np.fft.irfft(h, n=L)`` of a one-sided estimate.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .core import forward_dft_raw
from .errors import (
    InsufficientRepetitions,
    InsufficientSignals,
    LevelOutOfRange,
    StreamTooShort,
    ZeroBinExcitation,
)

__all__ = [
    "segment_block",
    "excitation_bins",
    "estimate_transfer",
    "separate_signals",
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
    """Bins 0..L//2 of a real excitation period's spectrum, or of each row of a (P, L) stack.

    For a real period X_s[L-k] = conj(X_s[k]), so a zero anywhere in the
    full spectrum is a zero among these bins.  Every bin must be nonzero,
    checked once: the excitation must be safeguarded.
    """
    x_bins = forward_dft_raw(period)
    if np.any(x_bins == 0):
        raise ZeroBinExcitation("excitation has zero bins; safeguard it first")
    return x_bins


def estimate_transfer(block: np.ndarray, x_bins: np.ndarray) -> np.ndarray:
    """(M, L//2 + 1) transfer estimates of an (M, L) segment block; a non-finite bin raises.

    ``x_bins`` comes from :func:`excitation_bins` of a length-L period,
    which checked it for zeros.  The spectra are divided in place, so the
    estimate is the only (M, K) array made.
    """
    L = block.shape[1]
    if x_bins.shape != (L // 2 + 1,):
        raise ValueError(f"{x_bins.size} excitation bins for segments of length {L}")
    h = forward_dft_raw(block)
    h /= x_bins
    if not np.all(np.isfinite(h)):
        raise LevelOutOfRange("transfer estimate has non-finite bins")
    return h


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
    rows raise :class:`InsufficientRepetitions`; :func:`separate_signals`
    reduces over P only when it has two signals.  A non-finite mean raises
    :class:`LevelOutOfRange`: an IEEE sum is non-finite exactly when a term
    is or the sum overflows, so this one check of K bins refuses every
    non-finite estimate.
    """
    n = rows.shape[0]
    if n < 2:
        raise InsufficientRepetitions(f"need M >= 2 repeated estimates, got {n}")
    mean = _sum_rows(rows)
    mean /= n
    if not np.all(np.isfinite(mean)):
        raise LevelOutOfRange(f"the mean of {n} transfer estimates has non-finite bins")
    rows -= mean
    sq = rows.view(np.float64)  # re, im of each deviation, interleaved
    sq *= sq
    re = sq[:, 0::2]
    np.add(re, sq[:, 1::2], out=re)
    var = _sum_rows(re)
    var /= n - 1
    return mean, var


def separate_signals(
    estimates: Iterable[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Separate the responses of P test signals from their (M, K) transfer estimates.

    Each estimate, such as :func:`estimate_transfer` gives, is reduced over
    its M rows in its own memory as it arrives, overwriting it, and is not
    referenced once reduced, so ``estimates`` may be a generator that makes
    one at a time.  Returns ``(h_sti, d_stv_sq, h_slti, h_ssdr_sq)``: the
    time-invariant responses and squared random/time-varying responses,
    stacked as (P, K) arrays, then the mean and unbiased variance of
    ``h_sti`` over P, reduced in a copy so ``h_sti`` is returned intact:
    the LTI response and the squared signal-dependent response.  With
    P = 1, ``h_slti`` is the single row and ``h_ssdr_sq`` is None.
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
    return h_sti, d_stv_sq, *_reduce_rows(h_sti.copy())


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

