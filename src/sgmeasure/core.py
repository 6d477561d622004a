"""The DFT conventions.

Convention: unnormalized forward DFT, 1/L-normalized inverse.  A period is
a 1-D float64 array of L >= 2 samples; WAV I/O reads and writes an array
and a sample rate.  Every transform keeps only bins 0..L//2, which carry
all of a real signal's spectrum; L fixes the parity those bins leave open.
:func:`hermitian_sum` turns a quantity on those bins into its sum over all
L bins.
"""

from __future__ import annotations

import numpy as np

__all__ = ["forward_dft_raw"]


def forward_dft_raw(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Bins 0..L//2 of the real samples' forward DFT along the last axis, into ``out`` if given."""
    return np.fft.rfft(np.asarray(samples, dtype=np.float64), out=out)


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
