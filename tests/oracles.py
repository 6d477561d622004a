"""Slow direct-summation references that the library's fast paths are checked against."""

import numpy as np

from sgmeasure.core import PeriodicSignal
from sgmeasure.errors import ImpulseResponseTooLong


def circular_convolve(x: PeriodicSignal, h: np.ndarray) -> PeriodicSignal:
    """Circular convolution by direct summation: y[n] = sum_m h[m] x[(n-m) mod L].

    O(L * len(h)); :func:`sgmeasure.core.circular_convolve_fast` must agree
    with it to 1e-10.
    """
    h = np.asarray(h, dtype=np.float64)
    L = x.period_length
    if h.size > L:
        raise ImpulseResponseTooLong(f"len(h)={h.size} exceeds period L={L}")
    y = np.zeros(L)
    for m, hm in enumerate(h):
        y += hm * np.roll(x.samples, m)
    return PeriodicSignal(y, x.sample_rate)
