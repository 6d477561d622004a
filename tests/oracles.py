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


def chain_full_stream(period: np.ndarray, config, repeats: int) -> np.ndarray:
    """The simulator's deterministic stages run over the whole tiled stream.

    Gain and the nonlinearity act on all ``repeats`` * L samples, and the
    LTI stage is a full L-bin complex DFT product at the stream length: the
    formula :func:`sgmeasure.simulate.simulate_chain` replaces by one
    period's output, tiled.
    """
    from sgmeasure.simulate import nonlinearity

    stream = np.tile(np.asarray(period, dtype=np.float64), repeats)
    driven = nonlinearity(10.0 ** (config.input_level_db / 20.0) * stream, config.alpha)
    transfer = np.fft.fft(config.impulse_response, n=stream.size)
    return np.fft.ifft(np.fft.fft(driven) * transfer).real


def floor_full_spectrum(samples: np.ndarray, theta_linear: float) -> tuple[int, np.ndarray]:
    """Flooring on all L complex DFT bins: (bins changed, floored period).

    Every bin below the threshold is raised to it, keeping its phase (a zero
    bin becomes theta + 0i), and the period is the real part of the inverse.
    """
    bins = np.fft.fft(np.asarray(samples, dtype=np.float64))
    mag = np.abs(bins)
    low = mag < theta_linear * (1.0 - 2.0**-50)
    scaled = low & (mag > 0)
    out = bins.copy()
    out[scaled] = theta_linear * bins[scaled] / mag[scaled]
    out[mag == 0] = theta_linear
    return int(np.count_nonzero(low)), np.fft.ifft(out).real
