"""Slow, direct references that the library's fast and streaming paths are checked against."""

import json
import math
import struct

import numpy as np

from sgmeasure.core import PeriodicSignal, inverse_dft
from sgmeasure.errors import ImpulseResponseTooLong
from sgmeasure.separation import (
    signal_dependent_response,
    smooth_one_sided,
    time_invariant_block,
)


def power_db(samples: np.ndarray) -> float:
    """Mean-square power in dB; -inf for all-zero input."""
    mean_sq = float(np.mean(np.asarray(samples, dtype=np.float64) ** 2))
    return 10.0 * np.log10(mean_sq) if mean_sq > 0.0 else float("-inf")


def time_invariant_response(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and unbiased variance over the M rows of an (M, K) estimate, summed row by row.

    Returns ``(h_sti, d_stv_sq)``.  :func:`sgmeasure.separation.time_invariant_block`
    reduces the estimate of a block in its own memory and must agree bit for bit.
    """
    rows = list(np.asarray(h, dtype=np.complex128))
    total = 0
    for row in rows:
        total = total + row
    mean = total / len(rows)
    spread = 0
    for row in rows:
        d = row - mean
        spread = spread + (d.real**2 + d.imag**2)
    return mean, spread / (len(rows) - 1)


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


def fractional_octave_smooth(power_spectrum: np.ndarray, fraction: float = 1.0 / 3.0):
    """:func:`sgmeasure.separation.smooth_one_sided` over all L bins of a power spectrum.

    Bins 0..L/2 are smoothed and the upper half mirrors the lower, keeping
    the symmetry of a real signal's spectrum.
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


def separate_stacked(pairs) -> tuple:
    """Every (block, x_bins) pair reduced over M, the P rows stacked, then reduced over P.

    :func:`sgmeasure.separation.separate_signals` reduces each block as it
    arrives and must agree bit for bit.  With P = 1 the LTI response is
    the single row and there is no signal-dependent response.
    """
    rows = [time_invariant_block(block, x_bins) for block, x_bins in pairs]
    h_sti = np.vstack([mean for mean, _ in rows])
    d_stv_sq = np.vstack([var for _, var in rows])
    if len(rows) == 1:
        return h_sti, d_stv_sq, h_sti[0], None
    return (h_sti, d_stv_sq, *signal_dependent_response(h_sti))


def added_component_db(samples: np.ndarray, floored) -> float:
    """The floored period's change measured in time: power_db(irfft(floored) - x) - power_db(x).

    :func:`sgmeasure.safeguard.floor_report` reads the same level from the
    bins by Parseval, without the inverse transform.
    """
    x = np.asarray(samples, dtype=np.float64)
    return power_db(inverse_dft(floored).samples - x) - power_db(x)


def pcm_samples(payload: bytes, width: int) -> np.ndarray:
    """PCM samples of ``width`` bytes assembled byte by byte: the lower bytes unsigned,
    the top byte signed, over 2**(8 * width - 1).

    :func:`sgmeasure.wavio.read_audio` decodes the same bytes through numpy
    dtypes (PCM24 through one strided view) and must agree bit for bit.
    """
    b = np.frombuffer(payload, dtype=np.uint8).reshape(-1, width)
    codes = b[:, -1].astype(np.int8).astype(np.int32) << 8 * (width - 1)
    for i in range(width - 1):
        codes |= b[:, i].astype(np.int32) << 8 * i
    return codes.astype(np.float64) / 2.0 ** (8 * width - 1)


def float32_samples(payload: bytes) -> np.ndarray:
    """Little-endian float32 samples unpacked one by one with :mod:`struct`."""
    return np.array(struct.unpack(f"<{len(payload) // 4}f", payload), dtype=np.float64)


def _clean(value):
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    return value


def _cells(column, null):
    try:
        cells = list(map(float.__repr__, column))
    except TypeError:  # ints or None among the cells
        cells = [float.__repr__(v) if isinstance(v, float) else repr(v) for v in column]
    for i in np.flatnonzero(~np.isfinite(np.asarray(column, dtype=np.float64))):
        cells[i] = null
    return cells


def report_json(report) -> str:
    """A report's JSON text built whole: the summary head, then every column in one string.

    :func:`sgmeasure.reports.write_report` streams the same bytes column by column.
    """
    head = json.dumps(
        {
            "schema_version": report.schema_version,
            "summary": {k: _clean(v) for k, v in report.summary.items()},
        },
        indent=2,
        sort_keys=True,
    )
    if not report.table:
        table = "{}"
    else:
        items = []
        for name in sorted(report.table):
            cells = _cells(report.table[name], "null")
            body = "[\n      " + ",\n      ".join(cells) + "\n    ]" if cells else "[]"
            items.append(f"    {json.dumps(name)}: {body}")
        table = "{\n" + ",\n".join(items) + "\n  }"
    return head[:-2] + f',\n  "table": {table}\n}}\n'


def report_csv(report) -> str:
    """A report's CSV text built whole, every row joined at once.

    :func:`sgmeasure.reports.write_report` streams the same bytes in blocks of rows.
    """
    summary = {k: _clean(v) for k, v in report.summary.items()}
    columns = [_cells(col, "") for col in report.table.values()]
    lines = [
        f"# schema_version: {report.schema_version}",
        "# summary: " + json.dumps(summary, sort_keys=True),
        ",".join(report.table),
        *map(",".join, zip(*columns)),
    ]
    return "\n".join(lines) + "\n"
