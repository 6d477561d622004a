"""Report checks that do not use ``sgmeasure``.

Analyze reports are checked against a plain-numpy model of the paper's
estimator: stack each recording into an (M, L) block, take its one-sided
FFT, divide by the excitation's, then take the mean and unbiased variance
over M and again over P.  Simulate reports are checked against reference
tables stored per shipped seed.  In both cases every finite cell must lie
within ``TOLERANCE`` of the expected value, and the null cells and the
column names must be identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TOLERANCE = 1e-6  # dB for level columns; the same absolute bound elsewhere


class Mismatch(Exception):
    """A report disagrees with the expected one."""


def read_report(path: Path) -> tuple[dict, list[str], dict[str, list]]:
    """Parse a JSON or CSV report into (summary, column names, table)."""
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        return doc["summary"], list(doc["table"]), doc["table"]
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# schema_version:"):
        raise Mismatch(f"{path.name}: not a report CSV")
    summary = json.loads(lines[1].split(":", 1)[1])
    names = lines[2].split(",")
    columns: list[list] = [[] for _ in names]
    for line in lines[3:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise Mismatch(f"{path.name}: row has {len(cells)} cells, header {len(names)}")
        for col, cell in zip(columns, cells):
            col.append(float(cell) if cell else None)
    return summary, names, dict(zip(names, columns))


def _db(power: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(power)


def _mean_var(block: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    mean = block.mean(axis=axis)
    dev = block - np.expand_dims(mean, axis)
    var = (dev.real**2 + dev.imag**2).sum(axis=axis) / (block.shape[axis] - 1)
    return mean, var


def smooth_one_sided(power: np.ndarray, fraction: float) -> np.ndarray:
    """Mean power over bins within +-fraction/2 octave of each bin 1..L/2; bin 0 kept."""
    half = power.size - 1
    k = np.arange(1, half + 1)
    factor = 2.0 ** (fraction / 2.0)
    lo = np.maximum(np.ceil(k / factor).astype(np.int64), 1)
    hi = np.minimum(np.floor(k * factor).astype(np.int64), half)
    csum = np.concatenate(([0.0], np.cumsum(power[1:])))
    out = power.copy()
    out[1:] = (csum[hi] - csum[lo - 1]) / (hi - lo + 1)
    return out


def expected_analyze(session) -> tuple[dict, list[str], dict[str, np.ndarray]]:
    """Expected (summary, column order, columns) of an analyze report."""
    spec = session.spec
    L, M, P = spec.period_length, spec.m_count, len(session.excitations)
    X = np.fft.rfft(np.stack(session.excitations), axis=1)  # (P, K)
    segments = np.stack([r[L : L + M * L].reshape(M, L) for r in session.recordings])
    H = np.fft.rfft(segments, axis=2) / X[:, None, :]  # (P, M, K)
    h_sti, d_stv = _mean_var(H, axis=1)
    if P >= 2:
        lti, sdr = _mean_var(h_sti, axis=0)
    else:
        lti, sdr = h_sti[0], None
    lti_power = np.abs(lti) ** 2
    random_power = d_stv.mean(axis=0)

    out_power = float(np.mean([np.mean(r[L : L + M * L] ** 2) for r in session.recordings]))
    exc_power = float(np.mean([np.mean(x**2) for x in session.excitations]))
    norm_db = 10.0 * math.log10(out_power / exc_power)

    powers = {"lti_gain_db": lti_power, "random_level_db": random_power}
    columns = {
        "frequency_hz": np.arange(L // 2 + 1) * (48000 / L),
        "lti_gain_db": _db(lti_power),
        "random_level_db": _db(random_power),
        "random_level_norm_db": _db(random_power) - norm_db,
    }
    if sdr is not None:
        powers["signal_dependent_level_db"] = sdr
        columns["signal_dependent_level_db"] = _db(sdr)
        columns["signal_dependent_level_norm_db"] = _db(sdr) - norm_db
    if session.background is not None:
        usable = (session.background.size - L) // L
        noise = np.fft.rfft(session.background[L : L + usable * L].reshape(usable, L), axis=1)
        ratio = np.abs(noise[None, :, :] / X[:, None, :]) ** 2
        powers["background_level_db"] = ratio.reshape(-1, ratio.shape[2]).mean(axis=0)
        columns["background_level_db"] = _db(powers["background_level_db"])
    fraction = None
    if spec.smooth != "none":
        num, den = spec.smooth.split("/")
        fraction = int(num) / int(den)
        for name, power in powers.items():
            columns[name.replace("_db", "_smooth_db")] = _db(smooth_one_sided(power, fraction))
    summary = {
        "sample_rate": 48000,
        "period_length": L,
        "m_count": M,
        "p_count": P,
        "skip_preamble": L,
        "smoothing_fraction": fraction,
        "normalization_db": norm_db,
        "output_power_db": 10.0 * math.log10(out_power),
        "excitation_power_db": 10.0 * math.log10(exc_power),
    }
    return summary, list(columns), columns


def compare(
    label: str,
    actual: tuple[dict, list[str], dict[str, list]],
    expected: tuple[dict, list[str], dict],
    ordered: bool,
) -> None:
    """Raise :class:`Mismatch` unless ``actual`` matches ``expected`` within TOLERANCE.

    ``ordered`` demands the same column order (CSV); otherwise only the
    same set of names (JSON objects are written with sorted keys).
    """
    summary, names, table = actual
    exp_summary, exp_names, exp_table = expected
    if (names if ordered else sorted(names)) != (exp_names if ordered else sorted(exp_names)):
        raise Mismatch(f"{label}: columns {names} != {exp_names}")
    for key, want in exp_summary.items():
        got = summary.get(key, "<missing>")
        if isinstance(want, float) and isinstance(got, (int, float)):
            if abs(got - want) <= TOLERANCE:
                continue
        elif got == want:
            continue
        raise Mismatch(f"{label}: summary {key} = {got!r}, expected {want!r}")
    for name in exp_names:
        got = np.array([math.nan if v is None else v for v in table[name]], dtype=float)
        want = np.asarray(
            [math.nan if v is None else v for v in exp_table[name]], dtype=float
        )
        want = np.where(np.isfinite(want), want, math.nan)
        if got.shape != want.shape:
            raise Mismatch(f"{label}: {name} has {got.size} rows, expected {want.size}")
        null_got, null_want = np.isnan(got), np.isnan(want)
        if not np.array_equal(null_got, null_want):
            raise Mismatch(f"{label}: {name} null cells differ")
        err = np.abs(got[~null_got] - want[~null_want])
        if err.size and not float(err.max()) <= TOLERANCE:
            raise Mismatch(f"{label}: {name} off by {float(err.max()):.3e}")
