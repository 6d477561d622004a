"""Slow, direct references that the library's fast and streaming paths are checked against."""

import json
import math
import re
import shlex
import struct
from pathlib import Path

import numpy as np

from sgmeasure.cli import main
from sgmeasure.core import forward_dft_raw
from sgmeasure.errors import (
    InsufficientRepetitions,
    ManifestError,
    SampleRateMismatch,
    SilentRecording,
)
from sgmeasure.reports import SCHEMA_VERSION, AnalysisReport
from sgmeasure.separation import (
    estimate_transfer,
    excitation_bins,
    segment_block,
    smooth_one_sided,
)
from sgmeasure.wavio import read_audio


def power_db(samples: np.ndarray) -> float:
    """Mean-square power in dB; -inf for all-zero input."""
    mean_sq = float(np.mean(np.asarray(samples, dtype=np.float64) ** 2))
    return 10.0 * np.log10(mean_sq) if mean_sq > 0.0 else float("-inf")


def time_invariant_response(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and unbiased variance over the M rows of an (M, K) estimate, summed row by row.

    Returns ``(h_sti, d_stv_sq)``.  Applied to the P rows of per-signal
    means it gives ``(h_slti, h_ssdr_sq)``.  :func:`sgmeasure.separation.separate_signals`
    reduces each estimate in its own memory, and then their means, and must
    agree bit for bit.  Fewer than two rows raise :class:`InsufficientRepetitions`.
    """
    rows = list(np.asarray(h, dtype=np.complex128))
    if len(rows) < 2:
        raise InsufficientRepetitions(f"need M >= 2 repeated estimates, got {len(rows)}")
    total = 0
    for row in rows:
        total = total + row
    mean = total / len(rows)
    spread = 0
    for row in rows:
        d = row - mean
        spread = spread + (d.real**2 + d.imag**2)
    return mean, spread / (len(rows) - 1)


def circular_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Circular convolution by direct summation: y[n] = sum_m h[m] x[(n-m) mod L].

    The room of the estimator tests: the library has no LTI stage, and a
    recording of this output must give ``h`` back.
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    L = x.size
    if h.size > L:
        raise ValueError(f"len(h)={h.size} exceeds period L={L}")
    y = np.zeros(L)
    for m, hm in enumerate(h):
        y += hm * np.roll(x, m)
    return y


def chain_full_stream(
    period: np.ndarray, alpha: float, input_level_db: float, repeats: int
) -> np.ndarray:
    """The simulator's deterministic stages run over the whole tiled stream.

    Gain and the nonlinearity act on all ``repeats`` * L samples: the
    formula :func:`sgmeasure.simulate.simulate_chain` replaces by one
    period's output, tiled.
    """
    from sgmeasure.simulate import nonlinearity

    stream = np.tile(np.asarray(period, dtype=np.float64), repeats)
    return nonlinearity(10.0 ** (input_level_db / 20.0) * stream, alpha)


def floor_bins(bins: np.ndarray, theta_linear: float) -> tuple[np.ndarray, np.ndarray]:
    """(mask of the bins below the threshold, the bins floored at it).

    Every bin below the threshold is raised to it, keeping its phase; a zero
    bin becomes theta + 0i.
    """
    mag = np.abs(bins)
    low = mag < theta_linear * (1.0 - 2.0**-50)
    scaled = low & (mag > 0)
    out = bins.copy()
    out[scaled] = theta_linear * bins[scaled] / mag[scaled]
    out[mag == 0] = theta_linear
    return low, out


def floor_full_spectrum(samples: np.ndarray, theta_linear: float) -> tuple[int, np.ndarray]:
    """Flooring on all L complex DFT bins: (bins changed, floored period).

    The period is the real part of the inverse of the floored bins.
    """
    low, out = floor_bins(np.fft.fft(np.asarray(samples, dtype=np.float64)), theta_linear)
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

    Both reductions are :func:`time_invariant_response`'s loop.
    :func:`sgmeasure.separation.separate_signals` reduces each block as it
    arrives and must agree bit for bit.  With P = 1 the LTI response is
    the single row and there is no signal-dependent response.
    """
    rows = [time_invariant_response(estimate_transfer(block, x)) for block, x in pairs]
    h_sti = np.vstack([mean for mean, _ in rows])
    d_stv_sq = np.vstack([var for _, var in rows])
    if len(rows) == 1:
        return h_sti, d_stv_sq, h_sti[0], None
    return (h_sti, d_stv_sq, *time_invariant_response(h_sti))


def added_component_db(samples: np.ndarray, floored: np.ndarray) -> float:
    """The floored period's change measured in time: power_db(irfft(floored) - x) - power_db(x).

    ``floored`` holds bins 0..L//2 of the floored period of ``samples``.
    :func:`sgmeasure.safeguard.floor_report` reads the same level from the
    bins by Parseval, without the inverse transform.
    """
    x = np.asarray(samples, dtype=np.float64)
    return power_db(np.fft.irfft(floored, n=x.size) - x) - power_db(x)


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
            "schema_version": SCHEMA_VERSION,
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
        f"# schema_version: {SCHEMA_VERSION}",
        "# summary: " + json.dumps(summary, sort_keys=True),
        ",".join(report.table),
        *map(",".join, zip(*columns)),
    ]
    return "\n".join(lines) + "\n"


def read_report(path) -> AnalysisReport:
    """A written report parsed back: JSON by ``json.loads``, CSV line by line.

    A CSV cell becomes a float, or None where it is empty.  Written apart from
    :func:`sgmeasure.reports.write_report`, so the two cannot share a mistake.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        doc = json.loads(text)
        assert doc["schema_version"] == SCHEMA_VERSION
        return AnalysisReport(summary=doc["summary"], table=doc["table"])
    schema, summary, header, *rows = text.splitlines()
    assert schema == f"# schema_version: {SCHEMA_VERSION}"
    table = {name: [] for name in header.split(",")}
    for row in rows:
        for column, cell in zip(table.values(), row.split(","), strict=True):
            column.append(float(cell) if cell else None)
    return AnalysisReport(summary=json.loads(summary.removeprefix("# summary: ")), table=table)


def whole_recording_report(manifest, smooth_fraction=None) -> AnalysisReport:
    """The analysis of a session with each recording read whole and viewed as an (M, L) block.

    :func:`sgmeasure.session.analyze_session` reads a recording a piece at
    a time into its estimate and must give the same report bytes, and raise
    the same errors in the same order.
    """
    L, M, skip = manifest.period_length, manifest.segments_per_recording, manifest.skip_preamble

    def samples(path):
        samples, rate = read_audio(path)
        if rate != manifest.sample_rate:
            raise SampleRateMismatch(f"{path}: {rate} Hz")
        return samples

    def excitation(path):
        period = samples(path)
        if period.size < L:
            raise ManifestError(f"{path}: excitation shorter than period length {L}")
        return excitation_bins(period[:L]), float(np.mean(period[:L] ** 2))

    means, variances, excitation_power, output_power = [], [], [], []
    for entry in manifest.entries:
        x_bins, power = excitation(entry.excitation)
        excitation_power.append(power)
        block = segment_block(samples(entry.recording), L, M, skip)
        output_power.append(float(np.mean(block.ravel() ** 2)))
        if output_power[-1] == 0.0:
            raise SilentRecording(f"{entry.recording}")
        mean, var = time_invariant_response(estimate_transfer(block, x_bins))
        means.append(mean)
        variances.append(var)
    h_sti = np.vstack(means)
    if len(means) == 1:
        h_slti, sdr_power = h_sti[0], None
    else:
        h_slti, sdr_power = time_invariant_response(h_sti)
    lti_power = np.abs(h_slti) ** 2
    random_power = np.mean(np.vstack(variances), axis=0)

    background_power = None
    if manifest.background_recording is not None:
        noise = samples(manifest.background_recording)
        usable = (noise.size - skip) // L
        if usable < 1:
            raise ManifestError("background recording too short for one segment")
        y_bins = forward_dft_raw(segment_block(noise, L, usable, skip))
        acc = np.zeros(y_bins.shape[1])
        for entry in manifest.entries:
            x_bins, _ = excitation(entry.excitation)
            for y in y_bins:
                acc += np.abs(y / x_bins) ** 2
        background_power = acc / (len(manifest.entries) * usable)

    output_power = float(np.mean(output_power))
    excitation_power = float(np.mean(excitation_power))
    normalization_db = 10.0 * math.log10(output_power / excitation_power)

    def db(power):
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(power)

    table = {"frequency_hz": np.arange(L // 2 + 1) * (manifest.sample_rate / L)}
    powers = {
        "lti_gain": lti_power, "random_level": random_power,
        "signal_dependent_level": sdr_power, "background_level": background_power,
    }
    for name, power in powers.items():
        if power is not None:
            table[f"{name}_db"] = db(power)
            if name in ("random_level", "signal_dependent_level"):
                table[f"{name}_norm_db"] = db(power) - normalization_db
    if smooth_fraction is not None:
        for name, power in powers.items():
            if power is not None:
                table[f"{name}_smooth_db"] = db(smooth_one_sided(power, smooth_fraction))
    summary = {
        "sample_rate": manifest.sample_rate,
        "period_length": L,
        "m_count": M,
        "p_count": len(manifest.entries),
        "skip_preamble": skip,
        "smoothing_fraction": smooth_fraction,
        "normalization_db": normalization_db,
        "output_power_db": 10.0 * math.log10(output_power),
        "excitation_power_db": 10.0 * math.log10(excitation_power),
        "theta_reference_db": manifest.theta_reference_db,
        "seed": manifest.seed,
        "calibration": manifest.calibration,
    }
    return AnalysisReport(summary=summary, table=table)


def _mean_var(block: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    mean = block.mean(axis=axis)
    dev = block - np.expand_dims(mean, axis)
    return mean, (dev.real**2 + dev.imag**2).sum(axis=axis) / (block.shape[axis] - 1)


def _smooth(power: np.ndarray, fraction: float) -> np.ndarray:
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


def expected_analyze(excitations, recordings, background, L, M, skip, sample_rate, fraction):
    """(summary, columns) of an analyze report, from the decoded samples of its files.

    The paper's estimator in plain numpy: stack each recording into an
    (M, L) block, take its one-sided FFT, divide by the excitation's, then
    take the mean and unbiased variance over M and again over P.  Cells
    agree with the library's to rounding, not bit for bit.
    """
    X = np.fft.rfft(np.stack([x[:L] for x in excitations]), axis=1)  # (P, K)
    segments = np.stack([r[skip : skip + M * L].reshape(M, L) for r in recordings])
    H = np.fft.rfft(segments, axis=2) / X[:, None, :]  # (P, M, K)
    h_sti, d_stv = _mean_var(H, axis=1)
    if len(excitations) >= 2:
        lti, sdr = _mean_var(h_sti, axis=0)
    else:
        lti, sdr = h_sti[0], None
    out_power = float(np.mean([np.mean(r[skip : skip + M * L] ** 2) for r in recordings]))
    exc_power = float(np.mean([np.mean(x[:L] ** 2) for x in excitations]))
    norm_db = 10.0 * math.log10(out_power / exc_power)

    def db(power):
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(power)

    powers = {"lti_gain_db": np.abs(lti) ** 2, "random_level_db": d_stv.mean(axis=0)}
    if sdr is not None:
        powers["signal_dependent_level_db"] = sdr
    if background is not None:
        usable = (background.size - skip) // L
        noise = np.fft.rfft(background[skip : skip + usable * L].reshape(usable, L), axis=1)
        ratio = np.abs(noise[None, :, :] / X[:, None, :]) ** 2
        powers["background_level_db"] = ratio.reshape(-1, ratio.shape[2]).mean(axis=0)
    columns = {"frequency_hz": np.arange(L // 2 + 1) * (sample_rate / L)}
    for name, power in powers.items():
        columns[name] = db(power)
    for name in ("random_level", "signal_dependent_level"):
        if f"{name}_db" in powers:
            columns[f"{name}_norm_db"] = columns[f"{name}_db"] - norm_db
    if fraction is not None:
        for name, power in powers.items():
            columns[name.replace("_db", "_smooth_db")] = db(_smooth(power, fraction))
    summary = {
        "sample_rate": sample_rate,
        "period_length": L,
        "m_count": M,
        "p_count": len(excitations),
        "skip_preamble": skip,
        "smoothing_fraction": fraction,
        "normalization_db": norm_db,
        "output_power_db": 10.0 * math.log10(out_power),
        "excitation_power_db": 10.0 * math.log10(exc_power),
    }
    return summary, columns


README = Path(__file__).resolve().parents[1] / "README.md"


ENCODINGS = {"pcm16": (1, 16), "pcm24": (1, 24), "float32": (3, 32)}  # (format code, bits)


def write_wav(path: Path, samples, encoding: str = "float32", rate: int = 48000) -> None:
    """A mono WAV file of ``samples``; PCM codes are rounded from full scale 1."""
    code, bits = ENCODINGS[encoding]
    x = np.asarray(samples, dtype=np.float64)
    if encoding == "float32":
        data = x.astype("<f4").tobytes()
    else:
        top = 2.0 ** (bits - 1)
        codes = np.clip(np.round(x * top), -top, top - 1).astype("<i4")
        data = codes.view(np.uint8).reshape(-1, 4)[:, : bits // 8].tobytes()
    width = bits // 8
    path.write_bytes(struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE", b"fmt ", 16, code, 1,
        rate, rate * width, width, bits, b"data", len(data),
    ) + data)


def music_period(length: int, rate: int, rng: np.random.Generator) -> np.ndarray:
    """Four decaying harmonic notes, peak 0.5: music, whose |X| has deep gaps between and
    above the harmonics that only flooring fills."""
    t = np.arange(length) / rate
    x = np.zeros(length)
    for onset in np.sort(rng.integers(0, length // 2, 4)):
        f0 = 110.0 * 2.0 ** (rng.integers(0, 24) / 12)
        n = length - onset
        note = sum(np.sin(2 * np.pi * h * f0 * t[:n] + rng.uniform(0, 2 * np.pi)) / h
                   for h in range(1, 9))
        x[onset:] += note * np.exp(-t[:n] / rng.uniform(0.05, 0.2))
    return 0.5 * x / np.max(np.abs(x))


def readme_block(language: str, containing: str) -> str:
    """The README's first ```language block that contains ``containing``."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.S | re.M)
    return next(block for block in blocks if containing in block)


def readme_session(root: Path, music: list, rate: int, play) -> list[str]:
    """Make the README's measurement session in ``root`` the way its shell lines do.

    The README's manifest block is written as it is to ``session.json``.  For its p-th
    entry, ``music[p]`` is written as a PCM24 file, the README's ``safeguard``
    and ``make-test`` lines run through ``cli.main`` with that entry's file
    names (``floor_report_p.json`` for the floor report), and ``play`` turns
    the samples of the test stream into the recording, written as float32.
    The background the manifest names is silence as long as a recording.
    Returns the README's ``analyze`` line as ``cli.main`` arguments.
    """
    commands = readme_block("sh", "sgmeasure analyze").replace("\\\n", " ")
    split = (shlex.split(line, comments=True) for line in commands.splitlines())
    lines = {argv[1]: argv[1:] for argv in split if argv[:1] == ["sgmeasure"]}
    block = readme_block("json", '"entries"')
    (root / "session.json").write_text(block)
    manifest = json.loads(block)

    def run(argv: list[str], names: dict[str, str]) -> None:
        files = [arg for arg in argv if arg.endswith((".wav", ".json", ".csv"))]
        assert set(files) <= set(names), f"README line names unknown files: {argv}"
        assert main([str(root / names[a]) if a in names else a for a in argv]) == 0

    for p, entry in enumerate(manifest["entries"]):
        names = {"music.wav": f"music_{p}.wav", "excitation.wav": entry["excitation"],
                 "floor_report.json": f"floor_report_{p}.json",
                 "test_stream.wav": f"test_stream_{p}.wav"}
        write_wav(root / names["music.wav"], music[p], "pcm24", rate)
        run(lines["safeguard"], names)
        run(lines["make-test"], names)
        stream = read_audio(root / names["test_stream.wav"])[0]
        write_wav(root / entry["recording"], play(stream), "float32", rate)
    write_wav(root / manifest["background_recording"], np.zeros(stream.size), "float32", rate)
    analyze = lines["analyze"]
    names = {name: name for name in analyze if name.endswith((".json", ".csv"))}
    return [str(root / a) if a in names else a for a in analyze]
