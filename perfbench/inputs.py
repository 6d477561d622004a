"""Deterministic workload inputs, built with plain numpy.

Nothing here imports ``sgmeasure``: the program under test receives only
the files written by :func:`write_analyze_session` and
:func:`write_simulate_configs`.  The same seed always gives the same bytes.

An analyze session is built the way a real measurement would be: a
music-like period has its DFT magnitudes floored at the mean magnitude,
M+1 periods are tiled, and the tiled stream goes through a short FIR
"room", a mild tanh "loudspeaker" and additive noise.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 48000
EXPERIMENTS = ("regression", "max-deviation", "random", "nonlinearity")


@dataclass(frozen=True)
class AnalyzeSpec:
    """Shape of one analyze workload."""

    period_length: int
    m_count: int
    p_count: int
    encoding: str  # "float32" or "pcm24"
    background_segments: int  # 0 means no background recording
    smooth: str  # value of --smooth
    report_suffix: str  # ".json" or ".csv"


ANALYZE_SPECS = {
    "analyze-wide": AnalyzeSpec(65536, 8, 4, "float32", 8, "1/3", ".json"),
    "analyze-deep": AnalyzeSpec(4096, 64, 8, "pcm24", 0, "none", ".csv"),
}


@dataclass(frozen=True)
class AnalyzeSession:
    """The decoded samples of a written session, exactly as the files hold them."""

    spec: AnalyzeSpec
    excitations: list[np.ndarray]
    recordings: list[np.ndarray]
    background: np.ndarray | None
    argv: list[str]
    report: Path


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def music_period(length: int, rng: np.random.Generator) -> np.ndarray:
    """A few enveloped harmonic notes plus a little noise, one period long."""
    n = np.arange(length)
    out = np.zeros(length)
    for _ in range(6):
        f0 = 110.0 * 2.0 ** (rng.integers(0, 36) / 12.0)
        onset = rng.integers(0, length)
        env = np.exp(-((n - onset) % length) / (0.25 * length))
        for h in range(1, 12):
            if h * f0 >= SAMPLE_RATE / 2:
                break
            phase = rng.uniform(0, 2 * np.pi)
            out += env * h**-1.2 * np.sin(2 * np.pi * h * f0 * n / SAMPLE_RATE + phase)
    out += 0.01 * rng.standard_normal(length)
    return out


def floor_magnitudes(period: np.ndarray) -> np.ndarray:
    """Raise every one-sided DFT magnitude to the mean magnitude, keeping phase."""
    bins = np.fft.rfft(period)
    mag = np.abs(bins)
    theta = float(np.mean(mag))
    low = (mag > 0) & (mag < theta)
    floored = bins.copy()
    floored[low] *= theta / mag[low]
    floored[mag == 0] = theta
    return np.fft.irfft(floored, n=period.size)


def measured_chain(stream: np.ndarray, rng: np.random.Generator, noise: float) -> np.ndarray:
    """Short FIR room, mild tanh loudspeaker, additive Gaussian noise."""
    taps = 0.3 * rng.standard_normal(24) * np.exp(-np.arange(24) / 6.0)
    taps[2] = 1.0
    filtered = np.convolve(stream, taps)[: stream.size]
    driven = np.tanh(0.8 * filtered) / 0.8
    return driven + noise * rng.standard_normal(stream.size)


def quantize(samples: np.ndarray, encoding: str) -> np.ndarray:
    """The float64 values a reader decodes from ``samples`` written as ``encoding``."""
    if encoding == "float32":
        return samples.astype("<f4").astype(np.float64)
    ints = np.clip(np.round(samples * 2.0**23), -(2**23), 2**23 - 1)
    return ints / 2.0**23


def write_wav(path: Path, samples: np.ndarray, encoding: str) -> None:
    """Mono RIFF/WAVE writer: IEEE float32 or PCM 24-bit."""
    if encoding == "float32":
        audio_format, bits = 3, 32
        payload = samples.astype("<f4").tobytes()
    else:
        audio_format, bits = 1, 24
        ints = np.round(samples * 2.0**23).astype("<i4")
        payload = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16, audio_format, 1,
        SAMPLE_RATE, SAMPLE_RATE * bits // 8, bits // 8, bits, b"data", len(payload),
    )
    path.write_bytes(header + payload)


def write_analyze_session(workload: str, seed: int, workdir: Path) -> AnalyzeSession:
    """Write the WAVs and ``session.json`` of one analyze workload."""
    spec = ANALYZE_SPECS[workload]
    L, M = spec.period_length, spec.m_count
    workdir.mkdir(parents=True, exist_ok=True)
    entries, excitations, recordings = [], [], []
    for p in range(spec.p_count):
        rng = _rng(seed, p)
        period = floor_magnitudes(music_period(L, rng))
        period = quantize(0.5 * period / np.max(np.abs(period)), spec.encoding)
        recorded = measured_chain(np.tile(period, M + 1), rng, noise=1e-3)
        recorded = quantize(recorded, spec.encoding)
        exc_name, rec_name = f"exc_{p}.wav", f"rec_{p}.wav"
        write_wav(workdir / exc_name, period, spec.encoding)
        write_wav(workdir / rec_name, recorded, spec.encoding)
        entries.append({"excitation": exc_name, "recording": rec_name})
        excitations.append(period)
        recordings.append(recorded)
    manifest = {
        "schema_version": 1,
        "sample_rate": SAMPLE_RATE,
        "period_length": L,
        "segments_per_recording": M,
        "skip_preamble": L,
        "entries": entries,
        "seed": seed,
    }
    background = None
    if spec.background_segments:
        rng = _rng(seed, 0xB6)
        n = (spec.background_segments + 1) * L
        background = quantize(1e-3 * rng.standard_normal(n), spec.encoding)
        write_wav(workdir / "silence.wav", background, spec.encoding)
        manifest["background_recording"] = "silence.wav"
    manifest_path = workdir / "session.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    report = workdir / ("report" + spec.report_suffix)
    argv = ["analyze", "--manifest", str(manifest_path), "--smooth", spec.smooth,
            "--out", str(report)]
    return AnalyzeSession(spec, excitations, recordings, background, argv, report)


def write_simulate_configs(experiment_seed: int, workdir: Path) -> list[tuple[str, list[str], Path]]:
    """Write one default config per experiment, differing only in ``seed``.

    Returns ``(experiment, argv, report_path)`` for each experiment.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name in EXPERIMENTS:
        config = workdir / f"{name}.config.json"
        config.write_text(json.dumps({"seed": experiment_seed}) + "\n")
        report = workdir / f"{name}.csv"
        argv = ["simulate", "--experiment", name, "--config", str(config),
                "--out", str(report)]
        jobs.append((name, argv, report))
    return jobs
