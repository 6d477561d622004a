"""Manifest-driven analysis of a measurement session.

A session manifest lists, per test signal, the safeguarded excitation
period file and the recording of its repeated playback, plus the segment
bookkeeping (period length, segments per recording, preamble skip).  The
analysis pipeline is one pass over each recording's M length-L segments,
a piece at a time: transform a piece on bins 0..L/2 (all the report reads)
into its rows of an (M, K) estimate, add its squares into the output power,
then divide by the excitation; then separate the time-invariant, random,
LTI and signal-dependent responses.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import forward_dft_raw
from .errors import (
    LevelOutOfRange,
    ManifestError,
    SampleRateMismatch,
    SilentRecording,
    StreamTooShort,
)
from .reports import SCHEMA_VERSION, AnalysisReport
from .separation import excitation_bins, separate_signals, smooth_one_sided
from .wavio import AudioFile, open_audio, read_audio

__all__ = ["SessionEntry", "SessionManifest", "load_manifest", "analyze_session"]

# Samples of a recording decoded at once (512 KiB as float64): a piece holds
# this many samples in whole segments, or one segment when it is longer.
_PIECE_SAMPLES = 1 << 16


@dataclass(frozen=True)
class SessionEntry:
    """One test signal: its excitation period file and the recording of it."""

    excitation: Path
    recording: Path


@dataclass(frozen=True)
class SessionManifest:
    """Everything needed to reproduce an analysis run."""

    sample_rate: int
    period_length: int
    segments_per_recording: int
    skip_preamble: int
    entries: tuple[SessionEntry, ...]
    background_recording: Path | None = None
    seed: int | None = None
    theta_reference_db: float | None = None
    calibration: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION


MANIFEST_KEYS = frozenset(f.name for f in fields(SessionManifest))
ENTRY_KEYS = frozenset(f.name for f in fields(SessionEntry))


def load_manifest(path: str | Path) -> SessionManifest:
    """Load and validate a session manifest; file paths resolve relative to it.

    Unknown keys, an unsupported schema version, segment bookkeeping that
    is not an integer or out of range, and a summary key of the wrong type
    (``seed`` an integer or null, ``theta_reference_db`` a finite number or
    null, ``calibration`` an object, ``background_recording`` a non-empty
    file name or null) raise :class:`ManifestError`.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # also bad UTF-8 and over-long integers
        raise ManifestError(f"cannot load manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"invalid manifest {path}: not a JSON object")
    base = path.parent

    def resolve(name: str) -> Path:
        p = base / name
        if not p.exists():
            raise ManifestError(f"manifest references missing file: {p}")
        return p

    def entry(e: dict) -> SessionEntry:
        if set(e) - ENTRY_KEYS:
            raise ManifestError(f"invalid manifest {path}: unknown entry keys in {e}")
        return SessionEntry(resolve(e["excitation"]), resolve(e["recording"]))

    def integer(name: str, value, least: int) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
            raise ManifestError(f"{path}: {name} must be an integer, got {value!r}")
        if value < least:
            raise ManifestError(f"{path}: {name} must be >= {least}, got {value}")
        return int(value)

    def typed(name: str, default, ok, expected: str):
        value = doc.get(name, default)
        if not ok(value):
            raise ManifestError(f"{path}: {name} must be {expected}, got {value!r}")
        return value

    try:
        schema_version = integer(
            "schema_version", doc.get("schema_version", SCHEMA_VERSION), 1
        )
        if schema_version != SCHEMA_VERSION:
            raise ManifestError(
                f"{path}: schema_version {schema_version} is not supported "
                f"(expected {SCHEMA_VERSION})"
            )
        unknown = set(doc) - MANIFEST_KEYS
        if unknown:
            raise ManifestError(f"{path}: unknown manifest keys {sorted(unknown)}")
        period_length = integer("period_length", doc["period_length"], 2)
        sample_rate = integer("sample_rate", doc["sample_rate"], 1)
        segments = integer("segments_per_recording", doc["segments_per_recording"], 1)
        skip = integer("skip_preamble", doc.get("skip_preamble", period_length), 0)
        seed = typed("seed", None, lambda v: v is None or type(v) is int, "an integer or null")
        theta_db = typed(
            "theta_reference_db", None,
            lambda v: v is None or type(v) in (int, float) and math.isfinite(v),
            "a finite number or null",
        )
        theta_db = float(theta_db) if theta_db is not None else None
        calibration = typed("calibration", {}, lambda v: isinstance(v, dict), "an object")
        entries = tuple(entry(e) for e in doc["entries"])
        background = typed(
            "background_recording", None,
            lambda v: v is None or isinstance(v, str) and v != "", "a non-empty file name or null",
        )
        background = resolve(background) if background is not None else None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ManifestError(f"invalid manifest {path}: {exc}") from exc
    if not entries:
        raise ManifestError("manifest has no entries")
    return SessionManifest(
        sample_rate=sample_rate,
        period_length=period_length,
        segments_per_recording=segments,
        skip_preamble=skip,
        entries=entries,
        background_recording=background,
        seed=seed,
        theta_reference_db=theta_db,
        calibration=calibration,
        schema_version=schema_version,
    )


def _check_rate(path: Path, rate: int, manifest: SessionManifest) -> None:
    """Refuse the file ``path`` when its sample rate is not the manifest's."""
    if rate != manifest.sample_rate:
        raise SampleRateMismatch(f"{path}: {rate} Hz, manifest says {manifest.sample_rate} Hz")


def _excitation_spectrum(path: Path, manifest: SessionManifest) -> tuple[np.ndarray, float]:
    """Bins 0..L/2 of the excitation period's spectrum, and the period's power."""
    samples, sample_rate = read_audio(path)
    _check_rate(path, sample_rate, manifest)
    L = manifest.period_length
    if samples.size < L:
        raise ManifestError(f"{path}: excitation shorter than period length {L}")
    period = samples[:L]
    return excitation_bins(period), float(np.mean(period**2))


def _pieces(audio: AudioFile, manifest: SessionManifest, count: int) -> Iterator:
    """(rows, (rows, L) samples) of each piece of the first ``count`` segments: the whole
    segments _PIECE_SAMPLES holds, or one segment."""
    L, skip = manifest.period_length, manifest.skip_preamble
    step = max(1, _PIECE_SAMPLES // L)
    rows = [slice(m, min(m + step, count)) for m in range(0, count, step)]
    samples = audio.read_ranges([(skip + r.start * L, skip + r.stop * L) for r in rows])
    return ((r, next(samples).reshape(-1, L)) for r in rows)


def _pairwise_sum(n: int, rest: list, pieces: Iterator[np.ndarray]) -> float:
    """``np.add.reduce`` of the next ``n`` values of ``pieces``, bit for bit, a piece at a time.

    It walks numpy's pairwise_sum tree: 8 accumulators over blocks of up to 128
    values, a longer run split at n//2 - (n//2) % 8.  ``rest[0]`` holds the unread
    values of the current piece, and a leaf across pieces carries its first values.
    """
    if not len(rest[0]):
        rest[0] = None  # the spent piece goes before the next one is made
        rest[0] = next(pieces)
    if n > 128 and n > len(rest[0]):
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(half, rest, pieces) + _pairwise_sum(n - half, rest, pieces)
    head, rest[0] = rest[0][:n], rest[0][n:]
    while len(head) < n:
        head, rest[0] = head.copy(), None
        rest[0] = next(pieces)
        take = n - len(head)
        head, rest[0] = np.concatenate((head, rest[0][:take])), rest[0][take:]
    return float(np.add.reduce(head))


def _estimate(entry: SessionEntry, manifest: SessionManifest, log: list) -> np.ndarray:
    """The (M, K) transfer estimate of one entry, its recording read once, a piece at a time.

    Each piece is transformed into its rows of the estimate, then squared in
    place and summed into the output power; ``(excitation power, output
    power)`` is appended to ``log``.
    """
    x_bins, exc_power = _excitation_spectrum(entry.excitation, manifest)
    audio = open_audio(entry.recording)
    _check_rate(entry.recording, audio.sample_rate, manifest)
    L, M, skip = manifest.period_length, manifest.segments_per_recording, manifest.skip_preamble
    if skip + M * L > audio.length:
        raise StreamTooShort(
            f"stream of {audio.length} samples cannot hold {M} segments of {L} "
            f"after skipping {skip}"
        )
    est = np.empty((M, L // 2 + 1), dtype=np.complex128)

    def squares():
        for rows, piece in _pieces(audio, manifest, M):
            forward_dft_raw(piece, out=est[rows])
            yield np.square(piece, out=piece).reshape(-1)
            del piece  # before the next piece is read
    # the pairwise sum of np.mean(block.ravel() ** 2), taken a piece at a time
    power = _pairwise_sum(M * L, [np.empty(0)], squares()) / (M * L)
    if power == 0.0:
        raise SilentRecording(f"{entry.recording}: the analyzed segments have zero power")
    log.append((exc_power, power))
    est /= x_bins  # separate_signals refuses a non-finite estimate from its mean
    return est


def _background_level(manifest: SessionManifest) -> np.ndarray:
    """Mean |noise DFT / X_s|^2 over all signals and available segments.

    The background segments are transformed once, a piece at a time, and
    each excitation spectrum is computed again from its file.  The sum runs
    signal by signal, segment by segment, the order that fixes the report's
    bytes; each segment's spectrum serves every signal, so a copy of it is
    divided and squared on its own and no (segments, bins) quotient is held.
    """
    audio = open_audio(manifest.background_recording)
    _check_rate(manifest.background_recording, audio.sample_rate, manifest)
    L, skip = manifest.period_length, manifest.skip_preamble
    usable = (audio.length - skip) // L
    if usable < 1:
        raise ManifestError("background recording too short for one segment")
    y_bins = np.empty((usable, L // 2 + 1), dtype=np.complex128)
    for rows, piece in _pieces(audio, manifest, usable):
        forward_dft_raw(piece, out=y_bins[rows])
        del piece  # before the next piece is read
    acc = np.zeros(y_bins.shape[1])
    for entry in manifest.entries:
        x_bins, _ = _excitation_spectrum(entry.excitation, manifest)
        for y in y_bins:
            acc += np.abs(y / x_bins) ** 2
    level = acc / (len(manifest.entries) * usable)
    if not np.all(np.isfinite(level)):
        raise LevelOutOfRange("background level has non-finite bins")
    return level


def _db_power(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(values)


def analyze_session(
    manifest: SessionManifest, smooth_fraction: float | None = None
) -> AnalysisReport:
    """Full analysis: separation, optional smoothing, one-sided report table.

    Random and signal-dependent columns come in raw and output-power
    normalized variants; the normalization constant is recorded in the
    summary.  Smoothing operates on the power quantities.  Each table column
    is a float64 array, one row per bin 0..L/2.
    """
    log: list[tuple[float, float]] = []
    estimates = (_estimate(entry, manifest, log) for entry in manifest.entries)
    h_sti, d_stv_sq, h_slti, sdr_power = separate_signals(estimates)
    excitation_power, output_power = zip(*log)
    L = manifest.period_length
    powers = {
        "lti_gain": np.abs(h_slti) ** 2,
        "random_level": np.mean(d_stv_sq, axis=0),
        "signal_dependent_level": sdr_power,  # None for a single signal
    }
    del h_sti, d_stv_sq, h_slti  # the (P, K) stacks go before the background is read
    if manifest.background_recording is not None:
        powers["background_level"] = _background_level(manifest)
    powers = {name: power for name, power in powers.items() if power is not None}

    output_power = float(np.mean(output_power))
    excitation_power = float(np.mean(excitation_power))
    normalization_db = 10.0 * math.log10(output_power / excitation_power)
    table = {"frequency_hz": np.arange(L // 2 + 1) * (manifest.sample_rate / L)}
    for name, power in powers.items():
        table[f"{name}_db"] = _db_power(power)
        if name in ("random_level", "signal_dependent_level"):
            table[f"{name}_norm_db"] = table[f"{name}_db"] - normalization_db
    if smooth_fraction is not None:
        for name, power in powers.items():
            table[f"{name}_smooth_db"] = _db_power(smooth_one_sided(power, smooth_fraction))

    summary = {
        "sample_rate": manifest.sample_rate,
        "period_length": L,
        "m_count": manifest.segments_per_recording,
        "p_count": len(manifest.entries),
        "skip_preamble": manifest.skip_preamble,
        "smoothing_fraction": smooth_fraction,
        "normalization_db": normalization_db,
        "output_power_db": 10.0 * math.log10(output_power),
        "excitation_power_db": 10.0 * math.log10(excitation_power),
        "theta_reference_db": manifest.theta_reference_db,
        "seed": manifest.seed,
        "calibration": manifest.calibration,
    }
    return AnalysisReport(summary=summary, table=table)
