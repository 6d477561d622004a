"""Manifest-driven analysis of a measurement session.

A session manifest lists, per test signal, the safeguarded excitation
period file and the recording of its repeated playback, plus the segment
bookkeeping (period length, segments per recording, preamble skip).  The
analysis pipeline is: view each recording as an (M, L) segment block,
deconvolve the block on bins 0..L/2 (all the report reads), then separate
the time-invariant, random, LTI and signal-dependent responses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import SampleStream, Spectrum, forward_dft_raw
from .errors import ManifestError, SampleRateMismatch
from .reports import SCHEMA_VERSION, AnalysisReport
from .separation import (
    SeparationResult,
    divide_spectra,
    estimate_transfer,
    excitation_bins,
    segment_block,
    segment_spectra,
    signal_dependent_response,
    smooth_one_sided,
    time_invariant_response,
)
from .wavio import read_audio

__all__ = ["SessionEntry", "SessionManifest", "load_manifest", "analyze_session"]


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


MANIFEST_KEYS = frozenset({
    "schema_version", "sample_rate", "period_length", "segments_per_recording",
    "skip_preamble", "entries", "background_recording", "seed",
    "theta_reference_db", "calibration",
})
ENTRY_KEYS = frozenset({"excitation", "recording"})


def load_manifest(path: str | Path) -> SessionManifest:
    """Load and validate a session manifest; file paths resolve relative to it.

    Unknown keys, an unsupported schema version, and segment bookkeeping
    that is not an integer or out of range raise :class:`ManifestError`.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
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
        theta_db = doc.get("theta_reference_db")
        theta_db = float(theta_db) if theta_db is not None else None
        entries = tuple(entry(e) for e in doc["entries"])
        background = doc.get("background_recording")
        background = resolve(background) if background else None
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
        seed=doc.get("seed"),
        theta_reference_db=theta_db,
        calibration=doc.get("calibration", {}),
        schema_version=schema_version,
    )


def _read_checked(path: Path, manifest: SessionManifest) -> SampleStream:
    stream = read_audio(path)
    if stream.sample_rate != manifest.sample_rate:
        raise SampleRateMismatch(
            f"{path}: {stream.sample_rate} Hz, manifest says {manifest.sample_rate} Hz"
        )
    return stream


def _excitation_spectrum(path: Path, manifest: SessionManifest) -> tuple[np.ndarray, float]:
    """Bins 0..L/2 of the excitation period's spectrum, and the period's power."""
    stream = _read_checked(path, manifest)
    L = manifest.period_length
    if len(stream) < L:
        raise ManifestError(f"{path}: excitation shorter than period length {L}")
    period = stream.samples[:L]
    spectrum = Spectrum(forward_dft_raw(period), manifest.sample_rate, hermitian=True)
    return excitation_bins(spectrum, L // 2 + 1), float(np.mean(period**2))


def separate_session(
    manifest: SessionManifest,
) -> tuple[SeparationResult, dict, list[np.ndarray]]:
    """Run the estimation pipeline on bins 0..L/2.

    Returns the separation, the power bookkeeping, and the one-sided
    excitation spectra for the background estimate.
    """
    L = manifest.period_length
    M = manifest.segments_per_recording
    excitations, h_sti, d_stv_sq = [], [], []
    output_power, excitation_power = [], []
    for entry in manifest.entries:
        x_bins, exc_power = _excitation_spectrum(entry.excitation, manifest)
        excitations.append(x_bins)
        excitation_power.append(exc_power)
        recording = _read_checked(entry.recording, manifest)
        block = segment_block(recording.samples, L, M, manifest.skip_preamble)
        output_power.append(float(np.mean(block.ravel() ** 2)))
        mean, var = time_invariant_response(estimate_transfer(block, x_bins))
        h_sti.append(mean)
        d_stv_sq.append(var)
    h_sti, d_stv_sq = np.vstack(h_sti), np.vstack(d_stv_sq)
    p_count = len(manifest.entries)
    if p_count >= 2:
        h_slti, h_ssdr_sq = signal_dependent_response(h_sti)
    else:
        h_slti, h_ssdr_sq = h_sti[0], None
    result = SeparationResult(
        h_sti=h_sti,
        d_stv_sq=d_stv_sq,
        h_slti=h_slti,
        h_ssdr_sq=h_ssdr_sq,
        m_count=M,
        p_count=p_count,
    )
    powers = {
        "output_power": float(np.mean(output_power)),
        "excitation_power": float(np.mean(excitation_power)),
    }
    return result, powers, excitations


def _background_level(manifest: SessionManifest, excitations: list[np.ndarray]) -> np.ndarray:
    """Mean |noise DFT / X_s|^2 over all signals and available segments.

    The background segments are transformed once.  The sum runs signal by
    signal, segment by segment, the order that fixes the report's bytes.
    """
    recording = _read_checked(manifest.background_recording, manifest)
    L = manifest.period_length
    usable = (len(recording) - manifest.skip_preamble) // L
    if usable < 1:
        raise ManifestError("background recording too short for one segment")
    block = segment_block(recording.samples, L, usable, manifest.skip_preamble)
    y_bins = segment_spectra(block, L // 2 + 1)
    acc = np.zeros(y_bins.shape[1])
    for x_bins in excitations:
        for power in np.abs(divide_spectra(y_bins, x_bins)) ** 2:
            acc += power
    return acc / (len(excitations) * usable)


def _db_power(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(values)


def analyze_session(
    manifest: SessionManifest, smooth_fraction: float | None = None
) -> AnalysisReport:
    """Full analysis: separation, optional smoothing, one-sided report table.

    Random and signal-dependent columns come in raw and output-power
    normalized variants; the normalization constant is recorded in the
    summary.  Smoothing operates on the power quantities.
    """
    result, powers, excitations = separate_session(manifest)
    L = manifest.period_length
    half = L // 2

    lti_power = np.abs(result.h_slti) ** 2
    random_power = np.mean(result.d_stv_sq, axis=0)
    sdr_power = result.h_ssdr_sq
    background_power = None
    if manifest.background_recording is not None:
        background_power = _background_level(manifest, excitations)

    normalization_db = 10.0 * math.log10(
        powers["output_power"] / powers["excitation_power"]
    )
    freq = np.arange(half + 1) * (manifest.sample_rate / L)
    table: dict[str, list] = {"frequency_hz": freq.tolist()}

    def add_power_column(name: str, power: np.ndarray | None, normalized: bool = False):
        if power is None:
            return
        col = _db_power(power)
        if normalized:
            col = col - normalization_db
        table[name] = col.tolist()

    add_power_column("lti_gain_db", lti_power)
    add_power_column("random_level_db", random_power)
    add_power_column("random_level_norm_db", random_power, normalized=True)
    add_power_column("signal_dependent_level_db", sdr_power)
    add_power_column("signal_dependent_level_norm_db", sdr_power, normalized=True)
    add_power_column("background_level_db", background_power)

    if smooth_fraction is not None:
        smooth = lambda p: smooth_one_sided(p, smooth_fraction)
        add_power_column("lti_gain_smooth_db", smooth(lti_power))
        add_power_column("random_level_smooth_db", smooth(random_power))
        if sdr_power is not None:
            add_power_column("signal_dependent_level_smooth_db", smooth(sdr_power))
        if background_power is not None:
            add_power_column("background_level_smooth_db", smooth(background_power))

    summary = {
        "sample_rate": manifest.sample_rate,
        "period_length": L,
        "m_count": result.m_count,
        "p_count": result.p_count,
        "skip_preamble": manifest.skip_preamble,
        "smoothing_fraction": smooth_fraction,
        "normalization_db": normalization_db,
        "output_power_db": 10.0 * math.log10(powers["output_power"]),
        "excitation_power_db": 10.0 * math.log10(powers["excitation_power"]),
        "theta_reference_db": manifest.theta_reference_db,
        "seed": manifest.seed,
        "calibration": manifest.calibration,
    }
    return AnalysisReport(summary=summary, table=table)
