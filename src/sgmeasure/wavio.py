"""Minimal RIFF/WAVE reader and writer.

Reads PCM 16/24-bit and 32-bit float, mono or stereo (stereo is averaged
to mono).  Writes mono files, 32-bit float by default.  The stdlib wave
module cannot handle float data, hence the hand-rolled chunk parsing.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import SampleStream
from .errors import CorruptFile, UnsupportedFormat

__all__ = ["read_audio", "write_audio"]

_FORMAT_PCM = 1
_FORMAT_FLOAT = 3


def read_audio(path: str | Path) -> SampleStream:
    """Read a WAV file into a mono SampleStream (stereo channels are averaged)."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CorruptFile(f"cannot read {path}: {exc}") from exc
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptFile(f"{path} is not a RIFF/WAVE file")

    fmt = None
    frames = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise CorruptFile(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise CorruptFile(f"{path}: truncated data chunk")
            frames = body
        pos += 8 + chunk_size + (chunk_size & 1)
    if fmt is None or frames is None:
        raise CorruptFile(f"{path}: missing fmt or data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{path}: {channels} channels (mono/stereo only)")
    if audio_format == _FORMAT_PCM and bits == 16:
        raw = np.frombuffer(frames, dtype="<i2").astype(np.float64) / 2.0**15
    elif audio_format == _FORMAT_PCM and bits == 24:
        b = np.frombuffer(frames, dtype=np.uint8)
        if b.size % 3:
            raise CorruptFile(f"{path}: data size not a multiple of the frame size")
        b = b.reshape(-1, 3)
        raw = (
            b[:, 0].astype(np.int32)
            | (b[:, 1].astype(np.int32) << 8)
            | (b[:, 2].astype(np.int8).astype(np.int32) << 16)
        ).astype(np.float64) / 2.0**23
    elif audio_format == _FORMAT_FLOAT and bits == 32:
        raw = np.frombuffer(frames, dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(raw)):
            raise CorruptFile(f"{path}: float data holds NaN or infinite samples")
    else:
        raise UnsupportedFormat(
            f"{path}: format code {audio_format} at {bits} bits "
            "(PCM 16/24-bit or 32-bit float only)"
        )
    if channels == 2:
        if raw.size % 2:
            raise CorruptFile(f"{path}: odd sample count for a stereo file")
        raw = raw.reshape(-1, 2).mean(axis=1)
    return SampleStream(raw, sample_rate, label=str(path))


def write_audio(path: str | Path, stream: SampleStream, encoding: str = "float32") -> None:
    """Write a mono WAV file.

    ``encoding`` is one of ``float32`` (default, lossless for our data),
    ``pcm16`` or ``pcm24``.
    """
    if encoding == "float32":
        audio_format, bits = _FORMAT_FLOAT, 32
        payload = stream.samples.astype("<f4").tobytes()
    elif encoding == "pcm16":
        audio_format, bits = _FORMAT_PCM, 16
        scaled = np.clip(np.round(stream.samples * 2.0**15), -(2**15), 2**15 - 1)
        payload = scaled.astype("<i2").tobytes()
    elif encoding == "pcm24":
        audio_format, bits = _FORMAT_PCM, 24
        scaled = np.clip(np.round(stream.samples * 2.0**23), -(2**23), 2**23 - 1)
        ints = scaled.astype(np.int32)
        b = np.empty((ints.size, 3), dtype=np.uint8)
        b[:, 0] = ints & 0xFF
        b[:, 1] = (ints >> 8) & 0xFF
        b[:, 2] = (ints >> 16) & 0xFF
        payload = b.tobytes()
    else:
        raise UnsupportedFormat(f"unknown encoding {encoding!r}")

    byte_rate = stream.sample_rate * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        audio_format,
        1,
        stream.sample_rate,
        byte_rate,
        bits // 8,
        bits,
        b"data",
        len(payload),
    )
    Path(path).write_bytes(header + payload)
