"""Minimal RIFF/WAVE reader and writer.

Reads PCM 16/24-bit and 32-bit float, mono or stereo (stereo is averaged
to mono), in a plain fmt chunk or a ``WAVE_FORMAT_EXTENSIBLE`` (0xFFFE) one
whose subformat GUID is PCM or IEEE float.  Writes mono files, 32-bit
float by default.  The stdlib wave module cannot handle float data, hence
the hand-rolled chunk parsing.

PCM24 is decoded through one strided view of the file bytes: a little-endian
32-bit word every 3 bytes from one byte before the data (the chunk's size
field), so each word holds a sample above a spare byte, and an arithmetic
right shift by 8 sign-extends it.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import SampleStream
from .errors import ClippedOutput, CorruptFile, UnsupportedFormat

__all__ = ["read_audio", "write_audio"]

_FORMAT_PCM = 1
_FORMAT_FLOAT = 3
_FORMAT_EXTENSIBLE = 0xFFFE
_DECODABLE = ((_FORMAT_PCM, 16), (_FORMAT_PCM, 24), (_FORMAT_FLOAT, 32))  # (format code, bits)
# A KSDATAFORMAT_SUBTYPE_* GUID is a 2-byte format code followed by this tail.
_SUBTYPE_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def _extensible_format(fmt: bytes, path: Path) -> int:
    """The PCM or float format code named by a WAVE_FORMAT_EXTENSIBLE subformat GUID.

    The extension follows the 16-byte base fmt: cbSize (>= 22), valid bits,
    channel mask, then the 16-byte GUID at offset 24.
    """
    if len(fmt) < 40 or struct.unpack_from("<H", fmt, 16)[0] < 22:
        raise CorruptFile(f"{path}: truncated WAVE_FORMAT_EXTENSIBLE fmt chunk")
    (code,) = struct.unpack_from("<H", fmt, 24)
    if fmt[26:40] != _SUBTYPE_GUID_TAIL or code not in (_FORMAT_PCM, _FORMAT_FLOAT):
        raise UnsupportedFormat(
            f"{path}: extensible subformat GUID {fmt[24:40].hex()} (PCM or IEEE float only)"
        )
    return code


def read_audio(path: str | Path) -> SampleStream:
    """Read a WAV file into a mono SampleStream (stereo channels are averaged)."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CorruptFile(f"cannot read {path}: {exc}") from exc
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptFile(f"{path} is not a RIFF/WAVE file")

    view = memoryview(data)  # chunk bodies are views: the payload is not copied
    fmt = frames = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise CorruptFile(f"{path}: truncated fmt chunk")
            fmt = body
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise CorruptFile(f"{path}: truncated data chunk")
            frames, frames_start = body, pos + 8
        pos += 8 + chunk_size + (chunk_size & 1)
    if fmt is None or frames is None:
        raise CorruptFile(f"{path}: missing fmt or data chunk")

    audio_format, channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format == _FORMAT_EXTENSIBLE:
        audio_format = _extensible_format(fmt, path)
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{path}: {channels} channels (mono/stereo only)")
    if (audio_format, bits) not in _DECODABLE:
        raise UnsupportedFormat(
            f"{path}: format code {audio_format} at {bits} bits "
            "(PCM 16/24-bit or 32-bit float only)"
        )
    if len(frames) % (channels * bits // 8):
        raise CorruptFile(f"{path}: data size not a multiple of the frame size")
    if sample_rate == 0:
        raise CorruptFile(f"{path}: fmt chunk gives a sample rate of 0")
    if bits == 16:
        raw = np.frombuffer(frames, dtype="<i2").astype(np.float64) / 2.0**15
    elif bits == 24:
        words = np.ndarray((len(frames) // 3,), "<i4", data, frames_start - 1, (3,))
        raw = np.right_shift(words, 8) / 2.0**23
    else:
        raw = np.frombuffer(frames, dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(raw)):
            raise CorruptFile(f"{path}: float data holds NaN or infinite samples")
    if channels == 2:
        raw = raw.reshape(-1, 2).mean(axis=1)
    return SampleStream(raw, sample_rate)


def _refuse_unencodable(stream: SampleStream, out: np.ndarray, limit: str) -> None:
    """Raise :class:`ClippedOutput` if ``out`` marks any sample as beyond ``limit``."""
    if np.any(out):
        peak = float(np.max(np.abs(stream.samples)))
        raise ClippedOutput(f"{int(np.count_nonzero(out))} samples beyond {limit} (peak {peak!r})")


def _pcm_integers(stream: SampleStream, bits: int) -> np.ndarray:
    """Samples scaled and rounded to ``bits``-bit PCM integers; out-of-range samples raise."""
    full_scale = 2.0 ** (bits - 1)
    scaled = np.round(stream.samples * full_scale)
    out = (scaled < -full_scale) | (scaled > full_scale - 1)
    _refuse_unencodable(stream, out, f"{bits}-bit full scale; scale the stream or write float32")
    return scaled


def write_audio(path: str | Path, stream: SampleStream, encoding: str = "float32") -> None:
    """Write a mono WAV file.

    ``encoding`` is one of ``float32`` (default, lossless for our data),
    ``pcm16`` or ``pcm24``.  Samples the encoding cannot hold raise
    :class:`ClippedOutput`: for PCM those that round beyond its integer
    range, for float32 those beyond float32's range.  A sample rate whose
    byte rate does not fit the header's 32-bit field raises
    :class:`UnsupportedFormat`.  Both are checked before the file is opened.
    """
    if encoding == "float32":
        audio_format, bits = _FORMAT_FLOAT, 32
        with np.errstate(over="ignore"):  # an overflow is counted below
            f32 = stream.samples.astype("<f4")
        _refuse_unencodable(stream, ~np.isfinite(f32), "float32 range")
        payload = f32.tobytes()
    elif encoding == "pcm16":
        audio_format, bits = _FORMAT_PCM, 16
        payload = _pcm_integers(stream, bits).astype("<i2").tobytes()
    elif encoding == "pcm24":
        audio_format, bits = _FORMAT_PCM, 24
        ints = _pcm_integers(stream, bits).astype(np.int32)
        b = np.empty((ints.size, 3), dtype=np.uint8)
        b[:, 0] = ints & 0xFF
        b[:, 1] = (ints >> 8) & 0xFF
        b[:, 2] = (ints >> 16) & 0xFF
        payload = b.tobytes()
    else:
        raise UnsupportedFormat(f"unknown encoding {encoding!r}")

    byte_rate = stream.sample_rate * bits // 8
    if byte_rate > 0xFFFFFFFF:
        raise UnsupportedFormat(
            f"sample rate {stream.sample_rate} Hz: its byte rate does not fit a WAV header"
        )
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
