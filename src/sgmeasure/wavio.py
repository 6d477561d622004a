"""Minimal RIFF/WAVE reader and writer.

Reads mono PCM 16/24-bit and 32-bit float, in a plain fmt chunk or a
``WAVE_FORMAT_EXTENSIBLE`` (0xFFFE) one whose subformat GUID is PCM or IEEE
float.  A file of any other channel count is refused: the estimate needs
the recording of one path, and mixing channels would change it.  Writes
mono 32-bit float files, the header and then the samples, with no copy of
them.  The stdlib wave module cannot handle float data, hence the
hand-rolled chunk parsing.

One parser checks a file's bytes and one decoder turns data bytes into
float64 samples.  :func:`read_audio` decodes the whole data chunk.
:func:`open_audio` keeps only where the samples lie, and
:meth:`AudioFile.read_ranges` decodes ranges of them through one open file.

PCM24 is decoded through one strided view of the bytes: a little-endian
32-bit word every 3 bytes from one byte before the first sample (for the
whole chunk, the chunk's size field), so each word holds a sample above a
spare byte, and an arithmetic right shift by 8 sign-extends it.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import SampleStream
from .errors import ClippedOutput, CorruptFile, UnsupportedFormat, UnwritableOutput

__all__ = ["AudioFile", "open_audio", "read_audio", "write_audio"]

_FORMAT_PCM = 1
_FORMAT_FLOAT = 3
_FORMAT_EXTENSIBLE = 0xFFFE
_DECODABLE = ((_FORMAT_PCM, 16), (_FORMAT_PCM, 24), (_FORMAT_FLOAT, 32))  # (format code, bits)
# The RIFF and data chunk sizes are 32-bit fields: a float32 file holds at most this many samples.
MAX_FLOAT_SAMPLES = (0xFFFFFFFF - 36) // 4
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


def _parse(path: Path) -> tuple[AudioFile, bytes]:
    """Read a mono WAV file and check it, the finiteness of float data included.

    Returns where its samples lie and the file's bytes.
    """
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
    if channels != 1:
        raise UnsupportedFormat(
            f"{path}: {channels} channels; give the measured channel as a mono file"
        )
    if (audio_format, bits) not in _DECODABLE:
        raise UnsupportedFormat(
            f"{path}: format code {audio_format} at {bits} bits "
            "(PCM 16/24-bit or 32-bit float only)"
        )
    if len(frames) % (bits // 8):  # a mono frame is one sample
        raise CorruptFile(f"{path}: data size not a multiple of the frame size")
    if sample_rate == 0:
        raise CorruptFile(f"{path}: fmt chunk gives a sample rate of 0")
    if bits == 32 and not np.all(np.isfinite(np.frombuffer(frames, "<f4"))):
        raise CorruptFile(f"{path}: float data holds NaN or infinite samples")
    return AudioFile(path, frames_start, len(frames) // (bits // 8), bits, sample_rate), data


def _decode(buffer, offset: int, count: int, bits: int) -> np.ndarray:
    """``count`` samples from byte ``offset >= 1`` of ``buffer`` as float64."""
    if bits == 16:
        return np.frombuffer(buffer, "<i2", count, offset).astype(np.float64) / 2.0**15
    if bits == 24:
        words = np.ndarray((count,), "<i4", buffer, offset - 1, (3,))
        return np.right_shift(words, 8) / 2.0**23
    return np.frombuffer(buffer, "<f4", count, offset).astype(np.float64)


@dataclass(frozen=True)
class AudioFile:
    """A checked mono WAV file: where its samples lie, not the samples."""

    path: Path
    offset: int  # of the first sample's byte
    length: int  # samples
    bits: int
    sample_rate: int

    def read_ranges(self, ranges: Iterable[tuple[int, int]]) -> Iterator[np.ndarray]:
        """Samples ``start..stop-1`` of each range in turn, read through one open file.

        Each is float64, equal to that slice of :func:`read_audio`.  A file
        that no longer holds them raises :class:`CorruptFile`.
        """
        width = self.bits // 8
        try:
            with self.path.open("rb") as fh:
                for start, stop in ranges:
                    size = (stop - start) * width + 1  # from the byte before the first sample
                    fh.seek(self.offset + start * width - 1)
                    buffer = fh.read(size)
                    if len(buffer) < size:
                        raise CorruptFile(f"{self.path}: file is shorter than its data chunk")
                    yield _decode(buffer, 1, stop - start, self.bits)
        except OSError as exc:
            raise CorruptFile(f"cannot read {self.path}: {exc}") from exc


def open_audio(path: str | Path) -> AudioFile:
    """Check a mono WAV file as :func:`read_audio` does, and keep where its samples lie."""
    return _parse(Path(path))[0]


def read_audio(path: str | Path) -> SampleStream:
    """Read a mono WAV file into a SampleStream; other channel counts raise UnsupportedFormat."""
    audio, data = _parse(Path(path))
    return SampleStream(_decode(data, audio.offset, audio.length, audio.bits), audio.sample_rate)


def write_audio(path: str | Path, stream: SampleStream) -> None:
    """Write a mono 32-bit float WAV file: the header, then the float32 samples.

    Samples beyond float32's range raise :class:`ClippedOutput`; a sample
    rate whose byte rate, or a stream whose data size, does not fit the
    header's 32-bit fields raises :class:`UnsupportedFormat`.  All are
    checked before the file is opened.  A path that cannot be written
    raises :class:`UnwritableOutput`.
    """
    with np.errstate(over="ignore"):  # an overflow is counted below
        f32 = stream.samples.astype("<f4")
    if not np.all(np.isfinite(f32)):  # no mask is kept beside the samples
        beyond = int(np.count_nonzero(~np.isfinite(f32)))
        peak = float(np.max(np.abs(stream.samples)))
        raise ClippedOutput(f"{beyond} samples beyond float32 range (peak {peak!r})")
    byte_rate = stream.sample_rate * 4
    if byte_rate > 0xFFFFFFFF:
        raise UnsupportedFormat(
            f"sample rate {stream.sample_rate} Hz: its byte rate does not fit a WAV header"
        )
    if f32.size > MAX_FLOAT_SAMPLES:
        raise UnsupportedFormat(f"{f32.size} samples do not fit a WAV data chunk")
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + f32.nbytes, b"WAVE", b"fmt ", 16, _FORMAT_FLOAT, 1,
        stream.sample_rate, byte_rate, 4, 32, b"data", f32.nbytes,
    )
    try:
        with Path(path).open("wb") as out:
            out.write(header)
            out.write(f32.data)
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc}") from exc
