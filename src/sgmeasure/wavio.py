"""Minimal RIFF/WAVE reader and writer.

Reads mono PCM 16/24-bit and 32-bit float, in a plain fmt chunk or a
``WAVE_FORMAT_EXTENSIBLE`` (0xFFFE) one whose subformat GUID is PCM or IEEE
float, into a 1-D float64 array and its sample rate.  A file of any other
channel count is refused: the estimate needs the recording of one path, and
mixing channels would change it.  Writes an array and a sample rate as a
mono 32-bit float file, the header and then the samples, with no copy of
them, as many times over as asked.  The stdlib wave module cannot handle
float data, hence the hand-rolled chunk parsing.

One parser checks the headers of an open file and one range decoder turns
data bytes into float64 samples.  The parser reads the chunk headers,
seeking from one to the next; no copy of the whole file is made.
:func:`open_audio` then reads float data 256 KiB at a time to check that
every sample is finite, and keeps only where the samples lie;
:meth:`AudioFile.read_ranges` decodes ranges of them through one open file,
each read into one buffer that the ranges share.  :func:`read_audio` parses
and decodes the whole data chunk as one range, through one open file, and
checks the decoded float data, so each byte is read once.

PCM24 is decoded through one strided view of the bytes: a little-endian
32-bit word every 3 bytes from one byte before the first sample (for the
whole chunk, the chunk's size field), so each word holds a sample above a
spare byte, and an arithmetic right shift by 8 sign-extends it.
"""

from __future__ import annotations

import numbers
import struct
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ClippedOutput, CorruptFile, UnsupportedFormat, output_file

__all__ = ["AudioFile", "open_audio", "read_audio", "write_audio"]

_FORMAT_PCM = 1
_FORMAT_FLOAT = 3
_FORMAT_EXTENSIBLE = 0xFFFE
_DECODABLE = ((_FORMAT_PCM, 16), (_FORMAT_PCM, 24), (_FORMAT_FLOAT, 32))  # (format code, bits)
# The RIFF and data chunk sizes are 32-bit fields: a float32 file holds at most this many samples.
MAX_FLOAT_SAMPLES = (0xFFFFFFFF - 36) // 4
# Bytes of float32 samples checked for finiteness at once when a file is opened.
_CHECK_BYTES = 1 << 18
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


def _parse(fh, path: Path) -> AudioFile:
    """Check the headers of the mono WAV file ``path`` open as ``fh``, read by seeking
    from one chunk header to the next; no sample is read."""
    size = fh.seek(0, 2)
    fh.seek(0)
    head = fh.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise CorruptFile(f"{path} is not a RIFF/WAVE file")

    fmt = frames = None
    pos = 12
    while pos + 8 <= size:
        fh.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", fh.read(8))
        if chunk_id == b"fmt ":
            fmt = fh.read(min(chunk_size, 40))  # the base fmt and the extension's GUID
            if len(fmt) < 16:
                raise CorruptFile(f"{path}: truncated fmt chunk")
        elif chunk_id == b"data":
            if pos + 8 + chunk_size > size:
                raise CorruptFile(f"{path}: truncated data chunk")
            frames, frames_start = chunk_size, pos + 8
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
    if frames % (bits // 8):  # a mono frame is one sample
        raise CorruptFile(f"{path}: data size not a multiple of the frame size")
    if sample_rate == 0:
        raise CorruptFile(f"{path}: fmt chunk gives a sample rate of 0")
    return AudioFile(path, frames_start, frames // (bits // 8), bits, sample_rate)


def _check_finite(samples: np.ndarray, path: Path) -> None:
    """Refuse float data that holds NaN or infinity."""
    if not np.isfinite(samples).all():
        raise CorruptFile(f"{path}: float data holds NaN or infinite samples")


def _read_into(fh, buffer: bytearray, position: int, size: int, path: Path) -> memoryview:
    """The ``size`` bytes of ``fh`` from ``position``, read into the start of ``buffer``."""
    fh.seek(position)
    view = memoryview(buffer)[:size]
    if fh.readinto(view) < size:
        raise CorruptFile(f"{path}: file is shorter than its data chunk")
    return view


def _decode(buffer, offset: int, count: int, bits: int) -> np.ndarray:
    """``count`` samples from byte ``offset >= 1`` of ``buffer`` as float64."""
    if bits == 16:
        return np.frombuffer(buffer, "<i2", count, offset).astype(np.float64) / 2.0**15
    if bits == 24:
        words = np.ndarray((count,), "<i4", buffer, offset - 1, (3,))
        return np.right_shift(words, 8) / 2.0**23
    return np.frombuffer(buffer, "<f4", count, offset).astype(np.float64)


def _decode_ranges(
    fh, audio: AudioFile, ranges: Iterable[tuple[int, int]]
) -> Iterator[np.ndarray]:
    """Samples ``start..stop-1`` of each range of ``audio``, open as ``fh``, read into one
    buffer that each range reuses; each is decoded into an array of its own."""
    width = audio.bits // 8
    buffer = bytearray()
    for start, stop in ranges:
        size = (stop - start) * width + 1  # from the byte before the first sample
        if size > len(buffer):
            buffer = bytearray(size)
        raw = _read_into(fh, buffer, audio.offset + start * width - 1, size, audio.path)
        yield _decode(raw, 1, stop - start, audio.bits)


@contextmanager
def _opened(path: Path):
    """``path`` open for reading; an OSError while it is open raises :class:`CorruptFile`."""
    try:
        with path.open("rb") as fh:
            yield fh
    except OSError as exc:
        raise CorruptFile(f"cannot read {path}: {exc}") from exc


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
        with _opened(self.path) as fh:
            yield from _decode_ranges(fh, self, ranges)


def open_audio(path: str | Path) -> AudioFile:
    """Check a mono WAV file as :func:`read_audio` does, and keep where its samples lie."""
    path = Path(path)
    with _opened(path) as fh:
        audio = _parse(fh, path)
        if audio.bits == 32:  # the raw float32 values, a piece at a time
            size, start = audio.length * 4, audio.offset
            buffer = bytearray(min(size, _CHECK_BYTES))
            for at in range(0, size, _CHECK_BYTES):
                raw = _read_into(fh, buffer, start + at, min(size - at, _CHECK_BYTES), path)
                _check_finite(np.frombuffer(raw, "<f4"), path)
    return audio


def read_audio(path: str | Path) -> tuple[np.ndarray, int]:
    """(samples, sample_rate) of a mono WAV file; other channel counts raise UnsupportedFormat."""
    path = Path(path)
    with _opened(path) as fh:
        audio = _parse(fh, path)
        samples = next(_decode_ranges(fh, audio, [(0, audio.length)]))
    if audio.bits == 32:
        _check_finite(samples, path)
    return samples, audio.sample_rate


def write_audio(path: str | Path, samples, sample_rate: int, repeats: int = 1) -> None:
    """Write a mono 32-bit float WAV file: the header, then the float32 samples ``repeats`` times.

    Samples that are not 1-D, a sample rate that is not an integer of at
    least 1 or a negative ``repeats`` raise ValueError.  Samples that are
    not finite or beyond float32's range raise :class:`ClippedOutput`; a
    sample rate whose byte rate, or ``repeats`` of samples whose data size,
    does not fit the header's 32-bit fields raises :class:`UnsupportedFormat`.
    All are checked before the file is opened.  A failed write raises
    :class:`~sgmeasure.errors.UnwritableOutput`, and no partial file is left.
    Only the samples, once, are held as float32.
    """
    if repeats < 0:
        raise ValueError(f"repeats must be non-negative, got {repeats}")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError("samples must be 1-D")
    integral = isinstance(sample_rate, numbers.Integral) and not isinstance(sample_rate, bool)
    if not integral or sample_rate < 1:
        raise ValueError(f"sample_rate must be an integer of at least 1, got {sample_rate!r}")
    with np.errstate(over="ignore"):  # an overflow is counted below
        f32 = samples.astype("<f4")
    if not np.all(np.isfinite(f32)):  # no mask is kept beside the samples
        beyond = int(np.count_nonzero(~np.isfinite(f32)))
        peak = float(np.max(np.abs(samples)))
        raise ClippedOutput(f"{beyond} samples not finite or beyond float32 range (peak {peak!r})")
    byte_rate = int(sample_rate) * 4
    if byte_rate > 0xFFFFFFFF:
        raise UnsupportedFormat(
            f"sample rate {sample_rate} Hz: its byte rate does not fit a WAV header"
        )
    if repeats * f32.size > MAX_FLOAT_SAMPLES:
        raise UnsupportedFormat(
            f"{repeats} repeats of {f32.size} samples do not fit a WAV data chunk"
        )
    nbytes = repeats * f32.nbytes
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + nbytes, b"WAVE", b"fmt ", 16, _FORMAT_FLOAT, 1,
        sample_rate, byte_rate, 4, 32, b"data", nbytes,
    )
    with output_file(path, "wb") as out:
        out.write(header)
        for _ in range(repeats):
            out.write(f32.data)
