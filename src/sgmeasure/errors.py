"""Exception hierarchy, and the one policy for an output that cannot be written.

These types alone decide the CLI's exit code: ``InputFormatError`` and its
subclasses map to exit code 3, every other ``SgMeasureError`` to exit code 4.
"""

from contextlib import contextmanager
from pathlib import Path


class SgMeasureError(Exception):
    """Base class for all package errors."""


class InputFormatError(SgMeasureError):
    """A file or manifest could not be ingested."""


class AnalysisError(SgMeasureError):
    """A computation precondition was violated."""


class DegenerateSpectrum(AnalysisError):
    """All-zero spectrum; no threshold can be derived."""


class StreamTooShort(AnalysisError):
    """Stream cannot hold the requested analysis segments."""


class ZeroBinExcitation(AnalysisError):
    """Excitation spectrum has a zero bin; it was not safeguarded."""


class InsufficientRepetitions(AnalysisError):
    """Fewer than two repeated measurements; variance is undefined."""


class InsufficientSignals(AnalysisError):
    """Fewer than two distinct test signals; variance is undefined."""


class DegenerateFit(AnalysisError):
    """Too few usable points for a regression."""


class LevelOutOfRange(AnalysisError, OverflowError):
    """A level or drive beyond what float64 arithmetic can represent."""


class SilentRecording(AnalysisError):
    """A recording whose analyzed samples are all zero; it has no level."""


class ClippedOutput(AnalysisError):
    """Samples not finite or beyond float32's range, which a written WAV file cannot hold."""


class UnsupportedFormat(InputFormatError):
    """WAV layout not handled: only mono PCM 16/24-bit or 32-bit float is read, and
    only a sample rate whose byte rate fits the header is written."""


class SampleRateMismatch(InputFormatError):
    """File sample rate disagrees with the session manifest."""


class CorruptFile(InputFormatError):
    """File is not a well-formed RIFF/WAVE stream."""


class ManifestError(InputFormatError):
    """Session manifest failed validation."""


class UnwritableOutput(InputFormatError):
    """An output could not be opened, written or closed (a missing directory, a full disk)."""


def discard(path) -> None:
    """Remove the regular file ``path`` names, through a symlink; leave a device or a FIFO."""
    target = Path(path).resolve()
    if target.is_file():
        target.unlink()


@contextmanager
def output_file(path, mode: str):
    """``path`` open to write: an OSError raises UnwritableOutput, and any failure discards it."""
    try:
        out = Path(path).open(mode)
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc}") from exc
    try:
        with out:
            yield out
    except BaseException as exc:
        discard(path)
        if isinstance(exc, OSError):
            raise UnwritableOutput(f"cannot write {path}: {exc}") from exc
        raise
