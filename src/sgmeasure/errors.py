"""Exception hierarchy.

These types alone decide the CLI's exit code: ``InputFormatError`` and its
subclasses map to exit code 3, every other ``SgMeasureError`` to exit code 4.
"""


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
    """An output path could not be opened or written (a missing directory, a directory)."""
