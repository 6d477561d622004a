"""Exception hierarchy.

``InputFormatError`` subclasses map to CLI exit code 3, ``AnalysisError``
subclasses to exit code 4.
"""


class SgMeasureError(Exception):
    """Base class for all package errors."""


class InputFormatError(SgMeasureError):
    """A file or manifest could not be ingested."""


class AnalysisError(SgMeasureError):
    """A computation precondition was violated."""


class NonHermitianInput(AnalysisError):
    """Inverse transform of a spectrum with significant imaginary residue."""


class ImpulseResponseTooLong(AnalysisError):
    """Impulse response longer than the signal period."""


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


class UnsupportedFormat(InputFormatError):
    """WAV encoding not handled (only PCM 16/24-bit and 32-bit float)."""


class SampleRateMismatch(InputFormatError):
    """File sample rate disagrees with the session manifest."""


class CorruptFile(InputFormatError):
    """File is not a well-formed RIFF/WAVE stream."""


class ManifestError(InputFormatError):
    """Session manifest failed validation."""
