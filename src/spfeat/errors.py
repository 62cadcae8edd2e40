"""Exception types raised by the library and the CLI.

In the CLI's per-file loop an error is its file's FAIL line; one raised
outside the loop stops the job, and cli.main exits 2 on it.
"""


class SpfeatError(Exception):
    """Base class for all errors raised by this package."""


# audio_io

class MissingFileError(SpfeatError):
    """Input path does not exist or cannot be read."""


class MalformedWavError(SpfeatError):
    """File is not a well-formed RIFF/WAVE container."""


class UnsupportedFormatError(SpfeatError):
    """WAV is valid but uses a format outside 16-bit PCM mono/stereo."""


# preprocess

class EmptySignalError(SpfeatError):
    """Operation requires a non-empty signal."""


class FrameTooLongError(SpfeatError):
    """Signal shorter than one frame and zero padding is disabled."""


class InvalidParameterError(SpfeatError):
    """Parameter outside its documented range."""


class InvalidSignalError(InvalidParameterError, ValueError):
    """Samples not a 1-D array of finite reals, or rate not a positive integer."""


# spectrum

class InvalidFftLengthError(InvalidParameterError):
    """FFT length must be a power of two and at least the frame length."""


# mel filterbank

class NegativeFrequencyError(InvalidParameterError):
    """Frequencies on the Hz axis must be nonnegative."""


class NegativeMelError(InvalidParameterError):
    """Values on the mel axis must be nonnegative."""


class InvalidBandError(InvalidParameterError):
    """Filterbank band must satisfy 0 <= low < high <= fs/2."""


class DegenerateFilterError(InvalidParameterError):
    """Adjacent filter edges closer than one FFT bin."""


# postprocess

class EmptyFeaturesError(SpfeatError):
    """Deltas and normalization require at least one frame."""


class InvalidWindowError(InvalidParameterError):
    """Sliding normalization window must be odd and in [3, _checks.MAX_WINDOW_FRAMES]."""


# cli

class UnknownKeyError(SpfeatError):
    """Config file contains a key that is not a recognized option."""


class InvalidValueError(SpfeatError):
    """Flags or config file cannot be parsed, or an option value is missing or empty."""


class MissingInputError(SpfeatError):
    """No input files were given, an input path is empty, or a directory holds no WAVs."""


class OutputDirUnwritableError(SpfeatError):
    """Output directory cannot be created or written."""


class OutputCollisionError(SpfeatError):
    """Two inputs would produce the same output file name."""
