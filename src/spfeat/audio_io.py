"""Reading PCM WAV files into normalized mono sample buffers.

Only the canonical RIFF/WAVE layout with uncompressed 16-bit PCM is
accepted.  Stereo files are folded to mono by averaging the channels.
Unknown chunks (LIST, fact, ...) are skipped by their size field.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from ._checks import as_real_array, require_int, require_positive
from .errors import (
    InvalidSignalError,
    MalformedWavError,
    MissingFileError,
    UnsupportedFormatError,
)

# The data chunk size a streaming writer leaves when it cannot seek back.
_STREAMED_SIZE = 0xFFFFFFFF

# The largest |sample| a float buffer may hold.  Pre-emphasis keeps
# |y| <= 2B, so a power bin is at most N * (2B)**2 and an mfe value (filter
# weights <= 1 over N/2 + 1 bins) at most N**2 * (2B)**2, 1.7e110 at N = 65536:
# within _checks.MAX_FEATURE, so no later stage can overflow.  Integer dtypes
# cannot reach B.  The pre-emphasized signal is an AudioBuffer too, so a signal
# whose pre-emphasis exceeds B (|x| above B / 2 at worst) is rejected there.
_MAX_SAMPLE = 1e50


@dataclass(frozen=True)
class AudioBuffer:
    """A mono signal: float64 samples (nominal range [-1, 1)) plus its rate.

    Samples of any real dtype, or a list, are stored widened to float64."""

    samples: np.ndarray
    sampling_frequency: int

    def __post_init__(self):
        require_int("sampling_frequency", self.sampling_frequency, InvalidSignalError)
        require_positive("sampling_frequency", self.sampling_frequency, InvalidSignalError)
        samples = as_real_array("samples", self.samples, (1,), InvalidSignalError, _MAX_SAMPLE)
        # frozen: store the array form, so a list or tuple works downstream
        object.__setattr__(self, "samples", samples)


def read_wav(path) -> AudioBuffer:
    """Parse a 16-bit PCM WAV file (mono or stereo) into an AudioBuffer.

    ``path`` is a str, bytes or os.PathLike; anything else, an open file
    descriptor included, is a MissingFileError and is never read or closed.
    Raises MissingFileError, MalformedWavError, or UnsupportedFormatError;
    arbitrary byte streams never escape as unhandled exceptions.

    A data chunk size of 0xFFFFFFFF, left by a streaming writer that
    could not seek back, reads as "to the end of the file"; the data must
    still be a whole number of frames, and not empty.  Any other chunk
    size past the end of the file is a truncated file.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise MissingFileError(f"cannot read {path!r}: not a file path")
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise MissingFileError(f"cannot read {path}: {exc}") from exc

    if len(blob) < 12 or blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise MalformedWavError("not a RIFF/WAVE file")

    view = memoryview(blob)  # chunk bodies are views: the data chunk is never copied
    fmt = None
    data = None
    offset = 12
    while offset + 8 <= len(blob):
        chunk_id = blob[offset:offset + 4]
        (size,) = struct.unpack_from("<I", blob, offset + 4)
        body_start = offset + 8
        if chunk_id == b"data" and size == _STREAMED_SIZE:
            size = len(blob) - body_start
        if body_start + size > len(blob):
            raise MalformedWavError(f"truncated {chunk_id!r} chunk")
        body = view[body_start:body_start + size]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        # odd-sized chunks carry a pad byte
        offset = body_start + size + (size & 1)

    if fmt is None:
        raise MalformedWavError("missing fmt chunk")
    if data is None:
        raise MalformedWavError("missing data chunk")
    if len(fmt) < 16:
        raise MalformedWavError("fmt chunk too short")

    audio_format, channels, sample_rate, _, _, bits = struct.unpack_from(
        "<HHIIHH", fmt, 0
    )
    if audio_format != 1:
        raise UnsupportedFormatError(
            f"format code {audio_format}, only PCM (1) supported"
        )
    if bits != 16:
        raise UnsupportedFormatError(f"{bits}-bit, only 16-bit supported")
    if channels not in (1, 2):
        raise UnsupportedFormatError(f"{channels} channels, only 1 or 2")
    if sample_rate == 0:
        raise MalformedWavError("zero sample rate")

    block = 2 * channels
    if len(data) % block != 0:
        raise MalformedWavError("data size not a multiple of the frame size")
    if not data:
        raise MalformedWavError("empty data chunk")

    # v / 32768 maps int16 into [-1, 1); stereo folds to the pair mean, (l + r) / 65536.
    # The pair sum is exact in float64 and both divisors are powers of two, so each
    # sample has the bits of the mean taken first and then scaled
    raw = np.frombuffer(data, dtype="<i2")
    samples = raw[0::channels].astype(np.float64)  # the only channel, or the left one
    if channels == 2:
        samples += raw[1::2]
    samples /= 32768.0 * channels
    return AudioBuffer(samples=samples, sampling_frequency=sample_rate)
