"""Reading PCM WAV files into normalized mono sample buffers.

Only the canonical RIFF/WAVE layout with uncompressed 16-bit PCM is
accepted.  Stereo files are folded to mono by averaging the channels.
Unknown chunks (LIST, fact, ...) are skipped by their size field.
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSignalError,
    MalformedWavError,
    MissingFileError,
    UnsupportedFormatError,
)

# Fixed-point full scale for 16-bit samples.  Dividing by 32768 keeps the
# mapping linear and exactly representable; +full-scale lands at 32767/32768.
_FULL_SCALE = 32768.0


@dataclass(frozen=True)
class AudioBuffer:
    """A mono signal: float64 samples (nominal range [-1, 1)) plus its rate."""

    samples: np.ndarray
    sampling_frequency: int

    def __post_init__(self):
        rate = self.sampling_frequency
        if not isinstance(rate, numbers.Integral) or isinstance(rate, bool) or rate <= 0:
            raise InvalidSignalError(
                f"sampling_frequency must be a positive integer, got {rate!r}"
            )
        samples = np.asarray(self.samples)
        if samples.ndim != 1:
            raise InvalidSignalError(f"samples must be 1-D, got shape {samples.shape}")
        if samples.dtype.kind not in "iuf":
            raise InvalidSignalError(f"samples must be real numbers, got {samples.dtype}")
        if not np.isfinite(samples).all():
            raise InvalidSignalError("samples must be finite, got NaN or inf")

    def __len__(self):
        return len(self.samples)


def samples_to_real(raw) -> np.ndarray:
    """Convert 16-bit integer samples to float64 via v / 32768."""
    return np.asarray(raw, dtype=np.float64) / _FULL_SCALE


def read_wav(path) -> AudioBuffer:
    """Parse a 16-bit PCM WAV file (mono or stereo) into an AudioBuffer.

    Raises MissingFileError, MalformedWavError, or UnsupportedFormatError;
    arbitrary byte streams never escape as unhandled exceptions.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise MissingFileError(f"cannot read {path}: {exc}") from exc

    if len(blob) < 12 or blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise MalformedWavError("not a RIFF/WAVE file")

    fmt = None
    data = None
    offset = 12
    while offset + 8 <= len(blob):
        chunk_id = blob[offset:offset + 4]
        (size,) = struct.unpack_from("<I", blob, offset + 4)
        body_start = offset + 8
        if body_start + size > len(blob):
            raise MalformedWavError(f"truncated {chunk_id!r} chunk")
        body = blob[body_start:body_start + size]
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

    raw = np.frombuffer(data, dtype="<i2")
    if channels == 2:
        raw = raw.reshape(-1, 2).mean(axis=1)
    return AudioBuffer(samples=samples_to_real(raw), sampling_frequency=sample_rate)
