"""Signal conditioning before spectral analysis.

Pre-emphasis, frame stacking, and windowing.  All operations are pure:
they never mutate their inputs.  Frames are a read-only strided view of
the signal (of a contiguous copy when the signal is strided, of a
zero-padded one when the last frame is partial), so overlapping frames
never duplicate samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._checks import require_flag, require_int, require_positive, require_real, require_type
from .audio_io import AudioBuffer
from .errors import EmptySignalError, FrameTooLongError, InvalidParameterError

# generalized cosine windows: w[n] = a0 - a1 * cos(2*pi*n / (L - 1))
_WINDOWS = {"rectangular": (1.0, 0.0), "hamming": (0.54, 0.46), "hanning": (0.5, 0.5)}
WINDOW_TYPES = tuple(_WINDOWS)


@dataclass(frozen=True)
class FrameMatrix:
    """T x L matrix of overlapping frames cut from one signal."""

    data: np.ndarray
    sampling_frequency: int
    frame_stride: int

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]

    @property
    def frame_length(self) -> int:
        return self.data.shape[1]


def require_alpha(alpha) -> None:
    """Raise InvalidParameterError unless alpha is a real number in [0, 1)."""
    require_real("alpha", alpha)
    if not 0.0 <= alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in [0, 1), got {alpha}")


def require_frames(frames) -> None:
    """Raise InvalidParameterError unless frames is a FrameMatrix of 2-D int/uint/float data."""
    require_type("frames", frames, FrameMatrix)
    data = frames.data
    if not (isinstance(data, np.ndarray) and data.ndim == 2 and data.dtype.kind in "iuf"):
        raise InvalidParameterError(f"FrameMatrix data must be 2-D int or float, got {data!r:.80}")


def require_window(kind) -> None:
    """Raise InvalidParameterError unless kind is one of WINDOW_TYPES."""
    if not isinstance(kind, str) or kind not in WINDOW_TYPES:
        raise InvalidParameterError(f"unknown window {kind!r}")


def pre_emphasis(signal: AudioBuffer, alpha: float = 0.97) -> AudioBuffer:
    """First-order high-pass: y[t] = x[t] - alpha * x[t-1], with y[0] = x[0]."""
    require_type("signal", signal, AudioBuffer)
    require_alpha(alpha)
    x = signal.samples
    if len(x) == 0:
        raise EmptySignalError("pre_emphasis requires a non-empty signal")
    # written straight into y, so no full-length alpha * x[:-1] temporary
    y = np.empty(len(x))
    y[0] = x[0]
    np.multiply(x[:-1], alpha, out=y[1:])
    np.subtract(x[1:], y[1:], out=y[1:])
    return replace(signal, samples=y)


def _seconds_to_samples(duration_s: float, fs: int) -> int:
    # round half away from zero; durations are positive here
    return int(math.floor(duration_s * fs + 0.5))


def stack_frames(
    signal: AudioBuffer,
    frame_length_s: float = 0.020,
    frame_stride_s: float = 0.010,
    zero_padding: bool = True,
) -> FrameMatrix:
    """Cut the signal into overlapping frames of length L with hop S.

    The frames are a read-only view: row t is samples t*S .. t*S + L - 1.
    Without padding, trailing samples that do not fill a frame are dropped
    and a signal shorter than one frame is an error.  With padding the
    signal is extended with zeros so every sample lands in some frame.
    """
    require_type("signal", signal, AudioBuffer)
    require_positive("frame_length", frame_length_s)
    require_positive("frame_stride", frame_stride_s)
    require_flag("zero_padding", zero_padding)

    fs = signal.sampling_frequency
    length = _seconds_to_samples(frame_length_s, fs)
    stride = _seconds_to_samples(frame_stride_s, fs)
    if length < 1 or stride < 1:
        raise InvalidParameterError(
            f"frame length/stride round to {length}/{stride} samples at fs={fs}"
        )

    # contiguous, so the frames below can be a strided view of its buffer
    x = np.ascontiguousarray(signal.samples)
    n = len(x)
    if zero_padding:
        if n <= length:
            num_frames = 1
        else:
            num_frames = -((n - length) // -stride) + 1
        padded_len = length + (num_frames - 1) * stride
        if padded_len > n:
            x = np.concatenate([x, np.zeros(padded_len - n)])
    else:
        if n < length:
            raise FrameTooLongError(
                f"signal of {n} samples shorter than frame of {length}"
            )
        num_frames = (n - length) // stride + 1

    # NumPy checks that the strided view stays inside x's buffer
    step = x.itemsize
    frames = np.ndarray((num_frames, length), x.dtype, x, strides=(stride * step, step))
    frames.flags.writeable = False
    return FrameMatrix(data=frames, sampling_frequency=fs, frame_stride=stride)


def window_function(kind: str, length: int) -> np.ndarray:
    """Window samples of the given length; all types give w[0] = 1 for L = 1.

    Cached per (kind, length) and shared between callers, so read-only.
    """
    require_window(kind)
    require_int("length", length)
    if length < 1:
        raise InvalidParameterError(f"window length must be >= 1, got {length}")
    return _window(kind, length)


@functools.lru_cache(maxsize=32)
def _window(kind: str, length: int) -> np.ndarray:
    if length == 1:
        w = np.ones(1)
    else:
        # evaluate the first half and mirror it so symmetry is exact
        a0, a1 = _WINDOWS[kind]
        half = (length + 1) // 2
        head = a0 - a1 * np.cos(2.0 * np.pi * np.arange(half) / (length - 1))
        w = np.empty(length)
        w[:half] = head
        w[half:] = head[: length - half][::-1]
    w.flags.writeable = False
    return w


def apply_window(frames: FrameMatrix, window: str = "rectangular") -> FrameMatrix:
    """Multiply every frame elementwise by the chosen window."""
    require_frames(frames)
    w = window_function(window, frames.frame_length)
    return replace(frames, data=frames.data * w)
