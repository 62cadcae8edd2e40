"""Signal conditioning before spectral analysis.

Pre-emphasis, frame stacking, and windowing.  All operations are pure:
they never mutate their inputs.  Frames are a read-only strided view of
the signal (of a contiguous copy when the signal is strided, of a
zero-padded one when the last frame is partial), so overlapping frames
never duplicate samples.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

from ._checks import MAX_FFT_LENGTH, require_flag, require_positive, require_real, require_type
from .audio_io import AudioBuffer
from .errors import EmptySignalError, FrameTooLongError, InvalidParameterError

# generalized cosine windows: w[n] = a0 - a1 * cos(2*pi*n / (L - 1))
_WINDOWS = {"rectangular": (1.0, 0.0), "hamming": (0.54, 0.46), "hanning": (0.5, 0.5)}
WINDOW_TYPES = tuple(_WINDOWS)


def require_alpha(alpha) -> None:
    """Raise InvalidParameterError unless alpha is a real number in [0, 1)."""
    require_real("alpha", alpha)
    if not 0.0 <= alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in [0, 1), got {alpha}")


def require_frames(frames) -> None:
    """Raise InvalidParameterError unless frames is a 2-D int/uint/float array."""
    if not (isinstance(frames, np.ndarray) and frames.ndim == 2 and frames.dtype.kind in "iuf"):
        raise InvalidParameterError(f"frames must be a 2-D int or float array, got {frames!r:.80}")


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


def stack_frames(
    signal: AudioBuffer,
    frame_length_s: float = 0.020,
    frame_stride_s: float = 0.010,
    zero_padding: bool = True,
) -> np.ndarray:
    """Cut the signal into overlapping frames of length L with hop S.

    The frames are a read-only T x L view: row t is samples t*S .. t*S + L - 1.
    Without padding, trailing samples that do not fill a frame are dropped
    and a signal shorter than one frame is an error.  With padding the
    signal is extended with zeros so every sample lands in some frame.
    """
    require_type("signal", signal, AudioBuffer)
    require_positive("frame_length", frame_length_s)
    require_positive("frame_stride", frame_stride_s)
    require_flag("zero_padding", zero_padding)

    fs = signal.sampling_frequency
    # durations are positive, so int() of d * fs + 0.5 rounds half away from zero; the
    # bound is checked on the float, before an absurd duration can size any array
    length, stride = (d * fs + 0.5 for d in (frame_length_s, frame_stride_s))
    if not (1 <= length < MAX_FFT_LENGTH + 1 and 1 <= stride < MAX_FFT_LENGTH + 1):
        raise InvalidParameterError(
            f"frame length/stride must round to 1 .. {MAX_FFT_LENGTH} samples at fs={fs}, "
            f"got {frame_length_s}/{frame_stride_s} s"
        )
    length, stride = int(length), int(stride)

    # contiguous, so the frames below can be a strided view of its buffer
    x = np.ascontiguousarray(signal.samples)
    n = len(x)
    if zero_padding:
        num_frames = max(1, -((n - length) // -stride) + 1)
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
    return frames


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


def apply_window(frames: np.ndarray, window: str = "rectangular") -> np.ndarray:
    """Multiply every row of a T x L frames array elementwise by the chosen window.

    The window of each (kind, L) is cached and shared; all kinds give w[0] = 1 for L = 1.
    """
    require_frames(frames)
    require_window(window)
    if frames.shape[1] < 1:
        raise InvalidParameterError(f"frames must be at least 1 sample wide, got {frames.shape}")
    return frames * _window(window, frames.shape[1])
