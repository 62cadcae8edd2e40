"""Input rules shared by every module, each with its one message; imports only NumPy and errors."""

import math
import numbers

import numpy as np

from .errors import InvalidFftLengthError, InvalidParameterError

# The longest FFT.  stack_frames refuses longer frames (they fit no FFT) and
# strides (they size the zero-padded signal) before any buffer is sized.
MAX_FFT_LENGTH = 65536

# The most frames one post-processing window spans: cmvnw's win_size, and the
# 2 * window_half_width + 1 frames of a delta.  Past it the edge padding alone
# would outgrow any recording, and fail in allocation, not with a typed error.
MAX_WINDOW_FRAMES = 65535

# The largest |value| extract_derivative, cmvn and cmvnw take.  It is above every
# feature of an in-bound signal (mfe at most 1.7e110, see audio_io._MAX_SAMPLE; a
# delta never exceeds its input), and the variance of cmvn and cmvnw, a sum of T
# squared deviations of at most (2 * 1e130)**2 = 4e260, stays finite for T < 4e47.
MAX_FEATURE = 1e130


def require_real(name: str, value, error=InvalidParameterError) -> None:
    """Raise error unless value is a real scalar (not a bool)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be a real number, got {value!r}")


def require_int(name: str, value, error=InvalidParameterError) -> None:
    """Raise error unless value is an integer (not a bool)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")


def require_positive(name: str, value, error=InvalidParameterError) -> None:
    """Raise error unless value is a real number in (0, inf)."""
    require_real(name, value, error)
    if not 0.0 < value < math.inf:
        raise error(f"{name} must be positive and finite, got {value}")


def require_flag(name: str, value) -> None:
    """Raise InvalidParameterError unless value is a bool or a NumPy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidParameterError(f"{name} must be True or False, got {value!r:.80}")


def require_type(name: str, value, cls) -> None:
    """Raise InvalidParameterError unless value is an instance of cls."""
    if not isinstance(value, cls):
        raise InvalidParameterError(
            f"{name} must be an instance of {cls.__name__}, got {type(value).__name__}"
        )


def require_fft_length(n, frame_length=1) -> None:
    """Raise InvalidFftLengthError unless n is a power of two in [1, MAX_FFT_LENGTH],
    >= frame_length."""
    if (not isinstance(n, numbers.Integral) or isinstance(n, bool)
            or not 1 <= n <= MAX_FFT_LENGTH or n & (n - 1)):
        raise InvalidFftLengthError(
            f"fft_length {n} is not a power of two in [1, {MAX_FFT_LENGTH}]"
        )
    if n < frame_length:
        raise InvalidFftLengthError(f"fft_length {n} shorter than frame length {frame_length}")


def as_real_array(name: str, value, ndims, error=InvalidParameterError,
                  bound=math.inf) -> np.ndarray:
    """value as a float64 array, of a rank in ndims (None: any), from a finite int/uint/float
    array; a float input's magnitude also at most bound.  A float64 input is not copied."""
    try:
        x = np.asarray(value)
        real = x.dtype.kind in "iuf"
    except (TypeError, ValueError):  # ragged nesting, or a failing __array__
        real = False
    if not real:
        raise error(f"{name} must be an array of reals, got {value!r:.80}")
    if ndims is not None and x.ndim not in ndims:
        raise error(f"{name} must be {' or '.join(f'{n}-D' for n in ndims)}, got shape {x.shape}")
    if x.dtype.kind == "f" and x.size:
        # min and max carry NaN and inf through, so no mask the size of x is
        # built; compared as Python floats, since float32 cannot hold every bound
        low, high = float(x.min()), float(x.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            raise error(f"{name} must be finite, got NaN or inf")
        peak = max(-low, high)
        if peak > bound:
            raise error(f"|{name}| must be <= {bound:g}, got {peak:g}")
    return x.astype(np.float64, copy=False)
