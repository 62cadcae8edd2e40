"""Feature normalization: global and sliding-window mean (and variance)."""

from __future__ import annotations

import numpy as np

from ._checks import MAX_WINDOW_FRAMES, require_flag, require_int
from .errors import InvalidWindowError
from .features import _as_array, _wrap

# Guard added to the standard deviation before dividing.
_SIGMA_GUARD = 1e-10

DEFAULT_WIN_SIZE = 301

# cmvnw handles this many frames per whole-block NumPy operation; 256-1024
# were within noise on 15000x39 features with win_size 301, and 1024 was
# fastest on 6000x13, where per-call overhead weighs more.
FRAME_BLOCK = 1024


def cmvn(features, variance_normalization: bool = False):
    """Subtract the per-column mean; optionally divide by (population std + 1e-10)."""
    x = _as_array(features, "features (a T x D matrix or a vector)", (1, 2))
    require_flag("variance_normalization", variance_normalization)
    num_frames = x.shape[0]
    y = x - x.mean(axis=0)
    if variance_normalization:
        # x.std(axis=0)'s own steps on the already centred y: sum of squares
        # over the frames, / T, sqrt
        std = np.sqrt(np.add.reduce(y * y, axis=0) / num_frames)
        std += _SIGMA_GUARD
        y /= std
    return _wrap(features, y)


def validate_win_size(win_size: int) -> None:
    """Raise InvalidWindowError unless win_size is an odd integer in [3, MAX_WINDOW_FRAMES]."""
    require_int("win_size", win_size, InvalidWindowError)
    if not 3 <= win_size <= MAX_WINDOW_FRAMES or win_size % 2 == 0:
        raise InvalidWindowError(
            f"win_size must be odd and in [3, {MAX_WINDOW_FRAMES}], got {win_size}"
        )


def cmvnw(
    features, win_size: int = DEFAULT_WIN_SIZE, variance_normalization: bool = False
):
    """Sliding-window mean (and variance) normalization with edge replication.

    Statistics for frame t come from the win_size frames centered on t,
    padding past either end by repeating the edge frame.

    Exactness: each window's mean and population std are summed row by
    row, first to last, and divided by win_size, which is what
    ``window.mean(axis=0)`` and ``window.std(axis=0)`` do on a (win_size, D)
    slice. For D >= 2 the output is bit-identical to that per-frame form.
    For D = 1 NumPy's own reduction switches to pairwise summation when
    win_size > 8, so the two differ by rounding: a few ulps of the input
    scale, divided by the window's std + 1e-10 with variance normalization.
    """
    validate_win_size(win_size)
    x = _as_array(features, "features (a T x D matrix)", (2,))
    require_flag("variance_normalization", variance_normalization)
    num_frames = x.shape[0]

    half = win_size // 2
    padded = np.pad(x, ((half, half), (0, 0)), mode="edge")
    y = np.empty_like(x)
    # frame t's window is padded[t : t + win_size], so for a block of frames
    # [s, e) the k-th row of every window is the slice padded[s + k : e + k]
    for s in range(0, num_frames, FRAME_BLOCK):
        e = min(s + FRAME_BLOCK, num_frames)
        # + 0.0, not a copy: NumPy's sum starts from 0.0, so -0.0 sums to 0.0
        mean = padded[s:e] + 0.0
        for k in range(1, win_size):
            mean += padded[s + k : e + k]
        mean /= win_size
        out = y[s:e]
        np.subtract(x[s:e], mean, out=out)
        if variance_normalization:
            sq = np.square(padded[s:e] - mean)
            tmp = np.empty_like(sq)
            for k in range(1, win_size):
                np.subtract(padded[s + k : e + k], mean, out=tmp)
                np.square(tmp, out=tmp)
                sq += tmp
            sq /= win_size
            np.sqrt(sq, out=sq)
            sq += _SIGMA_GUARD
            out /= sq
    return _wrap(features, y)
