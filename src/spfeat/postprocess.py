"""Feature normalization: global and sliding-window mean (and variance)."""

from __future__ import annotations

import numpy as np

from .errors import EmptyFeaturesError, InvalidWindowError
from .features import FeatureMatrix

# Guard added to the standard deviation before dividing.
_SIGMA_GUARD = 1e-10

DEFAULT_WIN_SIZE = 301


def _as_array(features):
    if isinstance(features, FeatureMatrix):
        return features.data
    return np.asarray(features, dtype=np.float64)


def _wrap(features, data):
    if isinstance(features, FeatureMatrix):
        return FeatureMatrix(
            data=data, kind=features.kind, frame_energies=features.frame_energies
        )
    return data


def cmvn(features, variance_normalization: bool = False):
    """Subtract the per-column mean; optionally divide by (population std + 1e-10)."""
    x = _as_array(features)
    if x.shape[0] == 0:
        raise EmptyFeaturesError("cmvn requires at least one frame")
    y = x - x.mean(axis=0)
    if variance_normalization:
        y = y / (x.std(axis=0) + _SIGMA_GUARD)
    return _wrap(features, y)


def validate_win_size(win_size: int) -> None:
    """Raise InvalidWindowError unless the cmvnw window is odd and >= 3."""
    if win_size < 3 or win_size % 2 == 0:
        raise InvalidWindowError(f"win_size must be odd and >= 3, got {win_size}")


def cmvnw(
    features, win_size: int = DEFAULT_WIN_SIZE, variance_normalization: bool = False
):
    """Sliding-window mean (and variance) normalization with edge replication.

    Statistics for frame t come from the win_size frames centered on t,
    padding past either end by repeating the edge frame.
    """
    validate_win_size(win_size)
    x = _as_array(features)
    if x.shape[0] == 0:
        raise EmptyFeaturesError("cmvnw requires at least one frame")

    half = win_size // 2
    padded = np.pad(x, ((half, half), (0, 0)), mode="edge")
    y = np.empty_like(x)
    for t in range(x.shape[0]):
        segment = padded[t : t + win_size]
        y[t] = x[t] - segment.mean(axis=0)
        if variance_normalization:
            y[t] = y[t] / (segment.std(axis=0) + _SIGMA_GUARD)
    return _wrap(features, y)
