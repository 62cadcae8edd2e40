"""Mel-scale frequency mapping and triangular filterbank construction.

Filter edges are equally spaced on the mel axis; the triangles are
linear in Hz between those edges and evaluated at the exact FFT bin
frequencies, so adjacent filters sum to exactly 1 between the first and
last peaks.  Banks are cached per (num_filters, fft_length, rate, band)
and shared between callers, so their arrays are read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._checks import as_real_array, require_fft_length, require_int, require_positive, require_real
from .errors import (
    DegenerateFilterError,
    InvalidBandError,
    InvalidParameterError,
    NegativeFrequencyError,
    NegativeMelError,
)

# HTK-style mel scale constants
_MEL_SCALE = 2595.0
_MEL_BREAK_HZ = 700.0


@dataclass(frozen=True)
class FilterBank:
    """M x K triangular filter weights plus the M+2 edge/peak frequencies."""

    weights: np.ndarray
    center_frequencies: np.ndarray


def hz_to_mel(f):
    """mel = 2595 * log10(1 + f/700)"""
    f = as_real_array("f", f, None)
    if np.any(f < 0):
        raise NegativeFrequencyError("frequency must be >= 0 Hz")
    return _MEL_SCALE * np.log10(1.0 + f / _MEL_BREAK_HZ)


def mel_to_hz(m):
    """f = 700 * (10^(m/2595) - 1)"""
    m = as_real_array("m", m, None)
    if np.any(m < 0):
        raise NegativeMelError("mel value must be >= 0")
    with np.errstate(over="ignore"):
        f = _MEL_BREAK_HZ * (10.0 ** (m / _MEL_SCALE) - 1.0)
    if not np.all(np.isfinite(f)):
        raise InvalidParameterError("mel value too large: its frequency overflows float64")
    return f


def require_filter_count(num_filters, fft_length) -> None:
    """Raise unless fft_length N is valid and num_filters an integer in [1, N/2 - 1]: M
    filters have M + 1 edge gaps of at least one bin, fs/N, within fs/2, at any fs."""
    require_fft_length(fft_length)
    require_int("num_filters", num_filters)
    if num_filters < 1:
        raise InvalidBandError(f"num_filters must be >= 1, got {num_filters}")
    if num_filters > fft_length // 2 - 1:
        raise DegenerateFilterError(f"num_filters must be <= fft_length/2 - 1 = "
                                    f"{fft_length // 2 - 1}, got {num_filters}")


def require_band(low_freq, high_freq, nyquist=float("inf")) -> float:
    """Raise unless low and high (None: nyquist) are reals with 0 <= low < high <= nyquist;
    return high."""
    high_freq = nyquist if high_freq is None else high_freq
    require_real("low_freq", low_freq)
    require_real("high_freq", high_freq)
    if not 0.0 <= low_freq < high_freq <= nyquist:
        raise InvalidBandError(f"band [{low_freq}, {high_freq}] must satisfy "
                               f"0 <= low < high <= {nyquist}")
    return high_freq


def build_filterbank(
    num_filters: int,
    fft_length: int,
    sampling_frequency: int,
    low_freq: float = 0.0,
    high_freq: float | None = None,
) -> FilterBank:
    """Build M triangular mel filters over the K = N/2 + 1 FFT bins.

    Filter i rises linearly in Hz from 0 at edge i-1 to 1 at peak i and
    falls back to 0 at edge i+1.  The result is cached per arguments and
    shared; its weights and frequencies are read-only.
    """
    # before the cache key and any array, so a bad argument is a typed error
    require_filter_count(num_filters, fft_length)
    require_positive("sampling_frequency", sampling_frequency)
    high_freq = require_band(low_freq, high_freq, sampling_frequency / 2.0)
    return _build_filterbank(num_filters, fft_length, sampling_frequency, low_freq, high_freq)


@functools.lru_cache(maxsize=32)
def _build_filterbank(num_filters, fft_length, sampling_frequency, low_freq, high_freq):
    mel_points = np.linspace(hz_to_mel(low_freq), hz_to_mel(high_freq), num_filters + 2)
    hz_points = mel_to_hz(mel_points)
    # pin the endpoints so round-trip error cannot push them past the band
    hz_points[0] = low_freq
    hz_points[-1] = high_freq

    bin_spacing = sampling_frequency / fft_length
    if np.min(np.diff(hz_points)) < bin_spacing:
        raise DegenerateFilterError(
            f"adjacent filter edges closer than one bin ({bin_spacing:.2f} Hz); "
            "reduce num_filters or increase fft_length"
        )

    num_bins = fft_length // 2 + 1
    bin_freqs = np.arange(num_bins) * bin_spacing

    # row i - 1 is filter i: edges i - 1 and i + 1, peak i
    left, peak, right = hz_points[:-2, None], hz_points[1:-1, None], hz_points[2:, None]
    rising = (bin_freqs - left) / (peak - left)
    falling = (right - bin_freqs) / (right - peak)
    weights = np.maximum(0.0, np.minimum(rising, falling))

    weights.flags.writeable = False
    hz_points.flags.writeable = False
    return FilterBank(weights=weights, center_frequencies=hz_points)
