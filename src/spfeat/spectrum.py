"""Per-frame frequency-domain transforms.

Spectra come from ``np.fft.rfft``, as in SpeechPy's ``fft_spectrum``.
Frames go through it ROW_BLOCK at a time, zero-padded to the FFT length
N by rfft itself, and each block's half spectrum is written straight
into the T x (N/2 + 1) result, so the complex temporary never grows
with the number of frames.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._checks import require_fft_length, require_flag
from .preprocess import require_frames

# Power floor applied before taking logs: 10*log10(1e-30) = -300 dB.
POWER_FLOOR = 1e-30

# Frames per rfft call; it bounds the complex temporary to
# ROW_BLOCK x (N/2 + 1).  On 5999 frames (L/N = 320/512, 512/512,
# 1024/1024) 32 to 128 were fastest of 8 .. 1024, and whole-matrix calls
# were 1.3-1.8x slower.  32, the smallest of those, keeps the block at
# 131 KB for N = 512, so a single-block mfe call stays under glibc's heap
# trim threshold (twice the largest freed block) and a loop of calls does
# not fault its heap in again.  Each row's rfft is the same at any height.
ROW_BLOCK = 32


@dataclass(frozen=True)
class SpectrumMatrix:
    """T x K matrix of per-frame spectral values, K = fft_length/2 + 1."""

    data: np.ndarray


def _half_spectra(frames: np.ndarray, fft_length: int, fill) -> SpectrumMatrix:
    """Check the T x L frames and N, then run rfft over each block of frames
    and let ``fill(X, out_rows)`` write the block's rows of the T x (N/2 + 1)
    spectrum from its half spectrum X."""
    require_frames(frames)
    require_fft_length(fft_length, frames.shape[1])
    data = frames.astype(np.float64, copy=False)  # rfft keeps float32 as complex64
    out = np.empty((len(frames), fft_length // 2 + 1))
    for s in range(0, len(frames), ROW_BLOCK):
        rows = slice(s, s + ROW_BLOCK)
        fill(np.fft.rfft(data[rows], n=fft_length, axis=1), out[rows])
    return SpectrumMatrix(data=out)


def fft_magnitude(frames: np.ndarray, fft_length: int) -> SpectrumMatrix:
    """Magnitude spectrum |X[k]| for bins k = 0 .. N/2 of each frame."""
    return _half_spectra(frames, fft_length, lambda x, out: np.abs(x, out=out))


def power_spectrum(frames: np.ndarray, fft_length: int) -> SpectrumMatrix:
    """Power spectrum P[k] = |X[k]|^2 / N of each frame."""

    def fill(x, out):
        # re^2 and im^2 in one contiguous pass over rfft's own block output,
        # then their sum / N; N is a power of two, so * (1/N) rounds exactly
        # as / N does, subnormal results included
        pairs = x.view(np.float64)
        np.square(pairs, out=pairs)
        np.add(pairs[:, 0::2], pairs[:, 1::2], out=out)
        out *= 1.0 / fft_length

    return _half_spectra(frames, fft_length, fill)


def log_power_spectrum(
    frames: np.ndarray, fft_length: int, normalize: bool = True
) -> SpectrumMatrix:
    """Power spectrum in dB, floored at -300 dB; optionally shifted to max 0."""
    require_flag("normalize", normalize)
    power = power_spectrum(frames, fft_length)
    log_power = 10.0 * np.log10(np.maximum(power.data, POWER_FLOOR))
    if normalize and len(log_power):  # zero frames have no maximum to shift to 0
        log_power = log_power - log_power.max()
    return replace(power, data=log_power)
