"""Independent reference for the outputs the benchmark checks.

Written from the definitions, sharing no code with ``spfeat``: framing
via ``sliding_window_view``, ``np.hamming``, ``np.fft.rfft``, a mel
filterbank, the DCT-II by its defining sum, least-squares deltas with
edge replication, and mean/variance normalization.

Tolerances: features after normalization must agree within
``FEATURE_ATOL + FEATURE_RTOL * |ref|``.  The seed code agrees to about
1e-13 on the benchmark inputs, and a 1 % error in one FFT bin of one
frame inside a mel band moves the output by far more than 1e-9.
Per-frame total power (``frame_energies``), which also sums the DC and
Nyquist bins that carry zero filter weight, must agree within a
relative ``ENERGY_RTOL``; the seed code agrees to about 1e-15.
"""

from __future__ import annotations

import math

import numpy as np

FEATURE_ATOL = 1e-9
FEATURE_RTOL = 1e-9
ENERGY_RTOL = 1e-9

ENERGY_FLOOR = float(np.finfo(np.float64).eps)
SIGMA_GUARD = 1e-10

ALPHA = 0.97
FRAME_S = 0.020
STRIDE_S = 0.010
NUM_FILTERS = 40
NUM_CEPSTRAL = 13
WIN_SIZE = 301


def _mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_inv(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def filterbank(num_filters: int, fft_length: int, fs: int) -> np.ndarray:
    """Triangles over 0..fs/2 with edges equally spaced in mel, sampled at bin frequencies."""
    edges = _mel_inv(np.linspace(0.0, _mel(fs / 2.0), num_filters + 2))
    freqs = np.arange(fft_length // 2 + 1) * fs / fft_length
    left, peak, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    up = (freqs - left) / (peak - left)
    down = (right - freqs) / (right - peak)
    return np.clip(np.minimum(up, down), 0.0, None)


def dct_ii(rows: np.ndarray, keep: int) -> np.ndarray:
    """Orthonormal DCT-II by its defining sum, first ``keep`` coefficients."""
    m = rows.shape[1]
    out = np.empty((rows.shape[0], keep))
    n = np.arange(m)
    for k in range(keep):
        scale = math.sqrt((1.0 if k == 0 else 2.0) / m)
        out[:, k] = scale * (rows * np.cos(np.pi * k * (2 * n + 1) / (2 * m))).sum(axis=1)
    return out


def mfcc(x: np.ndarray, fs: int, fft_length: int) -> tuple[np.ndarray, np.ndarray]:
    """Hamming-window MFCCs with default framing; returns (cepstra, frame total power)."""
    y = np.concatenate([x[:1], x[1:] - ALPHA * x[:-1]])
    length = int(math.floor(FRAME_S * fs + 0.5))
    stride = int(math.floor(STRIDE_S * fs + 0.5))
    count = 1 if len(y) <= length else 1 + math.ceil((len(y) - length) / stride)
    y = np.concatenate([y, np.zeros(max(0, length + (count - 1) * stride - len(y)))])
    frames = np.lib.stride_tricks.sliding_window_view(y, length)[::stride][:count]
    spec = np.fft.rfft(frames * np.hamming(length), n=fft_length, axis=1)
    power = (spec.real**2 + spec.imag**2) / fft_length
    energies = np.maximum(power @ filterbank(NUM_FILTERS, fft_length, fs).T, ENERGY_FLOOR)
    total = np.maximum(power.sum(axis=1), ENERGY_FLOOR)
    return dct_ii(np.log(energies), NUM_CEPSTRAL), total


def deltas(c: np.ndarray, half_width: int = 2) -> np.ndarray:
    t = np.arange(c.shape[0])
    last = c.shape[0] - 1
    num = sum(n * (c[np.minimum(t + n, last)] - c[np.maximum(t - n, 0)]) for n in range(1, half_width + 1))
    return num / (2.0 * sum(n * n for n in range(1, half_width + 1)))


def stacked(c: np.ndarray) -> np.ndarray:
    d = deltas(c)
    return np.hstack([c, d, deltas(d)])


def cmvn_var(x: np.ndarray) -> np.ndarray:
    return (x - x.mean(axis=0)) / (x.std(axis=0) + SIGMA_GUARD)


def cmvnw_var(x: np.ndarray, win_size: int = WIN_SIZE) -> np.ndarray:
    """Sliding-window normalization of every row, from running sums over the edge-padded matrix.

    Centring the columns first keeps the running sums small; on the
    benchmark inputs this agrees with the per-window definition to ~1e-11.
    """
    half = win_size // 2
    n = x.shape[0]
    c = x - x.mean(axis=0)
    padded = np.concatenate([np.repeat(c[:1], half, axis=0), c, np.repeat(c[-1:], half, axis=0)])
    zero = np.zeros((1, x.shape[1]))
    s1 = np.concatenate([zero, np.cumsum(padded, axis=0)])
    s2 = np.concatenate([zero, np.cumsum(padded**2, axis=0)])
    mean = (s1[win_size:win_size + n] - s1[:n]) / win_size
    var = np.maximum((s2[win_size:win_size + n] - s2[:n]) / win_size - mean**2, 0.0)
    return (c - mean) / (np.sqrt(var) + SIGMA_GUARD)


def cmvnw_var_rows(x: np.ndarray, rows, win_size: int = WIN_SIZE) -> np.ndarray:
    """Sliding-window normalization of the given rows, from per-window mean and std."""
    half = win_size // 2
    last = x.shape[0] - 1
    out = np.empty((len(rows), x.shape[1]))
    for i, t in enumerate(rows):
        window = x[np.clip(np.arange(t - half, t + half + 1), 0, last)]
        out[i] = (x[t] - window.mean(axis=0)) / (window.std(axis=0) + SIGMA_GUARD)
    return out


def sample_rows(num_rows: int, rng: np.random.Generator, count: int = 48) -> np.ndarray:
    """Both ends, the frames where edge padding starts and stops, and random frames."""
    fixed = [0, 1, WIN_SIZE // 2 - 1, WIN_SIZE // 2, WIN_SIZE // 2 + 1]
    rows = set(fixed) | {num_rows - 1 - r for r in fixed}
    rows |= set(rng.integers(0, num_rows, count).tolist())
    return np.array(sorted(r for r in rows if 0 <= r < num_rows))


def mismatch(name: str, got: np.ndarray, want: np.ndarray, atol: float, rtol: float) -> str | None:
    """None when ``got`` matches ``want``, else a one-line description."""
    got = np.asarray(got)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape}, expected {want.shape}"
    if not np.all(np.isfinite(got)):
        return f"{name}: non-finite values"
    excess = np.abs(got - want) - (atol + rtol * np.abs(want))
    if np.any(excess > 0):
        idx = np.unravel_index(int(np.argmax(excess)), excess.shape)
        return f"{name}: at {tuple(int(i) for i in idx)} got {got[idx]!r}, expected {want[idx]!r}"
    return None

