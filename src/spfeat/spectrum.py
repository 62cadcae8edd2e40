"""Per-frame frequency-domain transforms.

The production path is a radix-2 real FFT written here:

* Packing.  Each N-sample frame becomes an N/2-point complex sequence,
  even samples in the real part and odd samples in the imaginary part.
  Its FFT Z is untangled into bins 0..N/2 of the frame's DFT,
  X[k] = A[k] Z[k] + (1 - A[k]) conj(Z[N/2 - k]) (Sorensen et al.,
  "Real-valued fast Fourier transform algorithms", IEEE TASSP 1987).
* Stages.  The N/2-point FFT runs as radix-2 Stockham stages.  Each
  stage writes its output, already in natural order, into the other of
  two buffers, so no bit-reversal permutation is needed.
* Plans.  The per-stage twiddles and the untangle factors A are built
  once per N by a cached function, on first use, and are read-only.
* Row blocks.  Frames go through the transform ROW_BLOCK at a time,
  zero-padded into one reused buffer and laid out N/2 x rows, so every
  butterfly is a NumPy operation over a contiguous frame axis written
  into preallocated memory.  No T x N array is ever built; the
  T x (N/2 + 1) result is the only per-call allocation that grows with T.

Two oracles check it in the test suite: ``naive_dft``, the O(N^2)
defining sum kept here, and ``np.fft.rfft``, which the library never calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidFftLengthError
from .preprocess import FrameMatrix

# Power floor applied before taking logs: 10*log10(1e-30) = -300 dB.
POWER_FLOOR = 1e-30

# Frames per transform block.  Smaller blocks pay NumPy's per-call cost
# more often, larger ones fall out of cache; on 5999 x 512 frames, 32 to
# 128 were fastest of 8 .. 512.
ROW_BLOCK = 64


@dataclass(frozen=True)
class SpectrumMatrix:
    """T x K matrix of per-frame spectral values, K = fft_length/2 + 1."""

    data: np.ndarray
    kind: str  # magnitude | power | log_power
    fft_length: int
    sampling_frequency: int


def naive_dft(frame) -> np.ndarray:
    """DFT by its definition: X[k] = sum_n x[n] exp(-2*pi*i*k*n/N)."""
    x = np.asarray(frame, dtype=np.float64)
    n = len(x)
    grid = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * grid / n) @ x


def is_power_of_two(n: int) -> bool:
    """True for 1, 2, 4, ...; the FFT lengths this module accepts."""
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class _Plan:
    half: int  # complex points per frame; N = 1 is computed as N = 2
    twiddles: tuple  # stage s: exp(-i pi j / 2^s), j < 2^s, shaped (2^s, 1, 1); None for s = 0
    untangle: np.ndarray  # A[k] = (1 - i exp(-i pi k / half)) / 2, k = 1 .. half-1, a column


@cache
def _plan(fft_length: int) -> _Plan:
    """Tables for one power-of-two N, built on first use and shared read-only."""
    half = max(fft_length // 2, 1)
    tables = [
        np.exp(-1j * np.pi * np.arange(length) / length)[:, None, None]
        for length in (2**s for s in range(1, half.bit_length() - 1))
    ]
    untangle = 0.5 * (1 - 1j * np.exp(-1j * np.pi * np.arange(1, half) / half))[:, None]
    for table in (untangle, *tables):
        table.flags.writeable = False
    # the first stage's twiddles are all 1
    twiddles = (None, *tables) if half > 1 else ()
    return _Plan(half, twiddles, untangle)


def _butterflies(src: np.ndarray, dst: np.ndarray, twiddle) -> None:
    """One radix-2 Stockham stage: the c interleaved length-L transforms in
    src (L x c x rows) merge pairwise into length-2L ones in dst, in order,
    so no stage needs a bit-reversal permutation."""
    length, count, rows = src.shape
    lo, hi = src[:, : count // 2], src[:, count // 2:]
    dst = dst.reshape(2, length, count // 2, rows)
    if twiddle is None:
        np.subtract(lo, hi, out=dst[1])
        np.add(lo, hi, out=dst[0])
    else:
        np.multiply(hi, twiddle, out=dst[1])
        np.add(lo, dst[1], out=dst[0])
        np.subtract(lo, dst[1], out=dst[1])


def _half_spectra(frames: FrameMatrix, fft_length: int):
    """Yield (row slice, X) per block of frames; X is the (N/2 + 1) x rows
    half spectrum.  X lives in a buffer the next block overwrites."""
    if not is_power_of_two(fft_length):
        raise InvalidFftLengthError(f"fft_length {fft_length} is not a power of two")
    if fft_length < frames.frame_length:
        raise InvalidFftLengthError(
            f"fft_length {fft_length} shorter than frame length {frames.frame_length}"
        )
    plan = _plan(fft_length)
    half, bins = plan.half, fft_length // 2 + 1
    num_frames, length = frames.data.shape
    block = max(1, min(ROW_BLOCK, num_frames))
    # flat buffers so a short last block still gets contiguous views
    padded = np.zeros(block * 2 * half)
    ping = np.empty(block * half, dtype=np.complex128)
    pong = np.empty(block * half, dtype=np.complex128)
    spec = np.empty(block * bins, dtype=np.complex128)

    for start in range(0, num_frames, block):
        rows = min(block, num_frames - start)
        pad = padded[: rows * 2 * half].reshape(rows, 2 * half)
        pad[:, :length] = frames.data[start:start + rows]
        z = ping[: rows * half].reshape(half, rows)
        free = pong[: rows * half].reshape(half, rows)
        # packed points in natural order, frame axis innermost
        np.copyto(z, pad.view(np.complex128).T)
        for stage, twiddle in enumerate(plan.twiddles):
            _butterflies(z.reshape(2**stage, -1, rows), free, twiddle)
            z, free = free, z

        x = spec[: rows * bins].reshape(bins, rows)
        np.add(z[0].real, z[0].imag, out=x[0].real)
        x[0].imag = 0.0
        if bins > half:
            np.subtract(z[0].real, z[0].imag, out=x[half].real)
            x[half].imag = 0.0
        if half > 1:
            # X[k] = A[k] Z[k] + (1 - A[k]) conj(Z[half-k])
            mirror = free[1:]
            inner = x[1:half]
            np.conjugate(z[half - 1:0:-1], out=mirror)
            np.subtract(z[1:half], mirror, out=inner)
            np.multiply(inner, plan.untangle, out=inner)
            np.add(inner, mirror, out=inner)
        yield slice(start, start + rows), x


def fft_magnitude(frames: FrameMatrix, fft_length: int) -> SpectrumMatrix:
    """Magnitude spectrum |X[k]| for bins k = 0 .. N/2 of each frame."""
    out = np.empty((frames.num_frames, fft_length // 2 + 1))
    for rows, x in _half_spectra(frames, fft_length):
        out[rows] = np.abs(x).T
    return SpectrumMatrix(
        data=out,
        kind="magnitude",
        fft_length=fft_length,
        sampling_frequency=frames.sampling_frequency,
    )


def power_spectrum(frames: FrameMatrix, fft_length: int) -> SpectrumMatrix:
    """Power spectrum P[k] = |X[k]|^2 / N of each frame."""
    out = np.empty((frames.num_frames, fft_length // 2 + 1))
    for rows, x in _half_spectra(frames, fft_length):
        out[rows] = (np.square(x.real) + np.square(x.imag)).T
    out /= fft_length
    return SpectrumMatrix(
        data=out,
        kind="power",
        fft_length=fft_length,
        sampling_frequency=frames.sampling_frequency,
    )


def log_power_spectrum(
    frames: FrameMatrix, fft_length: int, normalize: bool = True
) -> SpectrumMatrix:
    """Power spectrum in dB, floored at -300 dB; optionally shifted to max 0."""
    power = power_spectrum(frames, fft_length)
    log_power = 10.0 * np.log10(np.maximum(power.data, POWER_FLOOR))
    if normalize:
        log_power = log_power - log_power.max()
    return SpectrumMatrix(
        data=log_power,
        kind="log_power",
        fft_length=fft_length,
        sampling_frequency=frames.sampling_frequency,
    )
