"""Top-level feature extractors: MFE, log-MFE, MFCC, and delta stacking."""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, replace

import numpy as np

from ._checks import (as_real_array, require_fft_length, require_flag, require_int, require_real,
                      require_type)
from .audio_io import AudioBuffer
from .errors import InvalidParameterError
from .mel_filterbank import build_filterbank, require_band, require_filter_count
from .preprocess import apply_window, pre_emphasis, require_alpha, require_window, stack_frames
from .spectrum import power_spectrum

# Floor for filterbank energies and frame energies, avoids log(0).
ENERGY_FLOOR = float(np.finfo(np.float64).eps)

# Frames per block in mfe; window and spectrum exist one block at a time.  It fixes the
# filterbank product's row blocks, so the output bits; spectrum.ROW_BLOCK sizes rfft only.
MFE_BLOCK = 1024


@dataclass(frozen=True)
class FeatureMatrix:
    """T x D matrix of per-frame features, with the total power of each frame.

    frame_energies is mfe's per-frame power sum, kept by lmfe and mfcc;
    extract_derivative's stacked output has none.
    """

    data: np.ndarray
    frame_energies: np.ndarray | None = None  # length T, or None after extract_derivative

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]


def _stage_default(stage, name: str):
    """The default that a stage function declares for its parameter name."""
    return inspect.signature(stage).parameters[name].default


@dataclass(frozen=True)
class FeatureConfig:
    """All pipeline parameters in one record, checked when it is built."""

    alpha: float = _stage_default(pre_emphasis, "alpha")
    frame_length_s: float = _stage_default(stack_frames, "frame_length_s")
    frame_stride_s: float = _stage_default(stack_frames, "frame_stride_s")
    window: str = _stage_default(apply_window, "window")
    fft_length: int = 512
    num_filters: int = 40
    num_cepstral: int = 13
    low_freq: float = _stage_default(build_filterbank, "low_freq")
    high_freq: float | None = _stage_default(build_filterbank, "high_freq")  # None means fs/2
    dc_elimination: bool = False
    zero_padding: bool = _stage_default(stack_frames, "zero_padding")

    def __post_init__(self):
        self.validate()

    def validate(self):
        require_alpha(self.alpha)
        for name in ("frame_length_s", "frame_stride_s"):
            dur = getattr(self, name)
            require_real(name, dur)
            if not 0.001 <= dur <= 1.0:
                raise InvalidParameterError(f"{name} must be in [0.001, 1.0] s, got {dur}")
        require_window(self.window)
        require_flag("dc_elimination", self.dc_elimination)
        require_flag("zero_padding", self.zero_padding)
        # the filterbank's rules that need no sample rate; the rest wait for the signal
        require_filter_count(self.num_filters, self.fft_length)
        require_band(self.low_freq, self.high_freq)
        require_int("num_cepstral", self.num_cepstral)
        if not 1 <= self.num_cepstral <= self.num_filters:
            raise InvalidParameterError(
                f"num_cepstral must be in [1, num_filters], got {self.num_cepstral}"
            )

    def validate_dc_elimination(self):
        """The rule only mfcc applies: dropping coefficient 0 needs one more filter."""
        if self.dc_elimination and self.num_cepstral >= self.num_filters:
            raise InvalidParameterError(
                "dc_elimination needs num_cepstral <= num_filters - 1"
            )


@functools.lru_cache(maxsize=32)
def _dct_matrix(size: int) -> np.ndarray:
    """The orthonormal DCT-II basis, cached per size and shared read-only."""
    # B[k, n] = s_k * cos(pi * k * (2n + 1) / (2 * size)), orthonormal scaling
    k = np.arange(size)[:, None]
    n = np.arange(size)[None, :]
    basis = np.cos(np.pi * k * (2 * n + 1) / (2 * size))
    basis[0] *= np.sqrt(1.0 / size)
    basis[1:] *= np.sqrt(2.0 / size)
    basis.flags.writeable = False
    return basis


def dct_ii_ortho(row) -> np.ndarray:
    """Orthonormal DCT-II of a single row."""
    x = as_real_array("row", row, (1,))
    if not len(x):
        raise InvalidParameterError("dct_ii_ortho needs a non-empty row")
    return _dct_matrix(len(x)) @ x


def mfe(signal: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Mel filterbank energies: triangular-filter dot products of the power spectrum.

    Frames go through window, power spectrum and filterbank MFE_BLOCK at a
    time, so no T x L or T x (N/2 + 1) array is built; the result is the
    same as running each stage over all frames at once.
    """
    require_type("config", config, FeatureConfig)
    frames = stack_frames(
        pre_emphasis(signal, config.alpha),
        frame_length_s=config.frame_length_s,
        frame_stride_s=config.frame_stride_s,
        zero_padding=config.zero_padding,
    )
    require_fft_length(config.fft_length, frames.shape[1])  # so it wins over band errors
    bank = build_filterbank(
        config.num_filters,
        config.fft_length,
        signal.sampling_frequency,
        low_freq=config.low_freq,
        high_freq=config.high_freq,
    )
    num_frames = len(frames)
    energies = np.empty((num_frames, config.num_filters))
    frame_energies = np.empty(num_frames)
    for start in range(0, num_frames, MFE_BLOCK):
        block = frames[start:start + MFE_BLOCK]
        power = power_spectrum(apply_window(block, config.window), config.fft_length).data
        count = len(power)
        frame_energies[start:start + count] = power.sum(axis=1)
        if count < MFE_BLOCK < num_frames:
            # OpenBLAS takes another path for short matrices; a zero-filled
            # full-height block keeps these rows bit-identical to the others
            power = np.concatenate([power, np.zeros((MFE_BLOCK - count, power.shape[1]))])
        energies[start:start + count] = (power @ bank.T)[:count]
        del power  # freed before the next block's window and spectrum exist
    np.maximum(energies, ENERGY_FLOOR, out=energies)
    np.maximum(frame_energies, ENERGY_FLOOR, out=frame_energies)
    return FeatureMatrix(data=energies, frame_energies=frame_energies)


def lmfe(signal: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Natural log of the mel filterbank energies."""
    energies = mfe(signal, config)
    # mfe's fresh array, ours to reuse
    return replace(energies, data=np.log(energies.data, out=energies.data))


def mfcc(signal: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """MFCCs: orthonormal DCT-II of the log filterbank energies, truncated to C.

    With dc_elimination, coefficient 0 is dropped and 1..C kept.
    frame_energies is mfe's: the linear per-frame power sum, floored at
    ENERGY_FLOOR.
    """
    require_type("config", config, FeatureConfig)
    config.validate_dc_elimination()
    log_energies = lmfe(signal, config)
    # one matvec per row, stacked: bit-identical to dct_ii_ortho on each row
    basis = _dct_matrix(config.num_filters)
    cepstra = np.matmul(basis, log_energies.data[:, :, None])[:, :, 0]
    first = 1 if config.dc_elimination else 0
    # a C-ordered copy of the kept columns, so the T x num_filters cepstra can go
    kept = cepstra[:, first : first + config.num_cepstral].copy()
    return replace(log_energies, data=kept)


def _delta(data: np.ndarray, half_width: int) -> np.ndarray:
    # least-squares slope over a +-half_width window with edge replication
    num_frames = data.shape[0]
    denom = 2.0 * sum(n * n for n in range(1, half_width + 1))
    # row t + half_width of the extended copy is frame t; past either end,
    # the edge frame repeats
    ext = np.concatenate([data[:1]] * half_width + [data] + [data[-1:]] * half_width)
    out = np.zeros_like(data)
    diff = np.empty_like(data)
    for n in range(1, half_width + 1):
        ahead = ext[half_width + n : half_width + n + num_frames]
        behind = ext[half_width - n : half_width - n + num_frames]
        np.subtract(ahead, behind, out=diff)
        diff *= n
        out += diff
    return out / denom


def extract_derivative(
    features: FeatureMatrix, window_half_width: int = 2
) -> FeatureMatrix:
    """Stack features with their deltas and delta-deltas: [static | d | dd]."""
    require_int("window_half_width", window_half_width)
    if window_half_width < 1:
        raise InvalidParameterError(f"window_half_width must be >= 1, got {window_half_width}")
    if not (isinstance(features, FeatureMatrix) and isinstance(features.data, np.ndarray)):
        raise InvalidParameterError(
            f"extract_derivative needs a FeatureMatrix of 2-D real data, got {features!r:.80}"
        )
    data = as_real_array("features (a FeatureMatrix of 2-D real data)", features.data, (2,))
    delta = _delta(data, window_half_width)
    delta_delta = _delta(delta, window_half_width)
    return FeatureMatrix(data=np.concatenate([data, delta, delta_delta], axis=1))
