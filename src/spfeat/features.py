"""Top-level feature extractors: MFE, log-MFE, MFCC, and delta stacking."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .errors import InvalidFftLengthError, InvalidParameterError
from .mel_filterbank import build_filterbank
from .preprocess import WINDOW_TYPES, apply_window, pre_emphasis, stack_frames
from .spectrum import is_power_of_two, power_spectrum

# Floor for filterbank energies and frame energies, avoids log(0).
ENERGY_FLOOR = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class FeatureMatrix:
    """T x D matrix of per-frame features.

    frame_energies holds total per-frame power for mfe/lmfe/mfcc and is
    None for derivative-stacked output.
    """

    data: np.ndarray
    kind: str  # mfe | lmfe | mfcc | derivative_stacked
    frame_energies: np.ndarray | None = None

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class FeatureConfig:
    """All pipeline parameters in one record."""

    alpha: float = 0.97
    frame_length_s: float = 0.020
    frame_stride_s: float = 0.010
    window: str = "rectangular"
    fft_length: int = 512
    num_filters: int = 40
    num_cepstral: int = 13
    low_freq: float = 0.0
    high_freq: float | None = None  # None means fs/2
    dc_elimination: bool = False
    zero_padding: bool = True

    def validate(self):
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidParameterError(f"alpha must be in [0, 1), got {self.alpha}")
        for name, dur in (
            ("frame_length_s", self.frame_length_s),
            ("frame_stride_s", self.frame_stride_s),
        ):
            if not 0.001 <= dur <= 1.0:
                raise InvalidParameterError(
                    f"{name} must be in [0.001, 1.0] s, got {dur}"
                )
        if self.window not in WINDOW_TYPES:
            raise InvalidParameterError(f"unknown window {self.window!r}")
        for name in ("fft_length", "num_filters", "num_cepstral"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        if not is_power_of_two(self.fft_length):
            raise InvalidFftLengthError(
                f"fft_length {self.fft_length} is not a power of two"
            )
        if self.num_filters < 1:
            raise InvalidParameterError("num_filters must be >= 1")
        if not 1 <= self.num_cepstral <= self.num_filters:
            raise InvalidParameterError(
                f"num_cepstral must be in [1, num_filters], got {self.num_cepstral}"
            )


def _dct_matrix(size: int) -> np.ndarray:
    # B[k, n] = s_k * cos(pi * k * (2n + 1) / (2 * size)), orthonormal scaling
    k = np.arange(size)[:, None]
    n = np.arange(size)[None, :]
    basis = np.cos(np.pi * k * (2 * n + 1) / (2 * size))
    basis[0] *= np.sqrt(1.0 / size)
    basis[1:] *= np.sqrt(2.0 / size)
    return basis


def dct_ii_ortho(row) -> np.ndarray:
    """Orthonormal DCT-II of a single row."""
    x = np.asarray(row, dtype=np.float64)
    return _dct_matrix(len(x)) @ x


def mfe(signal: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Mel filterbank energies: triangular-filter dot products of the power spectrum."""
    config.validate()
    emphasized = pre_emphasis(signal, config.alpha)
    frames = stack_frames(
        emphasized,
        frame_length_s=config.frame_length_s,
        frame_stride_s=config.frame_stride_s,
        zero_padding=config.zero_padding,
    )
    frames = apply_window(frames, config.window)
    power = power_spectrum(frames, config.fft_length)
    bank = build_filterbank(
        config.num_filters,
        config.fft_length,
        signal.sampling_frequency,
        low_freq=config.low_freq,
        high_freq=config.high_freq,
    )
    energies = np.maximum(power.data @ bank.weights.T, ENERGY_FLOOR)
    frame_energies = np.maximum(power.data.sum(axis=1), ENERGY_FLOOR)
    return FeatureMatrix(data=energies, kind="mfe", frame_energies=frame_energies)


def lmfe(signal: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Natural log of the mel filterbank energies."""
    energies = mfe(signal, config)
    return FeatureMatrix(
        data=np.log(energies.data),
        kind="lmfe",
        frame_energies=energies.frame_energies,
    )


def mfcc(signal: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """MFCCs: orthonormal DCT-II of the log filterbank energies, truncated to C.

    With dc_elimination, coefficient 0 is dropped and 1..C kept; the log
    frame energy stays available separately via frame_energies.
    """
    if config.dc_elimination and config.num_cepstral >= config.num_filters:
        raise InvalidParameterError(
            "dc_elimination needs num_cepstral <= num_filters - 1"
        )
    log_energies = lmfe(signal, config)
    # per-row matvec keeps this bit-identical to dct_ii_ortho on each row
    basis = _dct_matrix(config.num_filters)
    cepstra = np.array([basis @ row for row in log_energies.data])
    if config.dc_elimination:
        kept = cepstra[:, 1 : config.num_cepstral + 1]
    else:
        kept = cepstra[:, : config.num_cepstral]
    return FeatureMatrix(
        data=kept, kind="mfcc", frame_energies=log_energies.frame_energies
    )


def _delta(data: np.ndarray, half_width: int) -> np.ndarray:
    # least-squares slope over a +-half_width window with edge replication
    num_frames = data.shape[0]
    denom = 2.0 * sum(n * n for n in range(1, half_width + 1))
    idx = np.arange(num_frames)
    out = np.zeros_like(data)
    for n in range(1, half_width + 1):
        ahead = data[np.minimum(idx + n, num_frames - 1)]
        behind = data[np.maximum(idx - n, 0)]
        out += n * (ahead - behind)
    return out / denom


def extract_derivative(
    features: FeatureMatrix, window_half_width: int = 2
) -> FeatureMatrix:
    """Stack features with their deltas and delta-deltas: [static | d | dd]."""
    if window_half_width < 1:
        raise InvalidParameterError("window_half_width must be >= 1")
    delta = _delta(features.data, window_half_width)
    delta_delta = _delta(delta, window_half_width)
    return FeatureMatrix(
        data=np.concatenate([features.data, delta, delta_delta], axis=1),
        kind="derivative_stacked",
    )
