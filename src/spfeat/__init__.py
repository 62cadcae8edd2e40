"""Speech feature extraction: preprocessing, spectral features, normalization."""

from .audio_io import AudioBuffer, read_wav, samples_to_real
from .features import (
    FeatureConfig,
    FeatureMatrix,
    dct_ii_ortho,
    extract_derivative,
    lmfe,
    mfcc,
    mfe,
)
from .mel_filterbank import build_filterbank, hz_to_mel, mel_to_hz
from .postprocess import cmvn, cmvnw
from .preprocess import apply_window, pre_emphasis, stack_frames
from .spectrum import SpectrumMatrix, fft_magnitude, log_power_spectrum, naive_dft, power_spectrum

__all__ = [
    "AudioBuffer",
    "FeatureConfig",
    "FeatureMatrix",
    "SpectrumMatrix",
    "apply_window",
    "build_filterbank",
    "cmvn",
    "cmvnw",
    "dct_ii_ortho",
    "extract_derivative",
    "fft_magnitude",
    "hz_to_mel",
    "lmfe",
    "log_power_spectrum",
    "mel_to_hz",
    "mfcc",
    "mfe",
    "naive_dft",
    "power_spectrum",
    "pre_emphasis",
    "read_wav",
    "samples_to_real",
    "stack_frames",
]

__version__ = "0.1.0"
