"""The typed-error contract of the public API.

Every callable in ``spfeat.__all__`` is called with valid arguments, and
then with one argument at a time replaced by each of twelve bad values.
Each call must return finite results or raise an ``SpfeatError``; with
warnings as errors, no NumPy warning may escape either.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import spfeat
from spfeat.errors import SpfeatError

from conftest import write_wav

BAD_VALUES = {
    "None": None,
    "str": "x",
    "float": 5.5,
    "negative": -3,
    "bool": True,
    "nan": float("nan"),
    "inf": float("inf"),
    "empty-list": [],
    "nested-list": [[1]],
    "3-d": np.zeros((2, 2, 2)),
    "0-d": np.array(0.5),
    "object": object(),
}

# plain records: they check nothing themselves, and every function that
# takes one checks its type
RECORDS = {"FeatureMatrix", "SpectrumMatrix"}

_RNG = np.random.default_rng(0)
SIGNAL = spfeat.AudioBuffer(_RNG.uniform(-0.5, 0.5, 1600), 16000)
FRAMES = spfeat.stack_frames(SIGNAL)
FEATURES = spfeat.FeatureMatrix(data=_RNG.normal(size=(20, 4)))
WAV_NAME = "clip.wav"  # in each test's working directory

# callable -> a valid value for each of its parameters
VALID = {
    "AudioBuffer": dict(samples=SIGNAL.samples, sampling_frequency=16000),
    "FeatureConfig": {f.name: f.default for f in dataclasses.fields(spfeat.FeatureConfig)},
    "apply_window": dict(frames=FRAMES, window="hamming"),
    "build_filterbank": dict(
        num_filters=10, fft_length=512, sampling_frequency=16000, low_freq=0.0, high_freq=None
    ),
    "cmvn": dict(features=FEATURES, variance_normalization=True),
    "cmvnw": dict(features=FEATURES, win_size=3, variance_normalization=True),
    "dct_ii_ortho": dict(row=[1.0, 2.0, 3.0]),
    "extract_derivative": dict(features=FEATURES, window_half_width=2),
    "fft_magnitude": dict(frames=FRAMES, fft_length=512),
    "hz_to_mel": dict(f=1000.0),
    "lmfe": dict(signal=SIGNAL, config=spfeat.FeatureConfig()),
    "log_power_spectrum": dict(frames=FRAMES, fft_length=512, normalize=True),
    "mel_to_hz": dict(m=1000.0),
    "mfcc": dict(signal=SIGNAL, config=spfeat.FeatureConfig()),
    "mfe": dict(signal=SIGNAL, config=spfeat.FeatureConfig()),
    "naive_dft": dict(frame=[1.0, 0.0, -1.0, 0.5]),
    "power_spectrum": dict(frames=FRAMES, fft_length=512),
    "pre_emphasis": dict(signal=SIGNAL, alpha=0.97),
    "read_wav": dict(path=WAV_NAME),
    "samples_to_real": dict(raw=np.arange(-3, 4, dtype=np.int16)),
    "stack_frames": dict(
        signal=SIGNAL, frame_length_s=0.02, frame_stride_s=0.01, zero_padding=True
    ),
}


@pytest.fixture(scope="module")
def wav_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    write_wav(path / WAV_NAME, _RNG.integers(-3000, 3000, 1600))
    return path


def _outcome(name, kwargs):
    """The call's result; for a FeatureConfig, the mfcc features it gives,
    since a config is only checked against a signal when it is used."""
    result = getattr(spfeat, name)(**kwargs)
    if isinstance(result, spfeat.FeatureConfig):
        result = spfeat.mfcc(SIGNAL, result)
    return result


def _assert_finite(value):
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _assert_finite(getattr(value, field.name))
    elif isinstance(value, (np.ndarray, np.generic, float)):
        assert np.isfinite(value).all(), value


def test_table_covers_the_public_api():
    exported = {name for name in spfeat.__all__ if callable(getattr(spfeat, name))}
    assert set(VALID) == exported - RECORDS
    for name, kwargs in VALID.items():
        assert set(kwargs) == set(inspect.signature(getattr(spfeat, name)).parameters), name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_arguments_give_finite_results(name, wav_dir, monkeypatch):
    monkeypatch.chdir(wav_dir)
    _assert_finite(_outcome(name, VALID[name]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("label", BAD_VALUES)
@pytest.mark.parametrize("name, param", [(n, p) for n in sorted(VALID) for p in VALID[n]])
def test_bad_argument_gives_finite_result_or_typed_error(name, param, label, wav_dir, monkeypatch):
    monkeypatch.chdir(wav_dir)
    try:
        result = _outcome(name, {**VALID[name], param: BAD_VALUES[label]})
    except SpfeatError:
        return
    _assert_finite(result)
