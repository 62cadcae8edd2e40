"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same samples and the same WAV bytes.  WAV files are written with the
standard library's ``wave`` module, so the encoder shares no code with
``spfeat.audio_io.read_wav``.

Durations, sample rates and channel counts come from fixed grids; the
seed only shuffles them, picks the planted bad kinds and draws the signal
content.  That keeps the amount of work per run the same across seeds, so
timings from different seeds are comparable.
"""

from __future__ import annotations

import io
import wave
from dataclasses import dataclass

import numpy as np

# Silent gaps are exact digital zeros, long enough to hold whole 20 ms
# frames, so every input drives the ENERGY_FLOOR path of the pipeline.
_GAP_S = (0.06, 0.35)
_SEGMENT_S = (0.12, 0.5)


@dataclass(frozen=True)
class Clip:
    """One good input: int16 samples shaped (n,) for mono or (n, 2) for stereo."""

    name: str
    samples: np.ndarray
    sampling_frequency: int

    @property
    def seconds(self) -> float:
        return self.samples.shape[0] / self.sampling_frequency

    def mono(self) -> np.ndarray:
        """Float mono signal as the WAV format defines it: v / 32768, channels averaged."""
        x = self.samples.astype(np.float64) / 32768.0
        return x if x.ndim == 1 else x.mean(axis=1)


@dataclass(frozen=True)
class BadFile:
    """A planted corrupt input and the outcome the program must give it."""

    name: str
    kind: str
    data: bytes
    # SpfeatError subclasses the library may raise for it, in pipeline order
    errors: tuple[str, ...]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def speech_like(rng: np.random.Generator, seconds: float, fs: int) -> np.ndarray:
    """Syllable-like bursts separated by digital silence, as float in [-1, 1).

    Voiced bursts are harmonic tones with vibrato plus breath noise;
    about one burst in five is unvoiced, i.e. shaped white noise.
    """
    n = int(round(seconds * fs))
    x = np.zeros(n)
    pos = int(rng.uniform(*_GAP_S) * fs)
    while pos < n:
        end = min(n, pos + int(rng.uniform(*_SEGMENT_S) * fs))
        m = end - pos
        t = np.arange(m) / fs
        if rng.random() < 0.8:
            f0 = rng.uniform(85.0, 255.0)
            vibrato = 1.0 + 0.03 * np.sin(
                2 * np.pi * rng.uniform(4.0, 7.0) * t + rng.uniform(0, 2 * np.pi)
            )
            phase = 2 * np.pi * np.cumsum(f0 * vibrato) / fs
            tilt = rng.uniform(0.6, 0.9)
            seg = np.zeros(m)
            for k in range(1, min(20, int(0.45 * fs / f0)) + 1):
                seg += tilt ** (k - 1) * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
            seg += 0.05 * rng.standard_normal(m)
        else:
            seg = rng.standard_normal(m)
        seg *= np.sin(np.pi * (np.arange(m) + 0.5) / m) ** 0.5
        x[pos:end] = rng.uniform(0.05, 0.3) * seg / np.max(np.abs(seg))
        pos = end + int(rng.uniform(*_GAP_S) * fs)
    return x


def _to_int16(x: np.ndarray) -> np.ndarray:
    return np.clip(np.round(x * 32767.0), -32768, 32767).astype(np.int16)


def make_clip(seed: int, stream: int, name: str, seconds: float, fs: int, channels: int = 1) -> Clip:
    rng = _rng(seed, stream)
    x = speech_like(rng, seconds, fs)
    left = _to_int16(x)
    if channels == 1:
        return Clip(name, left, fs)
    # second channel: same content, quieter, so silent gaps stay exactly zero
    return Clip(name, np.stack([left, _to_int16(0.7 * x)], axis=1), fs)


def wav_bytes(samples: np.ndarray, fs: int, sampwidth: int = 2) -> bytes:
    """Encode (n,) or (n, channels) integer samples with the stdlib ``wave`` writer."""
    channels = 1 if samples.ndim == 1 else samples.shape[1]
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(sampwidth)
        w.setframerate(fs)
        dtype = "<i2" if sampwidth == 2 else "u1"
        w.writeframes(np.ascontiguousarray(samples, dtype=dtype).tobytes())
    return buf.getvalue()


BAD_KINDS = ("truncated", "8bit", "3channel", "non_riff", "empty_data")


def make_bad(seed: int, stream: int, name: str, kind: str) -> BadFile:
    rng = _rng(seed, stream)
    fs = 16000
    x = _to_int16(speech_like(rng, 1.0, fs))
    if kind == "truncated":
        full = wav_bytes(x, fs)
        data = full[: len(full) - int(rng.integers(100, len(full) // 2))]
        errors = ("MalformedWavError",)
    elif kind == "8bit":
        data = wav_bytes((x.astype(np.int32) // 256 + 128).astype(np.uint8), fs, sampwidth=1)
        errors = ("UnsupportedFormatError",)
    elif kind == "3channel":
        data = wav_bytes(np.stack([x, x, x], axis=1), fs)
        errors = ("UnsupportedFormatError",)
    elif kind == "non_riff":
        # looks like an MP3 stream renamed to .wav
        data = b"ID3\x04\x00\x00" + rng.integers(0, 256, 4000, dtype=np.uint8).tobytes()
        errors = ("MalformedWavError",)
    elif kind == "empty_data":
        # a valid header with zero frames: read_wav may accept it, the
        # pipeline must then reject the empty signal
        data = wav_bytes(np.zeros(0, dtype=np.int16), fs)
        errors = ("MalformedWavError", "EmptySignalError")
    else:
        raise ValueError(f"unknown bad-file kind {kind!r}")
    return BadFile(name, kind, data, errors)


# --- workload input sets ----------------------------------------------------

LOADER_POOL = 48
# the loader's two configurations: 16 kHz with a 512-point FFT, 8 kHz with 256
LOADER_FFT_LENGTH = {16000: 512, 8000: 256}


def loader_pool(seed: int) -> list[Clip]:
    """In-memory clips of 0.5-4 s, half at 16 kHz and half at 8 kHz.

    Rates alternate along the sorted duration grid, so both rates cover
    the whole duration range.  The call order is a fixed shuffle: with
    the allocation pattern the same on every seed, only content varies.
    """
    durations = np.linspace(0.5, 4.0, LOADER_POOL)
    order = _rng(0, 1).permutation(LOADER_POOL)
    clips = []
    for pos, i in enumerate(order):
        fs = 16000 if i % 2 == 0 else 8000
        clips.append(make_clip(seed, 1000 + pos, f"clip{pos:03d}", durations[i], fs))
    return clips


CORPUS_GOOD = 18
CORPUS_BAD = 1


def corpus(seed: int) -> tuple[list[Clip], list[BadFile]]:
    """Utterance-length WAVs: 2-20 s on a log grid, mostly 16 kHz mono.

    Every sixth grid duration is 16 kHz stereo and every sixth, offset by
    three, is 8 kHz mono.  One file in 19 is planted bad, of a kind picked
    by the seed.  File names, which set the order in which the CLI
    processes the files, are a fixed shuffle, as in loader_pool.
    """
    rng = _rng(seed, 2)
    durations = np.geomspace(2.0, 20.0, CORPUS_GOOD)
    names = [f"utt{j:03d}" for j in _rng(0, 2).permutation(CORPUS_GOOD + CORPUS_BAD)]
    good = []
    for i in range(CORPUS_GOOD):
        fs, channels = 16000, 1
        if i % 6 == 0:
            channels = 2
        elif i % 6 == 3:
            fs = 8000
        good.append(make_clip(seed, 2000 + i, names[i], durations[i], fs, channels))
    kinds = rng.choice(BAD_KINDS, CORPUS_BAD, replace=False)
    bad = [
        make_bad(seed, 3000 + j, names[CORPUS_GOOD + j], str(kind))
        for j, kind in enumerate(kinds)
    ]
    return good, bad


LONGFORM_S = (60.0, 90.0, 150.0)


def longform(seed: int) -> list[Clip]:
    """A few long 16 kHz mono recordings, 60-150 s."""
    return [make_clip(seed, 4000 + i, f"rec{i}", s, 16000) for i, s in enumerate(LONGFORM_S)]


def setup_clip(seed: int) -> Clip:
    """The 1 s, 16 kHz clip every set-up measurement processes."""
    return make_clip(seed, 5000, "setup", 1.0, 16000)
