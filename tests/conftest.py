"""Shared helpers: independent WAV synthesis and SPFE read-back."""

import io
import os
import struct
import wave
from pathlib import Path

import numpy as np
import pytest

import spfeat


@pytest.fixture(autouse=True)
def _subprocess_imports_package_under_test(monkeypatch):
    """Make ``python -m spfeat`` in a subprocess import the copy the tests import."""
    src = str(Path(spfeat.__file__).resolve().parents[1])
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    )


def wav_bytes(samples, sampling_frequency=16000, channels=1):
    """Serialize int16 samples through the stdlib wave module.

    Acts as an independent writer so read_wav round trips are checked
    against code that shares nothing with the parser.  For stereo,
    ``samples`` is an (n, 2) array of channel pairs.
    """
    data = np.asarray(samples, dtype=np.int16)
    if channels == 2:
        data = data.reshape(-1, 2)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(sampling_frequency)
        wf.writeframes(data.tobytes())
    return buf.getvalue()


def write_wav(path, samples, sampling_frequency=16000, channels=1):
    path.write_bytes(wav_bytes(samples, sampling_frequency, channels))
    return path


def read_spfe(path):
    """Decode the binary feature format; test-only companion to write_spfe."""
    blob = path.read_bytes()
    magic, version, reserved, rows, cols = struct.unpack_from("<4sHHII", blob, 0)
    assert magic == b"SPFE"
    assert version == 1
    assert reserved == 0
    values = np.frombuffer(blob, dtype="<f8", offset=16)
    assert len(values) == rows * cols
    return values.reshape(rows, cols)
