"""Tests of the benchmark itself: inputs, reference and output checks.

Run from the repository root:  python -m pytest perfbench/tests
"""

import dataclasses

import numpy as np
import pytest

import spfeat
import spfeat.features
from spfeat import errors
from spfeat.cli import write_csv, write_spfe

import child
import inputs
import reference
import run


def test_generator_is_deterministic_per_seed():
    def corpus_bytes(seed):
        good, bad = inputs.corpus(seed)
        return [(c.name, inputs.wav_bytes(c.samples, c.sampling_frequency)) for c in good] + [
            (b.name, b.data) for b in bad
        ]

    assert corpus_bytes(3) == corpus_bytes(3)
    assert corpus_bytes(3) != corpus_bytes(4)
    for make in (inputs.loader_pool, inputs.longform):
        first, again = make(5), make(5)
        assert [c.name for c in first] == [c.name for c in again]
        assert all(np.array_equal(a.samples, b.samples) for a, b in zip(first, again))


def test_inputs_have_digital_silence_and_fixed_work():
    clip = inputs.loader_pool(1)[0]
    runs = np.flatnonzero(np.diff(np.r_[1, clip.mono() != 0, 1]))
    assert np.max(np.diff(runs)) >= 0.06 * clip.sampling_frequency  # a gap holds whole frames
    totals = [sum(c.seconds for c in inputs.corpus(seed)[0]) for seed in (1, 2, 3)]
    assert max(totals) == min(totals)


def _tiny(fs):
    return inputs.make_clip(7, 1, "tiny", 0.35, fs)


@pytest.mark.parametrize("fs", [16000, 8000])
def test_reference_agrees_with_spfeat_on_a_tiny_clip(fs):
    clip = _tiny(fs)
    config = child.loader_config(inputs.LOADER_FFT_LENGTH[fs])
    data, energy = child.loader_item(spfeat.AudioBuffer(clip.mono(), fs), config)
    assert run.loader_mismatch("tiny", {"out": data, "energy": energy}, clip) is None

    signal = spfeat.AudioBuffer(clip.mono(), fs)
    stacked = spfeat.extract_derivative(spfeat.mfcc(signal, spfeat.FeatureConfig(window="hamming")))
    ceps, _ = reference.mfcc(clip.mono(), fs, 512)
    rows = np.arange(stacked.num_frames)
    want = reference.cmvnw_var_rows(reference.stacked(ceps), rows)
    got = spfeat.cmvnw(stacked, 301, variance_normalization=True).data
    assert reference.mismatch("cmvnw", got, want, reference.FEATURE_ATOL, reference.FEATURE_RTOL) is None
    assert reference.mismatch("cmvnw", got, reference.cmvnw_var(reference.stacked(ceps)),
                              reference.FEATURE_ATOL, reference.FEATURE_RTOL) is None


@pytest.mark.parametrize("kind", inputs.BAD_KINDS)
def test_planted_bad_files_fail_with_the_expected_error(tmp_path, kind):
    bad = inputs.make_bad(1, 3000, "bad", kind)
    path = tmp_path / "bad.wav"
    path.write_bytes(bad.data)
    expected = tuple(getattr(errors, name) for name in bad.errors)
    with pytest.raises(errors.SpfeatError) as caught:
        # read_wav rejects every kind except an empty data chunk, which the
        # seed reader accepts and the first pipeline stage then rejects
        spfeat.mfcc(spfeat.read_wav(path))
    assert isinstance(caught.value, expected)
    if kind != "empty_data":
        with pytest.raises(expected):
            spfeat.read_wav(path)


def _with_bin_error(monkeypatch, k, fn):
    """Make one bin of the loudest frame wrong in every power spectrum."""
    original = spfeat.features.power_spectrum

    def wrong_bin(frames, fft_length):
        spectrum = original(frames, fft_length)
        data = spectrum.data.copy()
        frame = np.argmax(data.sum(axis=1))
        data[frame, k] = fn(data[frame, k])
        return dataclasses.replace(spectrum, data=data)

    monkeypatch.setattr(spfeat.features, "power_spectrum", wrong_bin)


@pytest.mark.parametrize("k, fn", [
    (40, lambda v: v * 1.01),  # inside a mel band: caught by the features
    (0, lambda v: v * 2.0),    # DC carries zero filter weight: caught by frame energies
])
def test_one_wrong_fft_bin_fails_the_check(monkeypatch, k, fn):
    clip = _tiny(16000)
    _with_bin_error(monkeypatch, k, fn)
    data, energy = child.loader_item(spfeat.AudioBuffer(clip.mono(), 16000), child.loader_config(512))
    assert run.loader_mismatch("tiny", {"out": data, "energy": energy}, clip) is not None


@pytest.mark.parametrize("workload, fmt", [("corpus_csv", "csv"), ("longform_spfe", "spfe")])
def test_corrupted_cli_output_fails_the_check(tmp_path, workload, fmt):
    clip = _tiny(16000)
    stacked = spfeat.extract_derivative(
        spfeat.mfcc(spfeat.AudioBuffer(clip.mono(), 16000), spfeat.FeatureConfig(window="hamming"))
    )
    if workload == "corpus_csv":
        out = spfeat.cmvn(stacked, variance_normalization=True).data
    else:
        out = spfeat.cmvnw(stacked, 301, variance_normalization=True).data
    path = tmp_path / f"tiny.{fmt}"
    writer = write_csv if fmt == "csv" else write_spfe
    rng = np.random.default_rng(0)

    writer(out, path)
    assert run.output_mismatch(workload, path, clip, rng) is None

    corrupted = out.copy()
    corrupted[0, 5] += 1e-6
    writer(corrupted, path)
    assert run.output_mismatch(workload, path, clip, rng) is not None

    writer(out[:-1], path)
    assert run.output_mismatch(workload, path, clip, rng) is not None
