"""End-to-end acceptance gate: one test per shipped guarantee.

Each test prints a PASS line on success (visible with ``pytest -s`` or
``pytest -v -rA``); tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from spfeat.audio_io import AudioBuffer
from spfeat.cli import main, parse_config, run_extract
from spfeat.features import FeatureConfig, FeatureMatrix, mfcc, mfe
from spfeat.mel_filterbank import build_filterbank, hz_to_mel, mel_to_hz
from spfeat.postprocess import cmvn, cmvnw
from spfeat.preprocess import stack_frames
from spfeat.spectrum import fft_magnitude

from conftest import dct_ii_ortho, mel_edges, naive_dft, read_spfe, write_wav


def frames_of(rows, fs=16000):
    rows = np.asarray(rows, dtype=np.float64)
    length = rows.shape[1]
    signal = AudioBuffer(samples=rows.reshape(-1), sampling_frequency=fs)
    return stack_frames(signal, length / fs, length / fs, zero_padding=False)


def report(name):
    print(f"PASS: {name}")


def test_01_fft_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for n in (2, 4, 8, 16, 32, 64):
        frames = rng.uniform(-1, 1, size=(100, n))
        computed = fft_magnitude(frames_of(frames), n).data
        oracle = np.abs(np.array([naive_dft(f) for f in frames]))[:, : n // 2 + 1]
        bound = 1e-9 * max(1.0, np.abs(frames).max() * n)
        assert np.abs(computed - oracle).max() <= bound
    assert time.perf_counter() - start < 5.0
    report("FFT magnitude matches naive DFT oracle, N in {2..64}")


def test_02_parseval_via_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    for n in (2, 4, 8, 16, 32, 64):
        for _ in range(100):
            frame = rng.uniform(-1, 1, size=n)
            time_energy = np.sum(frame**2)
            freq_energy = np.sum(np.abs(naive_dft(frame)) ** 2) / n
            assert abs(time_energy - freq_energy) <= 1e-10 * time_energy
    assert time.perf_counter() - start < 5.0
    report("Parseval identity holds through the naive DFT oracle")


def test_03_filterbank_partition_of_unity():
    start = time.perf_counter()
    bank = build_filterbank(40, 512, 16000, 0, 8000)
    bin_freqs = np.arange(257) * 16000 / 512
    edges = mel_edges(40, 0, 8000)
    interior = (bin_freqs > edges[1]) & (bin_freqs < edges[40])
    assert interior.any()
    sums = bank.sum(axis=0)[interior]
    assert np.abs(sums - 1).max() <= 1e-9
    assert time.perf_counter() - start < 1.0
    report("Triangular filters sum to 1 between first and last peaks")


def test_04_mel_round_trip():
    for f in (1, 10, 100, 1000, 8000, 22050):
        assert abs(float(mel_to_hz(hz_to_mel(f))) - f) <= 1e-12 * f
    report("Mel scale round trip at 1e-12 relative error")


def test_05_frame_count_formula():
    rng = np.random.default_rng(5)
    for _ in range(500):
        length = int(rng.integers(1, 60))
        stride = int(rng.integers(1, 30))
        zero_padding = bool(rng.integers(0, 2))
        n = int(rng.integers(length if not zero_padding else 1, 400))
        x = rng.uniform(-1, 1, size=n)
        fm = stack_frames(
            AudioBuffer(x, 1000), length / 1000, stride / 1000, zero_padding
        )
        if zero_padding:
            count = 1 if n <= length else math.ceil((n - length) / stride) + 1
            padded = np.concatenate(
                [x, np.zeros(length + (count - 1) * stride - n)]
            )
        else:
            count = (n - length) // stride + 1
            padded = x
        expected = [padded[t * stride : t * stride + length] for t in range(count)]
        assert fm.shape == (count, length)
        assert fm.tolist() == [row.tolist() for row in expected]
    report("Frame counts and contents match brute-force enumeration, 500 cases")


def test_06_dct_properties():
    rng = np.random.default_rng(6)
    for m in (1, 4, 13, 40):
        for _ in range(20):
            row = rng.normal(size=m)
            out = dct_ii_ortho(row)
            assert abs(np.linalg.norm(out) - np.linalg.norm(row)) <= 1e-12
        constant = dct_ii_ortho(np.full(m, 1.7))
        assert abs(constant[0] - 1.7 * math.sqrt(m)) <= 1e-12
        assert np.abs(constant[1:]).max(initial=0) <= 1e-12
    report("DCT-II preserves norms and maps constants to DC only")


def test_07_mfcc_pipeline_sanity():
    fs = 16000
    t = np.arange(fs) / fs
    sine = AudioBuffer(0.5 * np.sin(2 * np.pi * 1000 * t), fs)
    out = mfcc(sine)
    assert out.data.shape == (99, 13)

    energies = mfe(sine)
    peaks = mel_edges(40, 0, 8000)[1:41]
    assert energies.data.mean(axis=0).argmax() == np.abs(peaks - 1000).argmin()

    quiet = mfcc(AudioBuffer(np.zeros(fs), fs))
    assert np.isfinite(quiet.data).all()
    report("MFCC pipeline: 99x13 shape, 1 kHz peak bracketed, silence finite")


def test_08_cmvn_moments():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.normal(scale=rng.uniform(0.5, 20), size=(200, 13))
        centered = cmvn(x)
        assert np.abs(centered.mean(axis=0)).max() <= 1e-10 * np.abs(x).max()
        scaled = cmvn(x, variance_normalization=True)
        assert np.abs(scaled.std(axis=0) - 1).max() <= 1e-8

    x = rng.normal(size=(60, 13))
    win = 9
    half = win // 2
    for variance in (False, True):
        out = cmvnw(x, win_size=win, variance_normalization=variance)
        for t in range(half, 60 - half):
            window = x[t - half : t + half + 1]
            expected = x[t] - window.mean(axis=0)
            if variance:
                expected = expected / (window.std(axis=0) + 1e-10)
            assert out[t].tolist() == expected.tolist()
    report("CMVN moments and windowed interior statistics")


def test_09_delta_exactness():
    slope = -1.25
    ramp = slope * np.arange(30)[:, None] * np.ones((1, 6))
    from spfeat.features import extract_derivative

    out = extract_derivative(FeatureMatrix(data=ramp), 2)
    deltas = out.data[:, 6:12]
    assert np.abs(deltas[2:-2] - slope).max() <= 1e-12

    flat = extract_derivative(FeatureMatrix(data=np.full((10, 4), 3.0)), 2)
    assert np.all(flat.data[:, 4:] == 0.0)
    report("Deltas exact on ramps, zero on constants")


def test_10_cli_end_to_end(tmp_path):
    fs = 16000
    t = np.arange(fs) / fs
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    for name, freq in (("a", 300), ("b", 700), ("c", 2000)):
        samples = (0.4 * 32767 * np.sin(2 * np.pi * freq * t)).astype(np.int16)
        write_wav(wavs / f"{name}.wav", samples, fs)

    snapshots = []
    for run in ("r1", "r2"):
        out_dir = tmp_path / run
        for fmt in ("csv", "spfe"):
            summary = run_extract(parse_config(
                ["--feature", "mfcc", "--input", str(wavs),
                 "--output-dir", str(out_dir), "--format", fmt]
            ))
            assert (summary.files_ok, summary.files_failed) == (3, 0)
        snapshots.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert snapshots[0] == snapshots[1]

    from_csv = np.array(
        [[float(v) for v in line.split(",")]
         for line in (tmp_path / "r1" / "a.csv").read_text().splitlines()]
    )
    np.testing.assert_array_equal(from_csv, read_spfe(tmp_path / "r1" / "a.spfe"))

    # partial failure: one truncated file in the batch
    (wavs / "broken.wav").write_bytes((wavs / "a.wav").read_bytes()[:50])
    code = main(
        ["--feature", "mfcc", "--input", str(wavs),
         "--output-dir", str(tmp_path / "partial")]
    )
    assert code == 1
    report("CLI determinism, CSV/SPFE agreement, partial-failure exit code")


def test_10b_partial_failure_summary_line(tmp_path, capsys):
    fs = 16000
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    samples = (1000 * np.ones(fs)).astype(np.int16)
    write_wav(wavs / "a.wav", samples, fs)
    write_wav(wavs / "b.wav", samples, fs)
    (wavs / "c.wav").write_bytes((wavs / "a.wav").read_bytes()[:50])
    code = main(
        ["--feature", "mfcc", "--input", str(wavs),
         "--output-dir", str(tmp_path / "out")]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.strip().splitlines()[-1] == "OK=2 FAIL=1"
    report("Summary line reads OK=2 FAIL=1 for the partial-failure fixture")


def test_11_throughput_budget():
    fs = 16000
    rng = np.random.default_rng(11)
    minute = AudioBuffer(rng.uniform(-0.5, 0.5, size=60 * fs), fs)
    mfcc(minute)  # warm caches before timing
    start = time.perf_counter()
    out = mfcc(minute, FeatureConfig())
    elapsed = time.perf_counter() - start
    assert out.data.shape[1] == 13
    assert elapsed < 2.0
    report(f"60 s of audio to MFCC in {elapsed:.2f} s (< 2 s budget)")
