"""Bit identity of the library and the CLI as one manifest of SHA-256 digests.

    python tools/bitcheck.py [--src DIR] OUT.json
    python tools/bitcheck.py --compare A.json B.json

The first form imports ``spfeat`` from DIR (default: this checkout's
``src``) and writes one digest per named case:

* frames, windowed frames, the power, magnitude and log-power spectra,
  ``mfe``/``lmfe``/``mfcc`` data and frame energies (40 and 13 filters,
  ``dc_elimination`` on and off), deltas, and ``cmvn``/``cmvnw`` with and
  without variance, over T in T_GRID frames, every window, both padding
  modes and each (fs, N) in RATES;
* ``read_wav`` of a mono and a stereo file;
* the output files, stdout, exit code and stderr (temporary paths
  replaced) of ``python -m spfeat`` with the ``corpus_csv`` and
  ``longform_spfe`` flag sets of ``perfbench/run.py`` on the inputs of
  seeds 1 and 2;
* the exit code, stdout and stderr of ``python -m spfeat`` for each job
  error of JOB_ERRORS, which stops the job before any file is read.

Signals and files come from ``perfbench/inputs.py``, imported read-only.
``--compare`` lists every case that differs or exists on one side only and
exits 1 if there is any.  Bits depend on the machine's BLAS kernels, so a
manifest is only compared with one made on the same machine, parent
against change; no digest is checked in.  To check a parent that predates
this tool, point ``--src`` at a second checkout of it (see README, Tests).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py, read only: flag sets and the input writer)
import inputs  # noqa: E402  (perfbench/inputs.py, read only)
import numpy as np  # noqa: E402

T_GRID = (1, 31, 32, 33, 63, 64, 1023, 1024, 1025, 2051)
RATES = ((16000, 512), (8000, 256), (16000, 1024), (48000, 2048))
WINDOWS = ("rectangular", "hamming", "hanning")
SEEDS = (1, 2)

# Arguments of ``python -m spfeat`` run in a directory that holds in/ (two WAVs),
# case/x/a.wav and case/y/A.WAV, nowav/ (a text file only), a plain file named
# blocker, and the config files unknown-key.cfg and bad-value.cfg.
_JOB = ("--feature", "mfcc", "--input", "in", "--output-dir", "out")
# the rows of test_bad_job_parameter_exits_2_once in tests/test_cli.py
BAD_PARAMETERS = (
    ("--pre-emphasis", "1.5"),
    ("--frame-length", "5"),
    ("--postprocess", "cmvnw", "--win-size", "4"),
    ("--fft-length", "500"),
    ("--dc-elimination", "--num-cepstral", "40"),
    ("--num-filters", "0"),
    ("--num-cepstral", "0"),
    ("--num-filters", "1152921504606846976"),
    ("--num-filters", "300", "--fft-length", "512"),
    ("--low-freq", "5000", "--high-freq", "4000"),
    ("--fft-length", "1073741824"),
    ("--postprocess", "cmvnw", "--win-size", "65537"),
    ("--postprocess", "cmvnw_var", "--win-size", "1099511627777"),
)
JOB_ERRORS = {
    "bad-flag-value": (*_JOB, "--num-filters", "many"),
    "unknown-choice": (*_JOB, "--window", "square"),
    **{"bad-parameter " + " ".join(bad): (*_JOB, *bad) for bad in BAD_PARAMETERS},
    "no-feature": ("--input", "in", "--output-dir", "out"),
    "no-input": ("--feature", "mfcc", "--output-dir", "out"),
    "missing-config": (*_JOB, "--config", "absent.cfg"),
    "config-unknown-key": (*_JOB, "--config", "unknown-key.cfg"),
    "config-bad-value": (*_JOB, "--config", "bad-value.cfg"),
    "output-dir-is-a-file": ("--feature", "mfcc", "--input", "in", "--output-dir", "blocker"),
    "output-dir-below-a-file": ("--feature", "mfcc", "--input", "in",
                                "--output-dir", "blocker/sub"),
    "stems-differ-in-case": ("--feature", "mfcc", "--input", "case/x/a.wav", "case/y/A.WAV",
                             "--output-dir", "out"),
    "no-wavs": ("--feature", "mfcc", "--input", "nowav", "--output-dir", "out"),
}


def digest(value) -> str:
    if isinstance(value, np.ndarray):
        head = f"{value.dtype.str}{value.shape}".encode()
        value = head + np.ascontiguousarray(value).tobytes()
    elif isinstance(value, str):
        value = value.encode()
    return hashlib.sha256(value).hexdigest()


def signal_of(spfeat, num_frames: int, fs: int, zero_padding: bool, seed: int):
    """Speech-like audio that cuts into exactly num_frames 20 ms / 10 ms frames;
    with padding the last frame is partial."""
    length, stride = fs // 50, fs // 100
    if not zero_padding:
        n = length + (num_frames - 1) * stride + stride // 2
    elif num_frames == 1:
        n = length // 2
    else:
        n = length + (num_frames - 2) * stride + stride // 2
    x = inputs.speech_like(np.random.default_rng([seed, num_frames, fs]), n / fs + 0.01, fs)
    return spfeat.AudioBuffer(x[:n], fs)


def library_cases(spfeat, cases: dict) -> None:
    for fs, fft_length in RATES:
        for num_frames in T_GRID:
            for zero_padding in (True, False):
                signal = signal_of(spfeat, num_frames, fs, zero_padding, fft_length)
                key = f"fs{fs}-N{fft_length}/T{num_frames}/pad{int(zero_padding)}"
                frames = spfeat.stack_frames(spfeat.pre_emphasis(signal), zero_padding=zero_padding)
                assert len(frames) == num_frames, key
                cases[f"{key}/frames"] = digest(frames)
                for window in WINDOWS:
                    at = f"{key}/{window}"
                    windowed = spfeat.apply_window(frames, window)
                    cases[f"{at}/windowed"] = digest(windowed)
                    for stage in (spfeat.power_spectrum, spfeat.fft_magnitude,
                                  spfeat.log_power_spectrum):
                        cases[f"{at}/{stage.__name__}"] = digest(stage(windowed, fft_length).data)
                    for num_filters in (40, 13):
                        for dc in (False, True):
                            config = spfeat.FeatureConfig(
                                window=window, fft_length=fft_length, zero_padding=zero_padding,
                                num_filters=num_filters, num_cepstral=min(13, num_filters - 1),
                                dc_elimination=dc)
                            stages = (spfeat.mfcc,) if dc else (spfeat.mfe, spfeat.lmfe, spfeat.mfcc)
                            for stage in stages:
                                out = stage(signal, config)
                                name = f"{at}/{stage.__name__}-M{num_filters}-dc{int(dc)}"
                                cases[name] = digest(out.data)
                                cases[f"{name}/frame_energies"] = digest(out.frame_energies)
                features = spfeat.mfcc(signal, spfeat.FeatureConfig(
                    window="hamming", fft_length=fft_length, zero_padding=zero_padding)).data
                deltas = spfeat.extract_derivative(features)
                cases[f"{key}/deltas"] = digest(deltas)
                for variance in (False, True):
                    cases[f"{key}/cmvn-var{int(variance)}"] = digest(spfeat.cmvn(deltas, variance))
                    cases[f"{key}/cmvnw-var{int(variance)}"] = digest(
                        spfeat.cmvnw(deltas, variance_normalization=variance))


def read_wav_cases(spfeat, tmp: Path, cases: dict) -> None:
    for channels in (1, 2):
        clip = inputs.make_clip(1, 6000 + channels, f"read{channels}", 3.0, 16000, channels)
        path = tmp / f"{clip.name}.wav"
        path.write_bytes(inputs.wav_bytes(clip.samples, clip.sampling_frequency))
        buffer = spfeat.read_wav(path)
        cases[f"read_wav/channels{channels}"] = digest(buffer.samples)
        cases[f"read_wav/channels{channels}/fs"] = str(buffer.sampling_frequency)


def cli_cases(src: Path, tmp: Path, cases: dict) -> None:
    env = {**os.environ, **bench.CHILD_ENV, "PYTHONPATH": str(src)}
    for seed in SEEDS:
        for workload, flags in bench.CLI_FLAGS.items():
            work = tmp / f"{workload}-{seed}"
            in_dir, out_dir = work / "in", work / "out"
            if workload == "corpus_csv":
                good, bad = inputs.corpus(seed)
            else:
                good, bad = inputs.longform(seed), []
            bench.write_inputs(in_dir, good, bad)
            result = subprocess.run(
                [sys.executable, "-m", "spfeat", *flags, "--input", str(in_dir),
                 "--output-dir", str(out_dir)],
                cwd=work, env=env, capture_output=True, text=True)
            key = f"cli/{workload}/seed{seed}"
            cases[f"{key}/exit"] = str(result.returncode)
            cases[f"{key}/stdout"] = digest(result.stdout.replace(str(work), "<work>"))
            cases[f"{key}/stderr"] = digest(result.stderr.replace(str(work), "<work>"))
            for path in sorted(out_dir.iterdir()):
                cases[f"{key}/out/{path.name}"] = digest(path.read_bytes())


def job_error_cases(src: Path, tmp: Path, cases: dict) -> None:
    env = {**os.environ, **bench.CHILD_ENV, "PYTHONPATH": str(src)}
    work = tmp / "job-errors"
    clips = [inputs.make_clip(1, 7000 + i, f"job{i}", 1.0, 16000) for i in range(2)]
    bench.write_inputs(work / "in", clips, [])
    for name in ("x/a.wav", "y/A.WAV"):
        (work / "case" / name).parent.mkdir(parents=True)
        (work / "case" / name).write_bytes(inputs.wav_bytes(clips[0].samples, 16000))
    (work / "nowav").mkdir()
    (work / "nowav" / "notes.txt").write_text("not audio\n")
    (work / "blocker").write_text("not a directory\n")
    (work / "unknown-key.cfg").write_text("# job\nbogus = 1\n")
    (work / "bad-value.cfg").write_text("# job\nnum_filters = many\n")
    for name, args in JOB_ERRORS.items():
        result = subprocess.run([sys.executable, "-m", "spfeat", *args],
                                cwd=work, env=env, capture_output=True, text=True)
        key = f"cli/job-error/{name}"
        cases[f"{key}/exit"] = str(result.returncode)
        cases[f"{key}/stdout"] = digest(result.stdout.replace(str(work), "<work>"))
        cases[f"{key}/stderr"] = digest(result.stderr.replace(str(work), "<work>"))


def write_manifest(src: Path, out: Path) -> int:
    sys.path.insert(0, str(src))
    import spfeat

    if Path(spfeat.__file__).resolve().parent != (src / "spfeat").resolve():
        raise SystemExit(f"error: spfeat was imported from {spfeat.__file__}, not from {src}")
    start = time.perf_counter()
    cases: dict[str, str] = {}
    library_cases(spfeat, cases)
    with tempfile.TemporaryDirectory() as tmp:
        read_wav_cases(spfeat, Path(tmp), cases)
        cli_cases(src, Path(tmp), cases)
        job_error_cases(src, Path(tmp), cases)
    out.write_text(json.dumps({"numpy": np.__version__, "python": sys.version.split()[0],
                               "cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"{len(cases)} cases from {src} written to {out} "
          f"in {time.perf_counter() - start:.1f} s")
    return 0


def compare(a: Path, b: Path) -> int:
    left, right = (json.loads(p.read_text()) for p in (a, b))
    for field in ("numpy", "python"):
        if left.get(field) != right.get(field):
            print(f"note: {field} {left.get(field)} in {a}, {right.get(field)} in {b}")
    cases_a, cases_b = left["cases"], right["cases"]
    names = sorted(cases_a.keys() | cases_b.keys())
    differ = [name for name in names if cases_a.get(name) != cases_b.get(name)]
    for name in differ:
        where = ("differs" if name in cases_a and name in cases_b
                 else f"only in {a if name in cases_a else b}")
        print(f"{where}: {name}")
    print(f"{len(differ)} of {len(names)} cases differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="directory holding the spfeat package to check")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("out", nargs="?", type=Path, help="manifest to write")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give a manifest to write, or --compare A.json B.json")
    return write_manifest(args.src.resolve(), args.out)


if __name__ == "__main__":
    sys.exit(main())
