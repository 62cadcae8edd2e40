"""Mutation kill list: small faults that the tests must catch.

Each mutant is one exact ``old -> new`` text edit of one file under
``src/spfeat``, with the tier-1 tests that must kill it.  For each mutant,
``src/`` is copied to a temporary directory, the edit is applied to the
copy, and its tests run against the copy.  The mutant is killed when
they fail; the first failing test is printed.

    python tools/mutants.py

An edit whose ``old`` text does not occur exactly once is an error, not a
skip: when a refactor moves the text, the edit is updated, never dropped.
Before any mutant runs, the tests of every mutant must pass on an
unedited copy, so a kill always comes from the edit.  Exit status 0 means
every mutant was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/spfeat
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "fft-bin", "spectrum.py",
        "        out *= 1.0 / fft_length\n",
        "        out *= 1.0 / fft_length\n        out[:, 1] *= 1.01\n",
        ("tests/test_spectrum.py::TestFftAtProductionSizes::test_power_against_naive_dft",),
    ),
    Mutant(
        # the oracle dct_ii_ortho shares _dct_matrix, so only the defining sum sees this
        "dct-scale", "features.py",
        "    basis[1:] *= np.sqrt(2.0 / size)\n",
        "    basis[1:] *= np.sqrt(2.0 / size) * (1 + 1e-6)\n",
        ("tests/test_features.py::TestDct::test_matches_defining_sum",),
    ),
    Mutant(
        "delta-denominator", "features.py",
        "    denom = 2.0 * sum(n * n for n in range(1, half_width + 1))\n",
        "    denom = 2.0 * sum(n * n for n in range(1, half_width + 1)) * (1 + 1e-6)\n",
        ("tests/test_features.py::TestDerivativeBitwise",),
    ),
    Mutant(
        "wrap-drops-frame-energies", "features.py",
        "    return replace(features, data=data) if",
        "    return replace(features, data=data, frame_energies=None) if",
        ("tests/test_features.py::TestDerivativeTakesArrays::test_record_keeps_frame_energies",
         "tests/test_postprocess.py::TestCmvn::test_preserves_feature_matrix"),
    ),
    Mutant(
        "sigma-guard", "postprocess.py",
        "_SIGMA_GUARD = 1e-10\n",
        "_SIGMA_GUARD = 1e-9\n",
        ("tests/test_postprocess.py::test_cmvn_bitwise_against_std",),
    ),
    Mutant(
        "cmvnw-mean", "postprocess.py",
        "        mean /= win_size\n",
        "        mean /= win_size * (1 - 1e-9)\n",
        ("tests/test_postprocess.py::TestCmvnw::test_bit_identical_to_loop",),
    ),
    Mutant(
        "hamming-coefficient", "preprocess.py",
        '"hamming": (0.54, 0.46)',
        '"hamming": (0.54 + 1e-4, 0.46)',
        ("tests/test_preprocess.py::TestApplyWindow::test_hamming_five",),
    ),
    Mutant(
        "mel-break", "mel_filterbank.py",
        "_MEL_BREAK_HZ = 700.0\n",
        "_MEL_BREAK_HZ = 700.0 + 1e-3\n",
        ("tests/test_mel_filterbank.py::TestMelScale::test_break_frequency",),
    ),
    Mutant(
        "frame-energies", "features.py",
        "        frame_energies[rows] = power.sum(axis=1)\n",
        "        frame_energies[rows] = power.sum(axis=1) * (1 + 1e-9)\n",
        ("tests/test_oracle.py::test_pipeline_within_error_bound_of_reference",),
    ),
    Mutant(
        "mfe-keeps-frames", "features.py",
        "            del frames  # and the signal copy under it, before the last spectrum exists\n",
        "            pass\n",
        ("tests/test_features.py::TestStreamedMfe::test_single_block_working_set",),
    ),
    Mutant(
        # blocks of MFE_BLOCK frames and a short last one, whose product OpenBLAS rounds apart
        "mfe-short-tail", "features.py",
        "        rows = slice(num_frames * b // num_blocks, num_frames * (b + 1) // num_blocks)\n",
        "        rows = slice(b * MFE_BLOCK, min((b + 1) * MFE_BLOCK, num_frames))\n",
        ("tests/test_features.py::TestStreamedMfe::test_bitwise_with_fewer_filters",),
    ),
    Mutant(
        "pre-emphasis-alpha", "preprocess.py",
        "    np.multiply(x[:-1], alpha, out=y[1:])\n",
        "    np.multiply(x[:-1], alpha * (1 + 1e-6), out=y[1:])\n",
        ("tests/test_preprocess.py::TestPreEmphasis::test_bitwise_equal_to_temporary_form",
         "tests/test_oracle.py::test_pipeline_within_error_bound_of_reference"),
    ),
    Mutant(
        "power-scale", "spectrum.py",
        "        out *= 1.0 / fft_length\n",
        "        out *= 1.0 / fft_length * (1 + 1e-9)\n",
        ("tests/test_spectrum.py::TestBitwiseAgainstEarlierForms::test_power_and_magnitude",
         "tests/test_oracle.py::test_pipeline_within_error_bound_of_reference"),
    ),
    Mutant(
        "frame-width", "preprocess.py",
        "    if not kind_ok or frames.shape[1] < 1:\n",
        "    if not kind_ok or frames.shape[1] < 0:\n",
        ("tests/test_preprocess.py::TestApplyWindow::test_zero_width_frames",),
    ),
    Mutant(
        "padded-frame", "preprocess.py",
        "        num_frames = max(1, -((n - length) // -stride) + 1)\n",
        "        num_frames = max(1, -((n - length) // -stride) + 2)\n",
        ("tests/test_preprocess.py::TestStackFrames::test_padding_count_and_trailing_zeros",),
    ),
    Mutant(
        # drops the low part of 10**k: the last printed digit goes wrong for some values
        "csv-digit", "_csvfmt.py",
        "    lo = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * pl\n",
        "    lo = (((ah * hh - p) + ah * hl + al * hh) + al * hl)\n",
        ("tests/test_cli.py::TestCsvMatchesRepr::test_random_bit_patterns",),
    ),
    Mutant(
        "spfe-version", "cli.py",
        "SPFE_VERSION = 1\n",
        "SPFE_VERSION = 2\n",
        ("tests/test_cli.py::TestWriteSpfe::test_size_formula",
         "tests/test_cli.py::TestWriteSpfe::test_round_trip_bit_exact"),
    ),
    Mutant(
        "stereo-fold", "audio_io.py",
        "    samples /= 32768.0 * channels\n",
        "    samples /= 32768.0 * channels - (channels == 2)\n",
        ("tests/test_audio_io.py::TestSampleValues::test_stereo_is_the_exact_pair_mean",),
    ),
    Mutant(
        "feature-bound", "_checks.py",
        "MAX_FEATURE = 1e130\n",
        "MAX_FEATURE = 1e300\n",
        ("tests/test_postprocess.py::test_features_beyond_the_bound_rejected",),
    ),
    Mutant(
        "summary-order", "cli.py",
        'print(f"OK={ok} FAIL={failed}")',
        'print(f"FAIL={failed} OK={ok}")',
        ("tests/test_cli.py::TestRunExtract::test_directory_happy_path",),
    ),
)


def copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def apply(mutant: Mutant, src: Path) -> None:
    path = src / "spfeat" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"error: mutant {mutant.name}: its text occurs {count} times in "
                         f"src/spfeat/{mutant.file}, not once; update the edit")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_tests(tests, src: Path) -> tuple[int, list[str]]:
    """Run pytest on tests, importing spfeat from src; return its exit code and failed tests."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    # -o pythonpath replaces pyproject's "src", which would put the real package first
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    result = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in result.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return result.returncode, failed


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        clean = copy_src(Path(tmp) / "clean")
        for mutant in MUTANTS:  # every edit matches before any test runs
            apply(mutant, copy_src(Path(tmp) / mutant.name))
        tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, failed = run_tests(tests, clean)
        if code != 0:
            raise SystemExit(f"error: the tests fail on unedited source (exit {code}): "
                             f"{', '.join(failed) or 'see pytest'}")
        survivors = 0
        for mutant in MUTANTS:
            code, failed = run_tests(mutant.tests, Path(tmp) / mutant.name / "src")
            if code == 1 and failed:
                print(f"killed    {mutant.name}: {failed[0]}")
            else:
                survivors += 1
                print(f"SURVIVED  {mutant.name}: pytest exit {code}, run {' '.join(mutant.tests)}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
