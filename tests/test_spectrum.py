import subprocess
import sys

import numpy as np
import pytest

from spfeat.audio_io import AudioBuffer
from spfeat.errors import InvalidFftLengthError
from spfeat.preprocess import stack_frames
from spfeat.spectrum import (
    ROW_BLOCK,
    _plan,
    default_fft_length,
    fft_magnitude,
    log_power_spectrum,
    naive_dft,
    power_spectrum,
)


def frames_of(rows, fs=1000):
    """Wrap explicit rows into a FrameMatrix by concatenating with stride L."""
    rows = np.asarray(rows, dtype=np.float64)
    length = rows.shape[1]
    signal = AudioBuffer(samples=rows.reshape(-1), sampling_frequency=fs)
    return stack_frames(signal, length / fs, length / fs, zero_padding=False)


class TestNaiveDft:
    def test_constant(self):
        np.testing.assert_allclose(naive_dft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-14)

    def test_impulse(self):
        np.testing.assert_allclose(naive_dft([1, 0, 0, 0]), [1, 1, 1, 1], atol=1e-14)

    def test_alternating(self):
        np.testing.assert_allclose(
            naive_dft([0, 1, 0, -1]), [0, -2j, 0, 2j], atol=1e-14
        )

    def test_length_one(self):
        np.testing.assert_allclose(naive_dft([3.5]), [3.5])


class TestFftMagnitude:
    def test_dc_only(self):
        out = fft_magnitude(frames_of([[1, 1, 1, 1]]), 4)
        np.testing.assert_allclose(out.data[0], [4, 0, 0], atol=1e-14)
        assert out.kind == "magnitude"

    def test_impulse_flat(self):
        out = fft_magnitude(frames_of([[1, 0, 0, 0]]), 4)
        np.testing.assert_allclose(out.data[0], [1, 1, 1], atol=1e-14)

    def test_matches_oracle(self):
        frame = [0, 1, 0, -1]
        out = fft_magnitude(frames_of([frame]), 4)
        np.testing.assert_allclose(
            out.data[0], np.abs(naive_dft(frame))[:3], atol=1e-14
        )

    def test_zero_padding_to_fft_length(self):
        frame = [1.0, -2.0, 3.0]
        out = fft_magnitude(frames_of([frame]), 8)
        expected = np.abs(naive_dft(frame + [0] * 5))[:5]
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    @pytest.mark.parametrize("bad_n", [3, 6, 12, 0])
    def test_rejects_non_power_of_two(self, bad_n):
        with pytest.raises(InvalidFftLengthError):
            fft_magnitude(frames_of([[1, 2]]), bad_n)

    def test_rejects_fft_shorter_than_frame(self):
        with pytest.raises(InvalidFftLengthError):
            fft_magnitude(frames_of([[1, 2, 3, 4, 5, 6]]), 4)


class TestPowerSpectrum:
    def test_dc(self):
        out = power_spectrum(frames_of([[1, 1, 1, 1]]), 4)
        np.testing.assert_allclose(out.data[0], [4, 0, 0], atol=1e-14)

    def test_zero_frame(self):
        out = power_spectrum(frames_of([[0, 0, 0, 0]]), 4)
        assert out.data.tolist() == [[0, 0, 0]]

    def test_matches_oracle(self):
        out = power_spectrum(frames_of([[0, 1, 0, -1]]), 4)
        np.testing.assert_allclose(out.data[0], [0, 1, 0], atol=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        out = power_spectrum(frames_of(rng.normal(size=(20, 32))), 32)
        assert np.all(out.data >= 0)


class TestLogPowerSpectrum:
    def test_silence_floor(self):
        out = log_power_spectrum(frames_of(np.zeros((3, 4))), 4, normalize=False)
        assert np.all(out.data == -300.0)

    def test_silence_normalized(self):
        out = log_power_spectrum(frames_of(np.zeros((3, 4))), 4, normalize=True)
        assert np.all(out.data == 0.0)

    def test_dc_value(self):
        out = log_power_spectrum(frames_of([[1, 1, 1, 1]]), 4, normalize=False)
        np.testing.assert_allclose(
            out.data[0], [6.020599913279624, -300.0, -300.0], rtol=1e-15
        )

    def test_normalize_sets_max_to_zero(self):
        rng = np.random.default_rng(11)
        out = log_power_spectrum(frames_of(rng.normal(size=(10, 16))), 16)
        assert out.data.max() == 0.0


class TestFftAgainstOracle:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_random_frames(self, n):
        rng = np.random.default_rng(n)
        for _ in range(100):
            frame = rng.uniform(-1, 1, size=n)
            out = fft_magnitude(frames_of([frame]), n).data[0]
            oracle = np.abs(naive_dft(frame))[: n // 2 + 1]
            bound = 1e-9 * max(1.0, np.abs(frame).max() * n)
            assert np.abs(out - oracle).max() <= bound

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_parseval_via_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(100):
            frame = rng.uniform(-1, 1, size=n)
            time_energy = np.sum(frame**2)
            freq_energy = np.sum(np.abs(naive_dft(frame)) ** 2) / n
            assert abs(time_energy - freq_energy) <= 1e-10 * time_energy


# one row, both sides of each block edge, and a short last block
ROW_COUNTS = [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]
PRODUCTION_SIZES = [128, 256, 512, 1024, 2048]


def oracle_bound(frame, n):
    return 1e-9 * max(1.0, np.abs(frame).max() * n)


class TestFftAtProductionSizes:
    @pytest.mark.parametrize("n", PRODUCTION_SIZES)
    def test_against_naive_dft(self, n):
        rng = np.random.default_rng(200 + n)
        rows = rng.uniform(-1, 1, size=(2 * ROW_BLOCK + 3, n))
        out = fft_magnitude(frames_of(rows), n).data
        # the first and last row of each block; the DFT matrix is N x N
        for r in (0, ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK - 1, 2 * ROW_BLOCK + 2):
            oracle = np.abs(naive_dft(rows[r]))[: n // 2 + 1]
            assert np.abs(out[r] - oracle).max() <= oracle_bound(rows[r], n)

    @pytest.mark.parametrize("num_rows", ROW_COUNTS)
    @pytest.mark.parametrize("n", PRODUCTION_SIZES)
    def test_against_rfft(self, n, num_rows):
        rng = np.random.default_rng(n + num_rows)
        for length in (n, 5 * n // 8):  # a short frame pads inside the block
            rows = rng.uniform(-1, 1, size=(num_rows, length))
            out = fft_magnitude(frames_of(rows), n).data
            oracle = np.abs(np.fft.rfft(rows, n=n, axis=1))
            assert out.shape == oracle.shape
            assert np.abs(out - oracle).max() <= 1e-12 * max(1.0, np.abs(rows).max() * n)

    @pytest.mark.parametrize("num_rows", ROW_COUNTS)
    @pytest.mark.parametrize("n, length", [(1, 1), (2, 1), (2, 2)])
    def test_smallest_lengths_against_rfft(self, n, length, num_rows):
        rows = np.random.default_rng(num_rows).uniform(-1, 1, size=(num_rows, length))
        out = fft_magnitude(frames_of(rows), n).data
        np.testing.assert_allclose(
            out, np.abs(np.fft.rfft(rows, n=n, axis=1)), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("n", [1, 2, *PRODUCTION_SIZES])
    def test_power_is_squared_magnitude_over_n(self, n):
        rows = np.random.default_rng(n).normal(size=(2 * ROW_BLOCK + 3, max(1, n - 3)))
        frames = frames_of(rows)
        expected = fft_magnitude(frames, n).data ** 2 / n
        np.testing.assert_allclose(power_spectrum(frames, n).data, expected, rtol=1e-12)

    def test_plan_is_shared_and_read_only(self):
        plan = _plan(512)
        assert _plan(512) is plan
        for table in (plan.untangle, *plan.twiddles[1:]):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_import_builds_no_plan(self):
        code = "import spfeat.spectrum as s; print(s._plan.cache_info().currsize)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "0"


def test_default_fft_length():
    assert default_fft_length(320) == 512
    assert default_fft_length(256) == 256
    assert default_fft_length(1) == 1
