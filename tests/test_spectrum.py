import numpy as np
import pytest

from spfeat.audio_io import AudioBuffer
from spfeat.errors import InvalidFftLengthError, InvalidParameterError
from spfeat.preprocess import apply_window, stack_frames
from spfeat.spectrum import (
    ROW_BLOCK,
    fft_magnitude,
    log_power_spectrum,
    naive_dft,
    power_spectrum,
)


def frames_of(rows, fs=1000):
    """Explicit rows as a frames array, cut from their concatenation with stride L."""
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

    @pytest.mark.parametrize("bad_n", [3, 6, 12, 0, 512.0, 7.0, True])
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

    @pytest.mark.parametrize("bad_n", [512.0, 4.0, True, "4", None])
    def test_rejects_non_integer_length(self, bad_n):
        with pytest.raises(InvalidFftLengthError, match="not a power of two"):
            power_spectrum(frames_of([[1, 2]]), bad_n)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad_n", [2**17, 2**62])
    def test_rejects_length_above_65536_before_any_array(self, bad_n):
        with pytest.raises(InvalidFftLengthError, match="not a power of two in \\[1, 65536\\]"):
            power_spectrum(frames_of([[1, 2]]), bad_n)

    def test_largest_length(self):
        out = power_spectrum(frames_of([[1, 1, 1, 1]]), 65536)
        assert out.data.shape == (1, 32769) and out.data[0, 0] == 16 / 65536

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        out = power_spectrum(frames_of(rng.normal(size=(20, 32))), 32)
        assert np.all(out.data >= 0)

    def test_hand_built_frames_longer_than_fft(self):
        # the frame length is the data's width, so 5-sample rows are not cut to 4
        frames = np.ones((3, 5))
        with pytest.raises(InvalidFftLengthError, match="shorter than frame length 5"):
            power_spectrum(frames, 4)


# every stage that takes a frames array, giving its output array
FRAME_STAGES = {
    "apply_window": lambda frames: apply_window(frames, "hamming"),
    "power_spectrum": lambda frames: power_spectrum(frames, 8).data,
    "fft_magnitude": lambda frames: fft_magnitude(frames, 8).data,
    "log_power_spectrum": lambda frames: log_power_spectrum(frames, 8).data,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("data", [
    np.ones(5), np.ones((2, 2, 2)), np.ones((3, 4), dtype=complex), [[1.0, 2.0]],
    np.ones((3, 4), dtype=bool), np.array([["a", "b"]]),
], ids=["1-d", "3-d", "complex", "list", "bool", "str"])
@pytest.mark.parametrize("stage", FRAME_STAGES.values(), ids=FRAME_STAGES.keys())
def test_frame_data_of_wrong_shape_or_type_is_a_typed_error(stage, data):
    with pytest.raises(InvalidParameterError, match="frames must be a 2-D int or float array"):
        stage(data)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [np.int16, np.uint8, np.float16, np.float32])
@pytest.mark.parametrize("stage", FRAME_STAGES.values(), ids=FRAME_STAGES.keys())
def test_integer_and_narrow_float_frames_match_their_float64_copy(stage, dtype):
    frames = np.arange(12).reshape(3, 4).astype(dtype)
    wide = frames.astype(np.float64)
    assert stage(frames).tobytes() == stage(wide).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stage", FRAME_STAGES.values(), ids=FRAME_STAGES.keys())
def test_zero_frames_give_an_empty_result(stage):
    assert len(stage(np.zeros((0, 4)))) == 0


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
# the first and last row of each block of 2 * ROW_BLOCK + 3 rows
EDGE_ROWS = (0, ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK - 1, 2 * ROW_BLOCK + 2)


def oracle_bound(frame, n):
    return 1e-9 * max(1.0, np.abs(frame).max() * n)


def power_oracle_bound(frame, n):
    # |P - P'| = ||X| - |X'|| (|X| + |X'|) / N, and |X| <= max|x| N
    return 2 * max(1.0, np.abs(frame).max()) * oracle_bound(frame, n)


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

    @pytest.mark.parametrize("n", PRODUCTION_SIZES)
    def test_power_against_naive_dft(self, n):
        rng = np.random.default_rng(300 + n)
        for length in (n, 5 * n // 8):  # a short frame is zero-padded to N
            rows = rng.uniform(-1, 1, size=(2 * ROW_BLOCK + 3, length))
            out = power_spectrum(frames_of(rows), n).data
            assert out.shape == (len(rows), n // 2 + 1)
            for r in EDGE_ROWS:
                padded = np.concatenate([rows[r], np.zeros(n - length)])
                oracle = np.abs(naive_dft(padded))[: n // 2 + 1] ** 2 / n
                assert np.abs(out[r] - oracle).max() <= power_oracle_bound(rows[r], n)


PINNED_FRAMES = [1, 63, 64, 65, 1024, 1025]


def power_spectrum_temporaries(frames, n):
    """Oracle: the earlier power form, |X|^2 summed over temporaries per
    ROW_BLOCK rows, then divided by N over the whole matrix."""
    out = np.empty((len(frames), n // 2 + 1))
    for s in range(0, len(frames), ROW_BLOCK):
        x = np.fft.rfft(frames[s : s + ROW_BLOCK], n=n, axis=1)
        np.add(np.square(x.real), np.square(x.imag), out=out[s : s + ROW_BLOCK])
    return out / n


def magnitude_per_block(frames, n):
    """Oracle: |X| of each ROW_BLOCK-row rfft, stacked."""
    return np.concatenate([
        np.abs(np.fft.rfft(frames[s : s + ROW_BLOCK], n=n, axis=1))
        for s in range(0, len(frames), ROW_BLOCK)
    ])


class TestBitwiseAgainstEarlierForms:
    @pytest.mark.parametrize("num_frames", PINNED_FRAMES)
    @pytest.mark.parametrize("n", [256, 512, 1024])
    @pytest.mark.parametrize("window", ["rectangular", "hamming", "hanning"])
    @pytest.mark.parametrize("scale", [1.0, 1e-160])  # 1e-160: subnormal powers
    def test_power_and_magnitude(self, num_frames, n, window, scale):
        rng = np.random.default_rng(num_frames + n)
        rows = scale * rng.normal(size=(num_frames, 5 * n // 8))
        frames = apply_window(frames_of(rows), window)
        assert power_spectrum(frames, n).data.tobytes() == (
            power_spectrum_temporaries(frames, n).tobytes()
        )
        assert fft_magnitude(frames, n).data.tobytes() == magnitude_per_block(frames, n).tobytes()
