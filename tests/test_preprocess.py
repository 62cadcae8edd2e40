import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spfeat.audio_io import AudioBuffer
from spfeat.errors import EmptySignalError, FrameTooLongError, InvalidParameterError
from spfeat.preprocess import _window, apply_window, pre_emphasis, stack_frames


def buf(samples, fs=1000):
    return AudioBuffer(samples=np.asarray(samples, dtype=np.float64), sampling_frequency=fs)


class TestPreEmphasis:
    def test_zero_signal(self):
        assert pre_emphasis(buf([0, 0, 0]), 0.97).samples.tolist() == [0, 0, 0]

    def test_alpha_zero_is_identity(self):
        assert pre_emphasis(buf([1, 2, 3]), 0.0).samples.tolist() == [1, 2, 3]

    def test_recurrence(self):
        assert pre_emphasis(buf([1, 2, 3]), 0.5).samples.tolist() == [1.0, 1.5, 2.0]

    def test_empty_signal(self):
        with pytest.raises(EmptySignalError):
            pre_emphasis(buf([]), 0.97)

    def test_alpha_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            pre_emphasis(buf([1.0]), 1.0)

    @pytest.mark.parametrize("alpha", ["0.9", None, False, np.array([0.5])])
    def test_alpha_not_a_real_number(self, alpha):
        with pytest.raises(InvalidParameterError, match="real number"):
            pre_emphasis(buf([1.0, 2.0]), alpha)

    @given(st.lists(st.floats(-1, 1), min_size=1, max_size=100))
    def test_alpha_zero_identity_property(self, samples):
        out = pre_emphasis(buf(samples), 0.0)
        assert out.samples.tolist() == samples

    def test_does_not_mutate_input(self):
        b = buf([1, 2, 3])
        pre_emphasis(b, 0.9)
        assert b.samples.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int16])
    def test_bitwise_equal_to_temporary_form(self, dtype):
        # the form with a full-length alpha * x[:-1] temporary, as the oracle
        rng = np.random.default_rng(4)
        scale = 30000 if np.dtype(dtype).kind == "i" else 1
        x = (rng.uniform(-1, 1, 5000) * scale).astype(dtype)
        # samples are widened to float64 first; for float64 and int16 this
        # is the form with x itself
        wide = x.astype(np.float64)
        expected = wide.copy()
        expected[1:] -= 0.97 * wide[:-1]
        out = pre_emphasis(AudioBuffer(x, 16000), 0.97).samples
        assert out.dtype == np.float64
        assert out.tobytes() == expected.tobytes()


def brute_force_frames(x, length, stride, zero_padding):
    """Oracle: enumerate frame start indices and slice directly."""
    x = list(x)
    if zero_padding:
        if len(x) <= length:
            count = 1
        else:
            count = math.ceil((len(x) - length) / stride) + 1
        padded = x + [0.0] * (length + (count - 1) * stride - len(x))
    else:
        assert len(x) >= length
        count = (len(x) - length) // stride + 1
        padded = x
    return [padded[t * stride : t * stride + length] for t in range(count)]


class TestStackFrames:
    def test_enumerated_example(self):
        fm = stack_frames(buf(range(10), fs=1), 4, 2, zero_padding=False)
        assert fm.tolist() == [
            [0, 1, 2, 3],
            [2, 3, 4, 5],
            [4, 5, 6, 7],
            [6, 7, 8, 9],
        ]
        assert fm.shape[1] == 4

    def test_frame_count_16k(self):
        fm = stack_frames(buf(np.ones(16000), 16000), 0.020, 0.010, zero_padding=False)
        assert fm.shape == (99, 320)

    def test_padding_count_and_trailing_zeros(self):
        x = np.ones(16050)
        fm = stack_frames(buf(x, 16000), 0.020, 0.010, zero_padding=True)
        assert fm.shape == (100, 320)
        # padded length 16160, so the last frame ends with 110 zeros
        assert fm[-1, -110:].tolist() == [0.0] * 110
        assert fm[-1, :-110].tolist() == [1.0] * 210

    @pytest.mark.parametrize("zero_padding", [False, True])
    def test_exact_single_frame(self, zero_padding):
        fm = stack_frames(buf(np.arange(320), 16000), 0.020, 0.010, zero_padding)
        assert fm.shape == (1, 320)

    def test_too_short_without_padding(self):
        with pytest.raises(FrameTooLongError):
            stack_frames(buf(np.ones(100), 16000), 0.020, 0.010, zero_padding=False)

    @pytest.mark.parametrize("length,stride", [
        (-0.02, 0.01),
        (0.02, 0.0),
        (0.02, "0.01"),
        (None, 0.01),
        (True, 0.01),
        (0.02, float("nan")),
        (float("inf"), 0.01),
        (0.02, 1e-5),  # rounds to 0 samples at 16 kHz
        (1e-5, 0.01),
        # above 65536 samples: refused before any array is sized
        (1e12, 0.01),
        (0.02, 1e12),
        (1e300, 0.01),
        (0.02, 1e300),
    ])
    def test_invalid_durations(self, length, stride):
        with pytest.raises(InvalidParameterError):
            stack_frames(buf(np.ones(1000), 16000), length, stride)

    @given(
        st.integers(1, 300),
        st.integers(1, 50),
        st.integers(1, 25),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200)
    def test_rows_match_brute_force(self, n, length, stride, zero_padding, rng):
        if not zero_padding and n < length:
            n = length + n
        x = [rng.uniform(-1, 1) for _ in range(n)]
        fm = stack_frames(
            buf(x, fs=1000), length / 1000, stride / 1000, zero_padding
        )
        assert fm.tolist() == brute_force_frames(x, length, stride, zero_padding)

    @pytest.mark.parametrize("zero_padding", [False, True])
    def test_read_only_view_equal_to_slices(self, zero_padding):
        x = np.random.default_rng(5).uniform(-1, 1, 1077)
        fm = stack_frames(buf(x, 16000), 0.020, 0.010, zero_padding)
        assert not fm.flags.writeable
        with pytest.raises(ValueError):
            fm[0, 0] = 1.0
        assert fm.tolist() == brute_force_frames(x, 320, 160, zero_padding)

    @pytest.mark.parametrize("zero_padding", [False, True])
    def test_plain_ndarray_whose_buffer_has_its_shape(self, zero_padding):
        # perfbench/tracing.py counts frames by result.data.shape[0]
        fm = stack_frames(buf(np.ones(1077), 16000), 0.020, 0.010, zero_padding)
        assert type(fm) is np.ndarray
        assert fm.data.shape == fm.shape == (6 if zero_padding else 5, 320)

    def test_stride_equals_length_partitions(self):
        x = np.arange(17, dtype=float)
        fm = stack_frames(buf(x, fs=1000), 0.005, 0.005, zero_padding=True)
        flat = fm.reshape(-1)
        assert flat[:17].tolist() == x.tolist()
        assert np.all(flat[17:] == 0)


class TestApplyWindow:
    def frames(self, data):
        return stack_frames(
            buf(data, fs=1000), len(data) / 1000, len(data) / 1000, True
        )

    def test_rectangular_identity(self):
        fm = self.frames([1, -2, 3, -4])
        assert apply_window(fm, "rectangular").tolist() == fm.tolist()

    def test_hamming_five(self):
        out = apply_window(self.frames([1, 1, 1, 1, 1]), "hamming")
        expected = [0.08, 0.54 - 0.46 * math.cos(math.pi / 2), 1.0, 0.54, 0.08]
        np.testing.assert_allclose(out[0], expected, atol=1e-15)

    def test_hanning_three(self):
        out = apply_window(self.frames([1, 1, 1]), "hanning")
        np.testing.assert_allclose(out[0], [0.0, 1.0, 0.0], atol=1e-16)

    @pytest.mark.parametrize("kind", ["rectangular", "hamming", "hanning"])
    @pytest.mark.parametrize("length", [1, 2, 3, 8, 33, 320])
    def test_symmetry(self, kind, length):
        w = window_of(kind, length)
        np.testing.assert_array_equal(w, w[::-1])

    @pytest.mark.parametrize("kind", ["rectangular", "hamming", "hanning"])
    def test_length_one_is_unity(self, kind):
        assert window_of(kind, 1).tolist() == [1.0]

    @pytest.mark.parametrize("kind", ["blackman", "Hamming", None, 3])
    def test_unknown_window(self, kind):
        with pytest.raises(InvalidParameterError, match="unknown window"):
            apply_window(np.ones((1, 8)), kind)

    @pytest.mark.parametrize("kind", ["rectangular", "hamming", "hanning"])
    def test_zero_width_frames(self, kind):
        with pytest.raises(InvalidParameterError, match="at least 1 sample wide"):
            apply_window(np.ones((3, 0)), kind)

    @pytest.mark.parametrize("kind", ["rectangular", "hamming", "hanning"])
    def test_hand_built_frames(self, kind):
        frames = np.ones((3, 5))
        out = apply_window(frames, kind)
        assert out.shape == (3, 5)
        assert out.tobytes() == np.tile(window_uncached(kind, 5), (3, 1)).tobytes()


def window_of(kind, length):
    """The window's values: apply_window on one row of ones, so each value is w[n] * 1."""
    return apply_window(np.ones((1, length)), kind)[0]


def window_uncached(kind, length):
    """Oracle: the window computed afresh on every call."""
    if kind == "rectangular" or length == 1:
        return np.ones(length)
    half = (length + 1) // 2
    phase = 2.0 * np.pi * np.arange(half) / (length - 1)
    head = (0.54 - 0.46 * np.cos(phase)) if kind == "hamming" else (0.5 - 0.5 * np.cos(phase))
    return np.concatenate([head, head[: length - half][::-1]])


def frames_by_sliding_window(x, length, stride, zero_padding):
    """Oracle: frames from sliding_window_view over the (padded) signal."""
    x = np.asarray(x, dtype=np.float64)
    if zero_padding:
        count = 1 if len(x) <= length else -((len(x) - length) // -stride) + 1
        x = np.concatenate([x, np.zeros(max(0, length + (count - 1) * stride - len(x)))])
    else:
        count = (len(x) - length) // stride + 1
    return np.lib.stride_tricks.sliding_window_view(x, length)[::stride][:count]


class TestBitwiseAgainstEarlierForms:
    @pytest.mark.parametrize("kind", ["rectangular", "hamming", "hanning"])
    @pytest.mark.parametrize("length", [1, 2, 3, 80, 160, 256, 320, 512, 1024])
    def test_cached_window(self, kind, length):
        assert window_of(kind, length).tobytes() == window_uncached(kind, length).tobytes()
        w = _window(kind, length)
        assert _window(kind, length) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 2.0

    @pytest.mark.parametrize("kind", ["rectangular", "hamming", "hanning"])
    def test_window_table_matches_branches(self, kind):
        # window_uncached keeps the earlier per-kind branches; every length a
        # frame of up to 128 ms at 16 kHz can have
        for length in range(1, 2049):
            expected = window_uncached(kind, length)
            assert window_of(kind, length).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("num_frames", [1, 63, 64, 65, 1024, 1025])
    @pytest.mark.parametrize("fs", [8000, 16000])
    @pytest.mark.parametrize("window", ["rectangular", "hamming", "hanning"])
    @pytest.mark.parametrize("zero_padding", [True, False])
    def test_framing_and_window(self, num_frames, fs, window, zero_padding):
        length, stride = fs // 50, fs // 100
        # a partial last frame when padding, trailing samples dropped without
        n = length + (num_frames - 1) * stride - (stride // 2 if zero_padding else -7)
        x = np.random.default_rng(num_frames + fs).uniform(-1, 1, n)
        fm = stack_frames(buf(x, fs), 0.020, 0.010, zero_padding)
        expected = frames_by_sliding_window(x, length, stride, zero_padding)
        assert len(fm) == num_frames
        assert fm.tobytes() == expected.tobytes()
        windowed = apply_window(fm, window)
        assert windowed.tobytes() == (expected * window_uncached(window, length)).tobytes()

    @pytest.mark.parametrize("zero_padding", [True, False])
    def test_strided_signal(self, zero_padding):
        x = np.random.default_rng(8).uniform(-1, 1, 2 * 1077)
        fm = stack_frames(AudioBuffer(x[::2], 16000), 0.020, 0.010, zero_padding)
        assert not fm.flags.writeable
        expected = frames_by_sliding_window(x[::2], 320, 160, zero_padding)
        assert fm.tobytes() == expected.tobytes()
