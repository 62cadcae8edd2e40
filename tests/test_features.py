import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

import spfeat.features as features
from spfeat.audio_io import AudioBuffer
from spfeat.errors import EmptyFeaturesError, InvalidFftLengthError, InvalidParameterError
from spfeat.features import (
    ENERGY_FLOOR,
    MFE_BLOCK,
    FeatureConfig,
    FeatureMatrix,
    _dct_matrix,
    extract_derivative,
    lmfe,
    mfcc,
    mfe,
)
from spfeat.mel_filterbank import build_filterbank
from spfeat.preprocess import apply_window, pre_emphasis, stack_frames
from spfeat.spectrum import ROW_BLOCK, power_spectrum

from conftest import dct_ii_ortho, mel_edges


BAD_CONFIG_FIELDS = [
    ("num_filters", 40.0),
    ("num_cepstral", 13.0),
    ("fft_length", 512.0),
    ("num_filters", True),
    ("fft_length", 500),
    ("fft_length", 0),
    ("low_freq", np.array(100.0)),
    ("low_freq", True),
    ("high_freq", "8000"),
    ("alpha", None),
    ("alpha", "0.9"),
    ("frame_length_s", None),
    ("frame_stride_s", "0.01"),
    ("window", "bogus"),
    ("num_filters", 0),
    ("zero_padding", "no"),
    ("dc_elimination", np.array([0, 1])),
    ("num_filters", 256),  # past fft_length/2 - 1 at every rate
    ("fft_length", 2),
    ("fft_length", 2**17),
]


def dct_oracle(row):
    """O(M^2) defining summation, term by term."""
    m = len(row)
    out = []
    for k in range(m):
        scale = math.sqrt(1.0 / m) if k == 0 else math.sqrt(2.0 / m)
        acc = 0.0
        for n in range(m):
            acc += row[n] * math.cos(math.pi * k * (2 * n + 1) / (2 * m))
        out.append(scale * acc)
    return out


def mfe_unblocked(signal, config=FeatureConfig()):
    """mfe as one pass over all frames: the T x L windowed frames and the
    whole T x (N/2 + 1) power spectrum, then one filterbank matmul."""
    config.validate()
    emphasized = pre_emphasis(signal, config.alpha)
    frames = stack_frames(
        emphasized,
        frame_length_s=config.frame_length_s,
        frame_stride_s=config.frame_stride_s,
        zero_padding=config.zero_padding,
    )
    frames = apply_window(frames, config.window)
    power = power_spectrum(frames, config.fft_length)
    bank = build_filterbank(
        config.num_filters,
        config.fft_length,
        signal.sampling_frequency,
        low_freq=config.low_freq,
        high_freq=config.high_freq,
    )
    energies = np.maximum(power.data @ bank.T, ENERGY_FLOOR)
    frame_energies = np.maximum(power.data.sum(axis=1), ENERGY_FLOOR)
    return FeatureMatrix(data=energies, frame_energies=frame_energies)


def noise_frames(num_frames, fs=16000, zero_padding=True, seed=0):
    """Noise that cuts into exactly num_frames 20 ms / 10 ms frames; with
    padding the last frame is partial, so the zero fill is exercised."""
    length, stride = fs // 50, fs // 100
    if zero_padding:
        n = length // 2 if num_frames == 1 else length + (num_frames - 2) * stride + stride // 2
    else:
        n = length + (num_frames - 1) * stride + stride // 2
    samples = np.random.default_rng(seed).uniform(-1, 1, n)
    return AudioBuffer(samples=samples, sampling_frequency=fs)


def sine(freq_hz=1000.0, fs=16000, seconds=1.0, amplitude=0.5):
    t = np.arange(int(fs * seconds)) / fs
    return AudioBuffer(
        samples=amplitude * np.sin(2 * np.pi * freq_hz * t), sampling_frequency=fs
    )


def silence(fs=16000, seconds=1.0):
    return AudioBuffer(samples=np.zeros(int(fs * seconds)), sampling_frequency=fs)


class TestDct:
    """The oracle dct_ii_ortho multiplies by mfcc's own basis, _dct_matrix;
    here that basis meets the defining sum."""

    def test_constant_row(self):
        np.testing.assert_allclose(
            dct_ii_ortho([3, 3, 3, 3]), [6, 0, 0, 0], atol=1e-14
        )

    def test_impulse(self):
        expected = [
            0.5,
            math.sqrt(0.5) * math.cos(math.pi / 8),
            math.sqrt(0.5) * math.cos(2 * math.pi / 8),
            math.sqrt(0.5) * math.cos(3 * math.pi / 8),
        ]
        np.testing.assert_allclose(dct_ii_ortho([1, 0, 0, 0]), expected, rtol=1e-15)

    @pytest.mark.parametrize("m", [1, 4, 13, 40])
    def test_matches_defining_sum(self, m):
        rng = np.random.default_rng(m)
        for _ in range(10):
            row = rng.normal(size=m)
            np.testing.assert_allclose(
                dct_ii_ortho(row), dct_oracle(row.tolist()), atol=1e-12
            )

    @pytest.mark.parametrize("m", [1, 4, 13, 40])
    def test_orthonormal(self, m):
        rng = np.random.default_rng(50 + m)
        row = rng.normal(size=m)
        assert np.linalg.norm(dct_ii_ortho(row)) == pytest.approx(
            np.linalg.norm(row), abs=1e-12
        )


class TestMfe:
    def test_silence_floored(self):
        out = mfe(silence())
        assert np.all(out.data == ENERGY_FLOOR)
        assert np.all(out.frame_energies == ENERGY_FLOOR)

    def test_sine_peaks_at_bracketing_filter(self):
        out = mfe(sine(1000.0))
        peaks = mel_edges(40, 0, 8000)[1:41]
        assert out.data.mean(axis=0).argmax() == np.abs(peaks - 1000).argmin()

    def test_quadratic_scaling(self):
        base = sine(440.0, amplitude=0.3)
        doubled = AudioBuffer(base.samples * 2, base.sampling_frequency)
        np.testing.assert_allclose(
            mfe(doubled).data, 4 * mfe(base).data, rtol=1e-9
        )

    def test_strictly_positive(self):
        rng = np.random.default_rng(3)
        noisy = AudioBuffer(rng.uniform(-1, 1, 4000), 16000)
        assert np.all(mfe(noisy).data > 0)

    def test_invalid_config(self):
        with pytest.raises(InvalidParameterError):
            mfe(silence(), FeatureConfig(num_cepstral=50, num_filters=40))

    def test_fft_length_error_wins_over_band_error(self):
        # 8 kHz, 20 ms frames: L = 160 > N = 128, and 6 kHz is past Nyquist
        signal = AudioBuffer(np.random.default_rng(8).uniform(-1, 1, 8000), 8000)
        config = FeatureConfig(fft_length=128, high_freq=6000.0)
        with pytest.raises(InvalidFftLengthError, match="shorter than frame length 160$"):
            mfe(signal, config)

    def test_largest_fft_length(self):
        out = mfe(noise_frames(3), FeatureConfig(fft_length=65536))
        assert out.data.shape == (3, 40) and np.isfinite(out.data).all()

    @pytest.mark.parametrize("field, value", BAD_CONFIG_FIELDS)
    def test_config_rejects_bad_counts(self, field, value):
        with pytest.raises(InvalidParameterError):
            FeatureConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field, value", BAD_CONFIG_FIELDS)
    def test_config_rejects_bad_fields_when_built(self, field, value):
        # no validate() call: an invalid config cannot exist
        with pytest.raises(InvalidParameterError):
            FeatureConfig(**{field: value})

    @pytest.mark.parametrize("field, stage, literal", [
        ("alpha", pre_emphasis, 0.97),
        ("frame_length_s", stack_frames, 0.020),
        ("frame_stride_s", stack_frames, 0.010),
        ("window", apply_window, "rectangular"),
        ("fft_length", None, 512),
        ("num_filters", None, 40),
        ("num_cepstral", None, 13),
        ("low_freq", build_filterbank, 0.0),
        ("high_freq", build_filterbank, None),
        ("dc_elimination", None, False),
        ("zero_padding", stack_frames, True),
    ])
    def test_config_defaults_are_the_stages(self, field, stage, literal):
        default = {f.name: f.default for f in dataclasses.fields(FeatureConfig)}[field]
        assert (type(default), default) == (type(literal), literal)
        assert getattr(FeatureConfig(), field) == literal
        if stage is not None:
            assert default is inspect.signature(stage).parameters[field].default

    def test_config_accepts_numpy_integers(self):
        FeatureConfig(fft_length=np.int64(256), num_filters=np.int32(26)).validate()

    def test_config_accepts_numpy_bools(self):
        config = FeatureConfig(dc_elimination=np.True_, zero_padding=np.False_)
        expected = FeatureConfig(dc_elimination=True, zero_padding=False)
        signal = noise_frames(20)
        assert mfcc(signal, config).data.tobytes() == mfcc(signal, expected).data.tobytes()

    def test_filterbank_looked_up_every_call_and_shared(self, monkeypatch):
        import spfeat.features as features

        banks = []

        def counting(*args, **kwargs):
            banks.append(build_filterbank(*args, **kwargs))
            return banks[-1]

        mfe(sine())  # warm the cache
        monkeypatch.setattr(features, "build_filterbank", counting)
        first = mfe(sine())
        second = mfe(sine())
        assert len(banks) == 2
        assert banks[0] is banks[1]
        assert not banks[0].flags.writeable
        with pytest.raises(ValueError):
            banks[0][0, 0] = 1.0
        np.testing.assert_array_equal(first.data, second.data)


BLOCK_EDGES = [1, 63, 64, MFE_BLOCK - 1, MFE_BLOCK, MFE_BLOCK + 1, 2 * MFE_BLOCK + 3]


class TestStreamedMfe:
    """mfe runs in blocks of MFE_BLOCK frames; its bytes match one unblocked pass."""

    def assert_same_bytes(self, signal, config):
        out, expected = mfe(signal, config), mfe_unblocked(signal, config)
        assert out.data.shape == expected.data.shape
        assert out.data.tobytes() == expected.data.tobytes()
        assert out.frame_energies.tobytes() == expected.frame_energies.tobytes()

    def test_block_is_whole_row_blocks(self):
        assert MFE_BLOCK % ROW_BLOCK == 0

    @pytest.mark.parametrize("num_frames", BLOCK_EDGES)
    @pytest.mark.parametrize("window", ["rectangular", "hamming", "hanning"])
    @pytest.mark.parametrize("zero_padding", [True, False])
    def test_bitwise_at_block_edges(self, num_frames, window, zero_padding):
        signal = noise_frames(num_frames, zero_padding=zero_padding, seed=num_frames)
        config = FeatureConfig(window=window, zero_padding=zero_padding)
        assert len(stack_frames(signal, zero_padding=zero_padding)) == num_frames
        self.assert_same_bytes(signal, config)

    @pytest.mark.parametrize("num_frames", BLOCK_EDGES)
    @pytest.mark.parametrize("fs, fft_length", [(8000, 256), (16000, 1024)])
    def test_bitwise_at_other_fft_lengths(self, num_frames, fs, fft_length):
        signal = noise_frames(num_frames, fs=fs, seed=fft_length + num_frames)
        self.assert_same_bytes(signal, FeatureConfig(window="hamming", fft_length=fft_length))

    @pytest.mark.parametrize("zero_padding", [True, False])
    def test_bitwise_on_150_s(self, zero_padding):
        signal = noise_frames(15000, zero_padding=zero_padding, seed=150)
        self.assert_same_bytes(signal, FeatureConfig(window="hamming", zero_padding=zero_padding))

    @pytest.mark.parametrize("num_frames", [1, MFE_BLOCK, MFE_BLOCK + 1, 2 * MFE_BLOCK + 3])
    def test_stages_called_once_per_block(self, monkeypatch, num_frames):
        # each block goes through the module-level names, so spans wrapped
        # around them still see every frame
        calls = {"apply_window": [], "power_spectrum": []}

        def counting(name, fn):
            def wrapper(frames, *args):
                calls[name].append(len(frames))
                return fn(frames, *args)
            return wrapper

        monkeypatch.setattr(features, "apply_window", counting("apply_window", apply_window))
        monkeypatch.setattr(features, "power_spectrum", counting("power_spectrum", power_spectrum))
        mfe(noise_frames(num_frames))
        blocks = -(-num_frames // MFE_BLOCK)
        for name, rows in calls.items():
            assert len(rows) == blocks, name
            assert sum(rows) == num_frames, name

    @pytest.mark.parametrize("extra", [0, 77])
    def test_peak_memory_about_twice_the_signal(self, extra):
        # 60 s at 16 kHz; with 77 more samples the last frame needs zero padding
        signal = AudioBuffer(np.random.default_rng(6).uniform(-1, 1, 960000 + extra), 16000)
        mfe(signal)  # plans and filterbank cached outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mfe(signal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 2.5 * signal.samples.nbytes

    def test_single_block_working_set(self):
        # 4 s at 16 kHz whose last frame needs zero padding: one block of T = 400
        # frames.  At the peak only the windowed block, its power spectrum, one
        # complex rfft block and the two outputs coexist; the pre-emphasized,
        # padded signal copy under the frames is gone before the spectrum exists
        signal = AudioBuffer(np.random.default_rng(7).uniform(-1, 1, 64077), 16000)
        config = FeatureConfig()
        num_frames, length = stack_frames(signal).shape
        assert num_frames == 400
        bins = config.fft_length // 2 + 1
        floats = num_frames * (length + bins + config.num_filters + 1) + ROW_BLOCK * bins * 2
        mfe(signal, config)  # plans and filterbank cached outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mfe(signal, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the slack leaves no room for a signal copy
        assert peak - base <= 8 * floats + signal.samples.nbytes // 4


class TestLmfe:
    def test_silence_is_log_floor(self):
        out = lmfe(silence())
        assert np.all(out.data == math.log(ENERGY_FLOOR))
        assert np.isfinite(out.data).all()

    def test_log_of_quadratic_scaling(self):
        base = sine(440.0, amplitude=0.3)
        doubled = AudioBuffer(base.samples * 2, base.sampling_frequency)
        np.testing.assert_allclose(
            lmfe(doubled).data - lmfe(base).data, math.log(4), atol=1e-9
        )

    def test_exp_recovers_mfe(self):
        signal = sine(700.0)
        np.testing.assert_allclose(
            np.exp(lmfe(signal).data), mfe(signal).data, rtol=1e-12
        )


class TestMfcc:
    def test_default_shape(self):
        assert mfcc(sine()).data.shape == (99, 13)

    def test_composition_with_stages(self):
        config = FeatureConfig(window="hamming")
        signal = sine(1200.0)
        log_energies = lmfe(signal, config)
        expected = np.array([dct_ii_ortho(row) for row in log_energies.data])
        out = mfcc(signal, config)
        assert np.abs(out.data - expected[:, :13]).max() == 0.0

    @pytest.mark.parametrize("dc_elimination", [False, True])
    def test_frame_energies_are_mfe_s(self, dc_elimination):
        signal = noise_frames(150, seed=4)
        config = FeatureConfig(window="hamming", dc_elimination=dc_elimination)
        assert mfcc(signal, config).frame_energies.tobytes() == (
            mfe(signal, config).frame_energies.tobytes()
        )

    def test_dc_elimination_drops_first_coefficient(self):
        config = FeatureConfig(dc_elimination=True)
        signal = sine(1200.0)
        full = FeatureConfig(num_cepstral=40)
        expected = mfcc(signal, full).data[:, 1:14]
        np.testing.assert_array_equal(mfcc(signal, config).data, expected)

    def test_norm_preserved_at_full_order(self):
        config = FeatureConfig(num_cepstral=40)
        signal = sine(300.0)
        out = mfcc(signal, config)
        reference = lmfe(signal, config)
        np.testing.assert_allclose(
            np.linalg.norm(out.data, axis=1),
            np.linalg.norm(reference.data, axis=1),
            atol=1e-10,
        )

    def test_silence_finite(self):
        out = mfcc(silence())
        assert np.isfinite(out.data).all()

    def test_cepstral_order_exceeds_filters(self):
        with pytest.raises(InvalidParameterError):
            mfcc(sine(), FeatureConfig(num_cepstral=41))

    @pytest.mark.parametrize("num_frames", [1, 2, 1024])
    @pytest.mark.parametrize("num_filters, dc_elimination", [
        (1, False), (13, False), (40, False), (64, False),
        (13, True), (40, True), (64, True),  # dc_elimination needs two filters
    ])
    def test_rows_bitwise_equal_to_dct_ii_ortho(self, num_frames, num_filters, dc_elimination):
        # 64 filters need bins finer than a 512-point FFT gives at 16 kHz
        config = FeatureConfig(
            window="hamming",
            fft_length=1024 if num_filters == 64 else 512,
            num_filters=num_filters,
            num_cepstral=min(13, num_filters - dc_elimination),
            dc_elimination=dc_elimination,
        )
        signal = noise_frames(num_frames, seed=num_filters)
        log_energies = lmfe(signal, config)
        first = int(dc_elimination)
        expected = np.array([dct_ii_ortho(row) for row in log_energies.data])
        expected = expected[:, first:first + config.num_cepstral]
        out = mfcc(signal, config)
        assert out.data.shape == (num_frames, config.num_cepstral)
        assert out.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dc_elimination", [False, True])
    @pytest.mark.parametrize("num_frames", [1, 99])
    def test_result_owns_its_columns(self, dc_elimination, num_frames):
        # the earlier result was a column slice of the T x num_filters cepstra
        config = FeatureConfig(dc_elimination=dc_elimination)
        signal = noise_frames(num_frames, seed=num_frames)
        log_energies = lmfe(signal, config)
        cepstra = np.matmul(_dct_matrix(config.num_filters), log_energies.data[:, :, None])[:, :, 0]
        first = int(dc_elimination)
        view = cepstra[:, first:first + config.num_cepstral]
        out = mfcc(signal, config).data
        assert out.flags.c_contiguous and out.flags.owndata and out.base is None
        assert out.shape == view.shape
        assert out.tobytes() == np.ascontiguousarray(view).tobytes()

    def test_dct_basis_cached_and_read_only(self):
        basis = _dct_matrix(13)
        assert _dct_matrix(13) is basis
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0


def test_constant_energy_rows_carry_only_dc():
    # constant input to the DCT concentrates in coefficient 0
    c = -2.5
    row = dct_ii_ortho([c, c, c, c])
    np.testing.assert_allclose(row, [2 * c, 0, 0, 0], atol=1e-14)
    assert np.abs(row[1:]).max() < 1e-14


class TestExtractDerivative:
    def test_constant_in_time(self):
        feats = FeatureMatrix(data=np.full((10, 3), 7.0))
        out = extract_derivative(feats)
        assert out.data.shape == (10, 9)
        np.testing.assert_array_equal(out.data[:, 3:], 0.0)
        np.testing.assert_array_equal(out.data[:, :3], 7.0)

    def test_linear_ramp_interior_slope(self):
        slope = 0.75
        data = slope * np.arange(20)[:, None] * np.ones((1, 4))
        out = extract_derivative(FeatureMatrix(data=data), 2)
        deltas = out.data[:, 4:8]
        np.testing.assert_allclose(deltas[2:-2], slope, atol=1e-12)
        # slope of the interior delta is zero
        np.testing.assert_allclose(out.data[4:-4, 8:], 0.0, atol=1e-12)

    def test_single_frame(self):
        out = extract_derivative(FeatureMatrix(data=np.ones((1, 5))))
        np.testing.assert_array_equal(out.data[:, 5:], 0.0)

    def test_time_reversal_antisymmetry(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(30, 6))
        fwd = extract_derivative(FeatureMatrix(data=data), 2)
        rev = extract_derivative(FeatureMatrix(data=data[::-1]), 2)
        np.testing.assert_allclose(
            rev.data[:, 6:12][::-1][2:-2], -fwd.data[:, 6:12][2:-2], atol=1e-12
        )

    @pytest.mark.parametrize("bad", [0, -1, 32768, 2**40])
    def test_invalid_half_width(self, bad):
        with pytest.raises(InvalidParameterError, match=r"must be in \[1, 32767\], got"):
            extract_derivative(FeatureMatrix(data=np.ones((4, 2))), bad)

    def test_widest_half_width(self):
        # a window of 65,535 frames over 3, all but 3 of them edge padding
        out = extract_derivative(np.arange(6.0).reshape(3, 2), 32767)
        assert out.shape == (3, 6)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("bad", [2.5, "2", True, None])
    def test_half_width_not_an_integer(self, bad):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            extract_derivative(FeatureMatrix(data=np.ones((4, 2))), bad)


def delta_by_gather(data, half_width):
    """Oracle: deltas from edge-clamped index arrays."""
    num_frames = data.shape[0]
    denom = 2.0 * sum(n * n for n in range(1, half_width + 1))
    idx = np.arange(num_frames)
    out = np.zeros_like(data)
    for n in range(1, half_width + 1):
        ahead = data[np.minimum(idx + n, num_frames - 1)]
        behind = data[np.maximum(idx - n, 0)]
        out += n * (ahead - behind)
    return out / denom


class TestDerivativeBitwise:
    @pytest.mark.parametrize("num_frames", [1, 63, 64, 65, 1024, 1025])
    @pytest.mark.parametrize("dims", [1, 2, 13, 39])
    @pytest.mark.parametrize("half_width", [1, 2, 3])
    def test_against_index_gather(self, num_frames, dims, half_width):
        data = np.random.default_rng(num_frames * dims).normal(size=(num_frames, dims))
        data[: num_frames // 3] = 0.0  # silent frames: exact zeros and -0.0 sums
        delta = delta_by_gather(data, half_width)
        expected = np.concatenate([data, delta, delta_by_gather(delta, half_width)], axis=1)
        out = extract_derivative(FeatureMatrix(data=data), half_width)
        assert out.data.tobytes() == expected.tobytes()

    def test_integer_features(self):
        data = np.arange(40).reshape(10, 4) ** 2
        delta = delta_by_gather(data, 2)
        expected = np.concatenate([data, delta, delta_by_gather(delta, 2)], axis=1)
        out = extract_derivative(FeatureMatrix(data=data))
        assert out.data.tobytes() == expected.tobytes()


class TestDerivativeTakesArrays:
    """extract_derivative takes a T x D array or a FeatureMatrix and returns
    the same kind, as cmvn and cmvnw do."""

    @pytest.mark.parametrize("num_frames, dims", [(1, 1), (7, 13), (1025, 39)])
    def test_array_result_is_the_record_data(self, num_frames, dims):
        data = np.random.default_rng(dims).normal(size=(num_frames, dims))
        out = extract_derivative(data)
        assert isinstance(out, np.ndarray)
        assert out.tobytes() == extract_derivative(FeatureMatrix(data=data)).data.tobytes()

    def test_record_keeps_frame_energies(self):
        static = mfcc(noise_frames(20, seed=2))
        out = extract_derivative(static)
        assert isinstance(out, FeatureMatrix)
        assert out.frame_energies is static.frame_energies

    def test_list_data(self):
        rows = [[1.0, 2.0], [3.0, 5.0], [4.0, 9.0]]
        out = extract_derivative(rows)
        assert out.tobytes() == extract_derivative(np.array(rows)).tobytes()
        assert extract_derivative(FeatureMatrix(data=rows)).data.tobytes() == out.tobytes()

    @pytest.mark.parametrize("features", [np.zeros((0, 3)), FeatureMatrix(data=np.zeros((0, 3)))],
                             ids=["array", "record"])
    def test_zero_frames(self, features):
        with pytest.raises(EmptyFeaturesError, match="at least one frame"):
            extract_derivative(features)


@pytest.mark.parametrize("bad", [
    FeatureMatrix(data=np.ones(4)),
    FeatureMatrix(data=np.ones((4, 2, 1))),
    FeatureMatrix(data=np.array([["a", "b"]])),
    FeatureMatrix(data=np.ones((4, 2), dtype=complex)),
    None,
], ids=["1-D", "3-D", "strings", "complex", "None"])
def test_extract_derivative_rejects_bad_features(bad):
    with pytest.raises(InvalidParameterError, match=r"features \(a T x D matrix\) must be"):
        extract_derivative(bad)


@pytest.mark.parametrize("window", ["rectangular", "hamming"])
def test_lmfe_is_log_of_mfe_bitwise(window):
    signal = noise_frames(200, seed=4)
    config = FeatureConfig(window=window)
    energies = mfe(signal, config)
    out = lmfe(signal, config)
    assert out.data.tobytes() == np.log(energies.data).tobytes()
    assert out.frame_energies.tobytes() == energies.frame_energies.tobytes()


def _noise_as(kind):
    """1 s of uniform noise at 16 kHz as a list of floats or an array of dtype kind."""
    x = np.random.default_rng(11).uniform(-1, 1, 16000)
    if kind == "list":
        return x.tolist()
    return (x * (30000 if np.dtype(kind).kind == "i" else 1)).astype(kind)


@pytest.mark.parametrize("kind", ["float16", "float32", "int16", "list"])
def test_samples_widened_to_float64_before_any_stage(kind):
    samples = _noise_as(kind)
    signal = AudioBuffer(samples, 16000)
    wide = AudioBuffer(np.array(samples, dtype=np.float64), 16000)
    assert signal.samples.dtype == np.float64
    assert mfe(signal).frame_energies.tobytes() == mfe(wide).frame_energies.tobytes()
    for extract in (mfe, mfcc, lambda s: extract_derivative(mfcc(s))):
        assert extract(signal).data.tobytes() == extract(wide).data.tobytes()
