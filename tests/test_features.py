import math

import numpy as np
import pytest

from spfeat.audio_io import AudioBuffer
from spfeat.errors import InvalidParameterError
from spfeat.features import (
    ENERGY_FLOOR,
    FeatureConfig,
    FeatureMatrix,
    dct_ii_ortho,
    extract_derivative,
    lmfe,
    mfcc,
    mfe,
)
from spfeat.mel_filterbank import build_filterbank


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


def sine(freq_hz=1000.0, fs=16000, seconds=1.0, amplitude=0.5):
    t = np.arange(int(fs * seconds)) / fs
    return AudioBuffer(
        samples=amplitude * np.sin(2 * np.pi * freq_hz * t), sampling_frequency=fs
    )


def silence(fs=16000, seconds=1.0):
    return AudioBuffer(samples=np.zeros(int(fs * seconds)), sampling_frequency=fs)


class TestDct:
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
        assert out.kind == "mfe"
        assert np.all(out.data == ENERGY_FLOOR)
        assert np.all(out.frame_energies == ENERGY_FLOOR)

    def test_sine_peaks_at_bracketing_filter(self):
        out = mfe(sine(1000.0))
        bank = build_filterbank(40, 512, 16000, 0, 8000)
        peaks = bank.center_frequencies[1:41]
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

    @pytest.mark.parametrize("field, value", [
        ("num_filters", 40.0),
        ("num_cepstral", 13.0),
        ("fft_length", 512.0),
        ("num_filters", True),
        ("fft_length", 500),
        ("fft_length", 0),
    ])
    def test_config_rejects_bad_counts(self, field, value):
        with pytest.raises(InvalidParameterError):
            FeatureConfig(**{field: value}).validate()

    def test_config_accepts_numpy_integers(self):
        FeatureConfig(fft_length=np.int64(256), num_filters=np.int32(26)).validate()


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


def test_constant_energy_rows_carry_only_dc():
    # constant input to the DCT concentrates in coefficient 0
    c = -2.5
    row = dct_ii_ortho([c, c, c, c])
    np.testing.assert_allclose(row, [2 * c, 0, 0, 0], atol=1e-14)
    assert np.abs(row[1:]).max() < 1e-14


class TestExtractDerivative:
    def test_constant_in_time(self):
        feats = FeatureMatrix(data=np.full((10, 3), 7.0), kind="mfcc")
        out = extract_derivative(feats)
        assert out.kind == "derivative_stacked"
        assert out.data.shape == (10, 9)
        np.testing.assert_array_equal(out.data[:, 3:], 0.0)
        np.testing.assert_array_equal(out.data[:, :3], 7.0)

    def test_linear_ramp_interior_slope(self):
        slope = 0.75
        data = slope * np.arange(20)[:, None] * np.ones((1, 4))
        out = extract_derivative(FeatureMatrix(data=data, kind="mfcc"), 2)
        deltas = out.data[:, 4:8]
        np.testing.assert_allclose(deltas[2:-2], slope, atol=1e-12)
        # slope of the interior delta is zero
        np.testing.assert_allclose(out.data[4:-4, 8:], 0.0, atol=1e-12)

    def test_single_frame(self):
        out = extract_derivative(FeatureMatrix(data=np.ones((1, 5)), kind="mfe"))
        np.testing.assert_array_equal(out.data[:, 5:], 0.0)

    def test_time_reversal_antisymmetry(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(30, 6))
        fwd = extract_derivative(FeatureMatrix(data=data, kind="mfcc"), 2)
        rev = extract_derivative(FeatureMatrix(data=data[::-1], kind="mfcc"), 2)
        np.testing.assert_allclose(
            rev.data[:, 6:12][::-1][2:-2], -fwd.data[:, 6:12][2:-2], atol=1e-12
        )

    def test_invalid_half_width(self):
        with pytest.raises(InvalidParameterError):
            extract_derivative(FeatureMatrix(data=np.ones((4, 2)), kind="mfe"), 0)
