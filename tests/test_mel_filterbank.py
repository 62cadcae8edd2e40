import numpy as np
import pytest

from spfeat.errors import (
    DegenerateFilterError,
    InvalidBandError,
    InvalidFftLengthError,
    InvalidParameterError,
    NegativeFrequencyError,
    NegativeMelError,
)
from spfeat.audio_io import AudioBuffer
from spfeat.features import FeatureConfig, mfe
from spfeat.mel_filterbank import (
    _build_filterbank,
    build_filterbank,
    hz_to_mel,
    mel_to_hz,
    require_band,
    require_filter_count,
)

from conftest import mel_edges


class TestMelScale:
    def test_zero(self):
        assert float(hz_to_mel(0)) == 0.0
        assert float(mel_to_hz(0)) == 0.0

    def test_break_frequency(self):
        # 2595 * log10(2), evaluated independently at high precision
        assert float(hz_to_mel(700)) == pytest.approx(781.1728387480312, rel=1e-15)

    def test_8khz(self):
        assert float(hz_to_mel(8000)) == pytest.approx(2840.0230467083186, rel=1e-15)

    def test_inverse_of_break(self):
        assert float(mel_to_hz(hz_to_mel(700))) == pytest.approx(700, rel=1e-12)

    def test_1000_mel(self):
        assert float(mel_to_hz(1000)) == pytest.approx(1000.021816457287, rel=1e-15)

    @pytest.mark.parametrize("f", [1, 10, 100, 1000, 8000, 22050])
    def test_round_trip(self, f):
        assert float(mel_to_hz(hz_to_mel(f))) == pytest.approx(f, rel=1e-12)

    def test_monotonic(self):
        grid = np.linspace(0, 22050, 1000)
        mels = hz_to_mel(grid)
        assert np.all(np.diff(mels) > 0)

    def test_negative_inputs(self):
        with pytest.raises(NegativeFrequencyError):
            hz_to_mel(-1)
        with pytest.raises(NegativeMelError):
            mel_to_hz(-1)

    @pytest.mark.parametrize("m", [1e6, [1.0, 1e6], 1e300])
    def test_overflowing_mel_raises(self, m):
        with pytest.raises(InvalidParameterError, match="overflows"):
            mel_to_hz(m)

    def test_largest_frequency_round_trips(self):
        assert np.isfinite(mel_to_hz(hz_to_mel(1e300)))


class TestBuildFilterbank:
    def test_returns_the_shared_read_only_weights_array(self):
        bank = build_filterbank(40, 512, 16000)
        assert type(bank) is np.ndarray
        assert bank.dtype == np.float64
        assert not bank.flags.writeable
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0
        assert build_filterbank(40, 512, 16000) is bank

    def test_single_triangle(self):
        bank = build_filterbank(1, 64, 16000, 0, 8000)
        assert bank.shape == (1, 33)
        peak_hz = mel_edges(1, 0, 8000)[1]
        bin_freqs = np.arange(33) * 16000 / 64
        peak_bin = np.argmin(np.abs(bin_freqs - peak_hz))
        assert bank[0, peak_bin] > 0.9
        assert bank[0, 0] < 0.1
        assert bank[0, -1] < 0.1

    def test_standard_shape_and_coverage(self):
        bank = build_filterbank(40, 512, 16000, 0, 8000)
        assert bank.shape == (40, 257)
        assert np.all(bank.max(axis=1) > 0)

    def test_partition_of_unity(self):
        bank = build_filterbank(40, 512, 16000, 0, 8000)
        bin_freqs = np.arange(257) * 16000 / 512
        edges = mel_edges(40, 0, 8000)
        interior = (bin_freqs > edges[1]) & (bin_freqs < edges[40])
        sums = bank.sum(axis=0)[interior]
        assert np.abs(sums - 1).max() <= 1e-9

    def test_weights_in_unit_interval(self):
        bank = build_filterbank(40, 512, 16000, 0, 8000)
        assert bank.min() >= 0
        assert bank.max() <= 1

    def test_rows_unimodal(self):
        bank = build_filterbank(40, 512, 16000, 0, 8000)
        for row in bank:
            diffs = np.diff(row)
            # once weights start decreasing they never increase again
            decreasing = False
            for d in diffs:
                if d < 0:
                    decreasing = True
                elif d > 0:
                    assert not decreasing

    def test_default_band_is_nyquist(self):
        assert build_filterbank(12, 256, 8000) is build_filterbank(12, 256, 8000, 0.0, 4000.0)

    @pytest.mark.parametrize(
        "low,high", [(-1, 8000), (4000, 4000), (0, 9000), (8000, 100)]
    )
    def test_invalid_band(self, low, high):
        with pytest.raises(InvalidBandError):
            build_filterbank(10, 512, 16000, low, high)

    @pytest.mark.parametrize("fft_length", [512.0, True, 500, 0, 2**17, 2**62])
    def test_rejects_non_power_of_two_fft_length(self, fft_length):
        with pytest.raises(InvalidFftLengthError):
            build_filterbank(40, fft_length, 16000)

    def test_zero_filters_is_a_band_error(self):
        with pytest.raises(InvalidBandError, match="num_filters must be >= 1"):
            build_filterbank(0, 512, 16000)

    def test_degenerate_filters_reported(self):
        # 40 filters over 64-point FFT: low-band edges closer than one bin
        with pytest.raises(DegenerateFilterError):
            build_filterbank(40, 64, 16000, 0, 8000)

    def test_errors_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(DegenerateFilterError):
                build_filterbank(40, 64, 16000, 0, 8000)

    @pytest.mark.parametrize("args, kwargs", [
        ((40.5, 512, 16000), {}),
        ((True, 512, 16000), {}),
        ((40, 512, "16000"), {}),
        ((40, 512, None), {}),
        ((40, 512, 16000), {"low_freq": [0]}),
        ((40, 512, 16000), {"high_freq": "8000"}),
        ((40, 512, 16000), {"high_freq": np.array([8000.0])}),
        ((40, 512, float("inf")), {}),
        ((40, 512, float("nan")), {}),
        ((40, 512, 0), {}),
        ((40, 512, -1), {}),
    ], ids=["float-count", "bool-count", "str-rate", "no-rate", "list-low", "str-high",
            "array-high", "inf-rate", "nan-rate", "zero-rate", "negative-rate"])
    def test_argument_types_are_typed_errors(self, args, kwargs):
        # checked before the cache key, so an unhashable band is no TypeError
        with pytest.raises(InvalidParameterError):
            build_filterbank(*args, **kwargs)

    def test_cached_per_value_across_call_forms(self):
        bank = build_filterbank(26, 512, 16000, 0.0, None)
        assert build_filterbank(26, 512, 16000) is bank
        assert build_filterbank(26, 512, 16000, low_freq=0.0) is bank


def _per_filter_reference(num_filters, fft_length, fs, low, high):
    """The builder as one Python loop over the filters, row i - 1 for filter i."""
    hz_points = mel_edges(num_filters, low, high)
    bin_freqs = np.arange(fft_length // 2 + 1) * (fs / fft_length)
    weights = np.zeros((num_filters, fft_length // 2 + 1))
    for i in range(1, num_filters + 1):
        left, peak, right = hz_points[i - 1], hz_points[i], hz_points[i + 1]
        rising = (bin_freqs - left) / (peak - left)
        falling = (right - bin_freqs) / (right - peak)
        weights[i - 1] = np.maximum(0.0, np.minimum(rising, falling))
    return weights


class TestMatchesPerFilterLoop:
    @pytest.mark.parametrize("band", [None, (300.0, 3400.0)], ids=["full", "telephone"])
    @pytest.mark.parametrize("fs", [8000, 16000, 44100, 48000])
    @pytest.mark.parametrize("fft_length", [256, 512, 1024, 2048])
    @pytest.mark.parametrize("num_filters", [1, 5, 13, 26, 40, 64])
    def test_bitwise(self, num_filters, fft_length, fs, band):
        low, high = band or (0.0, fs / 2.0)
        try:
            bank = build_filterbank(num_filters, fft_length, fs, low, high)
        except DegenerateFilterError:
            pytest.skip("edges closer than one bin")
        weights = _per_filter_reference(num_filters, fft_length, fs, low, high)
        assert bank.shape == weights.shape
        assert bank.tobytes() == weights.tobytes()

    def test_int_and_float_rate_share_one_entry(self):
        assert build_filterbank(26, 512, 16000) is build_filterbank(26, 512, 16000.0)


class TestRulesWithoutRate:
    """The filter count and the band order need no sample rate, so a
    FeatureConfig checks them when it is built, as build_filterbank does."""

    @pytest.mark.filterwarnings("error")
    def test_huge_filter_count_is_degenerate_before_any_array(self):
        with pytest.raises(DegenerateFilterError):
            build_filterbank(2**60, 512, 16000)
        with pytest.raises(DegenerateFilterError):
            FeatureConfig(num_filters=2**60)

    @pytest.mark.parametrize("fft_length", [4, 64, 512, 2048])
    def test_count_bound_is_half_the_fft_length_less_one(self, fft_length):
        top = fft_length // 2 - 1
        require_filter_count(top, fft_length)
        with pytest.raises(DegenerateFilterError, match=f"<= fft_length/2 - 1 = {top}"):
            require_filter_count(top + 1, fft_length)

    @pytest.mark.parametrize("fft_length", [1, 2])
    def test_no_count_fits_the_shortest_ffts(self, fft_length):
        with pytest.raises(DegenerateFilterError):
            require_filter_count(1, fft_length)

    @pytest.mark.parametrize("fs", [8000, 16000, 48000, 1])
    @pytest.mark.parametrize("fft_length", [16, 64, 512])
    def test_counts_past_the_bound_fail_at_every_rate(self, fs, fft_length):
        # the bound is necessary: above it the exact spacing would fail too
        with pytest.raises(DegenerateFilterError):
            _build_filterbank(fft_length // 2, fft_length, fs, 0.0, fs / 2.0)

    @pytest.mark.parametrize("low, high", [(5000, 4000), (4000, 4000), (-1, 100),
                                           (float("nan"), None), (0, float("nan"))])
    def test_band_order_is_checked_without_a_rate(self, low, high):
        with pytest.raises(InvalidBandError):
            require_band(low, high)
        with pytest.raises(InvalidBandError):
            FeatureConfig(low_freq=low, high_freq=high)

    def test_band_against_nyquist_waits_for_the_rate(self):
        config = FeatureConfig(high_freq=6000.0)  # fine at 16 kHz, past Nyquist at 8 kHz
        with pytest.raises(InvalidBandError, match="<= 4000.0"):
            mfe(AudioBuffer(np.zeros(800), 8000), config)

    @pytest.mark.parametrize("error", [InvalidBandError, DegenerateFilterError])
    def test_filterbank_errors_are_parameter_errors(self, error):
        assert issubclass(error, InvalidParameterError)
