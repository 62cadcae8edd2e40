import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spfeat.audio_io import AudioBuffer, read_wav, samples_to_real
from spfeat.errors import (
    EmptySignalError,
    InvalidSignalError,
    MalformedWavError,
    MissingFileError,
    SpfeatError,
    UnsupportedFormatError,
)
from spfeat.preprocess import pre_emphasis

from conftest import wav_bytes, write_wav

PCM_MONO = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
PCM_STEREO = struct.pack("<HHIIHH", 1, 2, 16000, 64000, 4, 16)


def riff(*chunks):
    """A RIFF/WAVE blob holding the given (chunk id, body) pairs in order."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(data)) + data for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


# the data chunk size a streaming writer leaves when it cannot seek back
STREAMED = 0xFFFFFFFF


def with_size(blob, chunk_id, size):
    """blob with the size field of its first chunk_id chunk replaced."""
    at = blob.index(chunk_id) + 4
    return blob[:at] + struct.pack("<I", size) + blob[at + 4:]


class TestSamplesToReal:
    def test_zero(self):
        assert samples_to_real([0]).tolist() == [0.0]

    def test_negative_full_scale(self):
        assert samples_to_real([-32768]).tolist() == [-1.0]

    def test_positive_full_scale(self):
        # 32767/32768 is exact in binary floating point
        assert samples_to_real([32767]).tolist() == [0.999969482421875]

    def test_half_scale(self):
        assert samples_to_real([16384, -16384]).tolist() == [0.5, -0.5]

    @given(st.lists(st.integers(-32768, 32767)))
    def test_magnitude_bound(self, raw):
        out = samples_to_real(raw)
        assert np.all(np.abs(out) <= 1.0)
        for v, r in zip(out, raw):
            assert (abs(v) == 1.0) == (r == -32768)


    def test_bit_identical_to_dividing_a_copy(self):
        raw = np.arange(-32768, 32768, dtype=np.int16)
        expected = raw.astype(np.float64) / 32768.0
        assert samples_to_real(raw).tobytes() == expected.tobytes()

    # NumPy may reuse the buffer of a temporary over 256 KiB on its own, so a
    # size below that shows a second array where elision does not happen
    @pytest.mark.parametrize("size", [10**4, 10**6])
    def test_one_float64_array_at_peak(self, size):
        raw = np.zeros(size, dtype=np.int16)
        tracemalloc.start()
        try:
            samples_to_real(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float64 result alone is 8 bytes a sample; a second array would be 16
        assert peak < 9 * raw.size

    @pytest.mark.parametrize("make", [
        lambda: np.linspace(-1.0, 1.0, 9),
        lambda: np.linspace(-1.0, 1.0, 18)[::2],
        lambda: np.array([[100, 300], [-7, 8]], dtype=np.int16).mean(axis=1),  # read_wav's stereo mean
    ], ids=["float64", "float64-view", "stereo-mean"])
    def test_caller_memory_not_written(self, make):
        raw = make()
        before = raw.copy()
        out = samples_to_real(raw)
        assert raw.tobytes() == before.tobytes()
        assert out.tobytes() == (before / 32768.0).tobytes()
        assert not np.may_share_memory(out, raw)


class TestReadWav:
    def test_silence(self, tmp_path):
        path = write_wav(tmp_path / "s.wav", [0, 0, 0], 16000)
        buf = read_wav(path)
        assert buf.sampling_frequency == 16000
        assert buf.samples.tolist() == [0.0, 0.0, 0.0]

    def test_scaling(self, tmp_path):
        path = write_wav(tmp_path / "s.wav", [16384, -16384])
        assert read_wav(path).samples.tolist() == [0.5, -0.5]

    def test_stereo_mean(self, tmp_path):
        path = write_wav(tmp_path / "s.wav", [100, 300], channels=2)
        assert read_wav(path).samples.tolist() == [200 / 32768]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"JUNK" + b"\x00" * 40)
        with pytest.raises(MalformedWavError):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            read_wav(tmp_path / "nope.wav")

    @pytest.mark.parametrize("bad", [2**20, True, None, 3.0, "a\0b"])
    def test_rejects_non_path(self, bad):
        with pytest.raises(MissingFileError):
            read_wav(bad)

    def test_open_descriptor_is_not_read_or_closed(self, tmp_path):
        path = write_wav(tmp_path / "s.wav", [1, 2, 3])
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(MissingFileError):
                read_wav(fd)
            os.fstat(fd)  # EBADF if read_wav closed it
            assert os.lseek(fd, 0, os.SEEK_CUR) == 0
        finally:
            os.close(fd)

    def test_truncated_data_chunk(self, tmp_path):
        blob = bytearray(write_wav(tmp_path / "s.wav", [1] * 100).read_bytes())
        (tmp_path / "cut.wav").write_bytes(blob[:60])
        with pytest.raises(MalformedWavError):
            read_wav(tmp_path / "cut.wav")

    @pytest.mark.parametrize("channels", [1, 2])
    def test_streamed_data_size_reads_to_end_of_file(self, tmp_path, channels):
        samples = np.random.default_rng(11).integers(-32768, 32768, 2 * 801)
        blob = with_size(wav_bytes(samples, 16000, channels), b"data", STREAMED)
        (tmp_path / "streamed.wav").write_bytes(blob)
        expected = read_wav(write_wav(tmp_path / "sized.wav", samples, 16000, channels))
        got = read_wav(tmp_path / "streamed.wav")
        assert got.sampling_frequency == 16000
        assert got.samples.tobytes() == expected.samples.tobytes()

    @pytest.mark.parametrize("channels, tail", [(1, 1), (2, 1), (2, 3)])
    def test_streamed_tail_must_be_whole_frames(self, tmp_path, channels, tail):
        blob = with_size(wav_bytes(np.arange(200), 16000, channels), b"data", STREAMED)
        (tmp_path / "streamed.wav").write_bytes(blob + b"\x01" * tail)
        with pytest.raises(MalformedWavError, match="not a multiple of the frame size"):
            read_wav(tmp_path / "streamed.wav")

    def test_streamed_empty_data_chunk(self, tmp_path):
        (tmp_path / "streamed.wav").write_bytes(with_size(wav_bytes([]), b"data", STREAMED))
        with pytest.raises(MalformedWavError, match="empty data chunk"):
            read_wav(tmp_path / "streamed.wav")

    @pytest.mark.parametrize("chunk_id, size", [(b"data", STREAMED - 1), (b"LIST", STREAMED)])
    def test_other_sizes_past_the_end_are_truncated(self, tmp_path, chunk_id, size):
        blob = riff((b"fmt ", PCM_MONO), (b"LIST", b"\x00" * 8), (b"data", b"\x00" * 8))
        (tmp_path / "bad.wav").write_bytes(with_size(blob, chunk_id, size))
        with pytest.raises(MalformedWavError, match="truncated"):
            read_wav(tmp_path / "bad.wav")

    @pytest.mark.parametrize("channels", [1, 2])
    def test_empty_data_chunk(self, tmp_path, channels):
        path = write_wav(tmp_path / "empty.wav", [], 16000, channels)
        with pytest.raises(MalformedWavError, match="empty data chunk"):
            read_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        blob = b"RIFF" + struct.pack("<I", len(body)) + body
        path = tmp_path / "nodata.wav"
        path.write_bytes(blob)
        with pytest.raises(MalformedWavError):
            read_wav(path)

    @pytest.mark.parametrize("chunks, message", [
        ([(b"data", b"\x00" * 8)], "missing fmt chunk"),
        ([(b"fmt ", PCM_MONO[:14]), (b"data", b"\x00" * 8)], "fmt chunk too short"),
        ([(b"fmt ", struct.pack("<HHIIHH", 1, 1, 0, 0, 2, 16)), (b"data", b"\x00" * 8)],
         "zero sample rate"),
        ([(b"fmt ", PCM_MONO), (b"data", b"\x00" * 7)], "not a multiple of the frame size"),
        ([(b"fmt ", PCM_STEREO), (b"data", b"\x00" * 6)], "not a multiple of the frame size"),
    ], ids=["no-fmt", "short-fmt", "zero-rate", "odd-mono-data", "half-stereo-frame"])
    def test_malformed_fmt_or_data(self, tmp_path, chunks, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(riff(*chunks))
        with pytest.raises(MalformedWavError, match=message):
            read_wav(path)

    @pytest.mark.parametrize(
        "fmt_code,channels,bits",
        [(3, 1, 16), (1, 1, 8), (1, 1, 24), (1, 3, 16)],
    )
    def test_unsupported_formats(self, tmp_path, fmt_code, channels, bits):
        fmt = struct.pack("<HHIIHH", fmt_code, channels, 16000, 32000, 2, bits)
        data = b"\x00" * 8
        body = (
            b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data
        )
        path = tmp_path / "u.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_skips_unknown_and_odd_chunks(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        data = struct.pack("<3h", 10, 20, 30)
        # odd-sized LIST chunk carries a pad byte
        body = (
            b"WAVE"
            + b"LIST" + struct.pack("<I", 5) + b"abcde" + b"\x00"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"fact" + struct.pack("<I", 4) + struct.pack("<I", 3)
            + b"data" + struct.pack("<I", len(data)) + data
        )
        path = tmp_path / "chunky.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        buf = read_wav(path)
        assert buf.sampling_frequency == 8000
        assert buf.samples.tolist() == [10 / 32768, 20 / 32768, 30 / 32768]

    @given(
        raw=st.lists(st.integers(-32768, 32767), min_size=1, max_size=200),
        fs=st.sampled_from([8000, 16000, 44100]),
        channels=st.sampled_from([1, 2]),
    )
    @settings(max_examples=50)
    def test_round_trip(self, raw, fs, channels, tmp_path_factory):
        if channels == 2 and len(raw) % 2:
            raw = raw + [0]
        tmp = tmp_path_factory.mktemp("wav")
        path = write_wav(tmp / "rt.wav", raw, fs, channels)
        buf = read_wav(path)
        expected = np.asarray(raw, dtype=np.float64)
        if channels == 2:
            expected = expected.reshape(-1, 2).mean(axis=1)
        expected = expected / 32768
        assert buf.sampling_frequency == fs
        assert buf.samples.tolist() == expected.tolist()

    @given(blob=st.binary(max_size=256))
    @settings(max_examples=200)
    def test_fuzz_never_crashes(self, blob, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "f.wav"
        path.write_bytes(blob)
        try:
            buf = read_wav(path)
            assert isinstance(buf, AudioBuffer)
        except SpfeatError:
            pass


def test_audio_buffer_rejects_bad_rate():
    with pytest.raises(ValueError):
        AudioBuffer(samples=np.zeros(1), sampling_frequency=0)


@pytest.mark.parametrize("samples, rate", [
    (np.array([0.0, np.nan, 0.0]), 16000),
    (np.array([0.0, -np.inf]), 16000),
    (np.zeros((2, 160)), 16000),
    (np.zeros(160), 16000.5),
    (np.zeros(160), True),
    (np.zeros(160), 0),
])
def test_audio_buffer_rejects_bad_signal(samples, rate):
    with pytest.raises(InvalidSignalError):
        AudioBuffer(samples=samples, sampling_frequency=rate)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 500, -1])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_audio_buffer_rejects_non_finite_anywhere(value, where, dtype):
    samples = np.random.default_rng(1).uniform(-1, 1, 1001).astype(dtype)
    samples[where] = value
    with pytest.raises(InvalidSignalError, match="finite"):
        AudioBuffer(samples=samples, sampling_frequency=16000)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int16])
def test_empty_buffer_reaches_pre_emphasis_check(dtype):
    signal = AudioBuffer(samples=np.array([], dtype=dtype), sampling_frequency=16000)
    with pytest.raises(EmptySignalError):
        pre_emphasis(signal)


@pytest.mark.parametrize("samples", [
    ["a", "b"],
    [[0.1, 0.2], [0.3]],
    [0.1, None],
    [0.1, float("nan")],
    (1j, 2j),
])
def test_audio_buffer_rejects_bad_sequences(samples):
    with pytest.raises(InvalidSignalError):
        AudioBuffer(samples=samples, sampling_frequency=16000)


@pytest.mark.parametrize("container", [list, tuple])
def test_audio_buffer_accepts_sequences(container):
    from spfeat import mfcc

    values = [0.1, 0.2, 0.3] * 200
    buf = AudioBuffer(samples=container(values), sampling_frequency=16000)
    assert isinstance(buf.samples, np.ndarray)
    expected = mfcc(AudioBuffer(np.array(values), 16000))
    np.testing.assert_array_equal(mfcc(buf).data, expected.data)


def test_audio_buffer_accepts_numpy_integer_rate():
    assert AudioBuffer(np.zeros(4), np.int32(8000)).sampling_frequency == 8000


HUGE = [
    np.random.default_rng(7).uniform(-1e200, 1e200, 4000),
    np.full(4000, 1.5e308),
    np.full(4000, -1.5e308),
    np.r_[np.zeros(3999), np.nextafter(1e50, np.inf)],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("samples", HUGE, ids=["uniform-1e200", "+1.5e308", "-1.5e308",
                                               "just-above-bound"])
def test_audio_buffer_rejects_samples_too_large_for_the_features(samples):
    from spfeat import mfcc

    with pytest.raises(InvalidSignalError, match="samples"):
        AudioBuffer(samples, 16000)
    with pytest.raises(InvalidSignalError, match="samples"):
        mfcc(AudioBuffer(samples, 16000))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("samples", [
    (np.random.default_rng(8).uniform(-1, 1, 16000) * 30000).astype(np.int16),
    np.random.default_rng(9).uniform(-1e6, 1e6, 16000),
    # B / 2: the pre-emphasized signal, at most twice as large, is checked too
    np.random.default_rng(10).uniform(-0.5e50, 0.5e50, 16000),
], ids=["int16-30000", "float-1e6", "float-at-half-bound"])
def test_samples_within_the_bound_give_finite_features(samples):
    from spfeat import cmvn, cmvnw, extract_derivative, lmfe, mfcc, mfe

    signal = AudioBuffer(samples, 16000)
    for feature in (mfcc, mfe, lmfe):
        stacked = extract_derivative(feature(signal))
        for out in (stacked, cmvn(stacked, variance_normalization=True),
                    cmvnw(stacked, win_size=31, variance_normalization=True)):
            assert np.isfinite(out.data).all()


@pytest.mark.filterwarnings("error")
def test_pre_emphasis_beyond_the_bound_is_a_typed_error():
    from spfeat import mfcc

    signal = AudioBuffer(np.resize([0.9e50, -0.9e50], 4000), 16000)
    with pytest.raises(InvalidSignalError, match="samples"):
        pre_emphasis(signal)
    with pytest.raises(InvalidSignalError, match="samples"):
        mfcc(signal)
