import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spfeat.audio_io import AudioBuffer, read_wav
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


# the edge values of int16 and their neighbours, for the stereo pairs
EDGES = [-32768, -32767, -1, 0, 1, 32766, 32767]


class TestSampleValues:
    @pytest.mark.parametrize("channels", [1, 2])
    def test_every_int16_value_reads_as_v_over_32768(self, tmp_path, channels):
        # in stereo both channels hold v, so the pair mean is v too
        raw = np.arange(-32768, 32768, dtype=np.int16)
        wav = write_wav(tmp_path / "all.wav", np.repeat(raw, channels), channels=channels)
        out = read_wav(wav).samples
        assert out.dtype == np.float64
        assert out.tobytes() == (raw.astype(np.float64) / 32768.0).tobytes()
        assert out[[0, 32768, -1]].tolist() == [-1.0, 0.0, 0.999969482421875]
        assert np.abs(out[1:]).max() < 1.0

    @pytest.mark.parametrize("pairs", [
        np.array([(a, b) for a in EDGES for b in EDGES]),
        np.random.default_rng(7).integers(-32768, 32768, (100_000, 2)),
    ], ids=["edge-pairs", "random"])
    def test_stereo_is_the_exact_pair_mean(self, tmp_path, pairs):
        path = write_wav(tmp_path / "st.wav", pairs, channels=2)
        expected = pairs.astype(np.int16).mean(axis=1) / 32768
        assert read_wav(path).samples.tobytes() == expected.tobytes()

    # literal values, independent of NumPy's mean; 2**-16 is the stereo step
    @pytest.mark.parametrize("pair, value", [
        ((0, 0), 0.0),
        ((1, -1), 0.0),
        ((1, 0), 2**-16),
        ((-32768, -32768), -1.0),
        ((32767, 32767), 0.999969482421875),
        ((32767, -32768), -(2**-16)),
        ((16384, 16384), 0.5),
        ((32767, 1), 0.5),
    ], ids=["zero", "cancel", "one-step", "negative-full-scale", "positive-full-scale",
            "opposite-full-scale", "half-scale", "uneven-half-scale"])
    def test_stereo_value(self, tmp_path, pair, value):
        path = write_wav(tmp_path / "one.wav", [pair], channels=2)
        assert read_wav(path).samples.tolist() == [value]

    @pytest.mark.parametrize("channels", [1, 2])
    @given(raw=st.lists(st.integers(-32768, 32767), min_size=2, max_size=200))
    @settings(max_examples=50)
    def test_magnitude_bound(self, channels, raw, tmp_path_factory):
        raw = raw[:len(raw) // channels * channels]
        path = write_wav(tmp_path_factory.mktemp("mag") / "m.wav", raw, channels=channels)
        out = read_wav(path).samples
        assert np.all(np.abs(out) <= 1.0)
        # only full negative scale in every channel reads as magnitude 1
        frames = np.reshape(raw, (-1, channels))
        assert ((np.abs(out) == 1.0) == (frames == -32768).all(axis=1)).all()

    @pytest.mark.parametrize("channels", [1, 2])
    def test_samples_are_a_fresh_writable_array(self, tmp_path, channels):
        path = write_wav(tmp_path / "w.wav", np.arange(-8, 8), channels=channels)
        first, second = read_wav(path).samples, read_wav(path).samples
        assert first.flags.writeable and first.flags.c_contiguous
        assert not np.may_share_memory(first, second)
        first *= 2.0
        assert read_wav(path).samples.tobytes() == second.tobytes()

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("frames", [10**4, 10**6])
    def test_peak_is_the_file_and_one_float64_array(self, tmp_path, channels, frames):
        raw = np.random.default_rng(frames).integers(-32768, 32768, frames * channels)
        path = write_wav(tmp_path / "s.wav", raw, channels=channels)
        tracemalloc.start()
        try:
            read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file's bytes and the float64 result; a stereo mean made first would add 8 a frame
        assert peak < path.stat().st_size + 8 * frames + (128 << 10)


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
