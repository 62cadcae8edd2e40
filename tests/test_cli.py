import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import Field

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spfeat.cli as cli
from spfeat import cmvn, extract_derivative, mfcc
from spfeat._csvfmt import BLOCK_VALUES
from spfeat.audio_io import AudioBuffer, read_wav
from spfeat.cli import (
    JobSpec,
    main,
    parse_config,
    run_extract,
    write_csv,
    write_spfe,
)
from spfeat.errors import (
    InvalidParameterError,
    InvalidValueError,
    InvalidWindowError,
    MissingInputError,
    OutputCollisionError,
    OutputDirUnwritableError,
    SpfeatError,
    UnknownKeyError,
)
from spfeat.features import FeatureConfig

from conftest import read_spfe, write_wav


def tone(freq=440.0, fs=16000, seconds=1.0):
    t = np.arange(int(fs * seconds)) / fs
    return (0.4 * 32767 * np.sin(2 * np.pi * freq * t)).astype(np.int16)


class TestParseConfig:
    def test_defaults(self, tmp_path):
        spec = parse_config(
            ["--feature", "mfcc", "--input", "a.wav", "--output-dir", str(tmp_path)]
        )
        assert spec.feature == "mfcc"
        assert spec.config.num_filters == 40
        assert spec.config.num_cepstral == 13
        assert spec.config.frame_length_s == 0.020
        assert spec.config.frame_stride_s == 0.010
        assert spec.config.fft_length == 512
        assert spec.config.window == "rectangular"
        assert spec.config.alpha == 0.97
        assert spec.config.zero_padding is True
        assert spec.postprocess == "none"
        assert spec.format == "csv"
        assert spec.derivatives is False

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("num_filters = 26\nwindow = hamming  # comment\n")
        spec = parse_config(
            [
                "--feature", "mfe",
                "--input", "a.wav",
                "--config", str(cfg),
                "--num-filters", "40",
            ]
        )
        assert spec.config.num_filters == 40  # flag wins
        assert spec.config.window == "hamming"  # config file beats default

    def test_config_file_hyphen_keys(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("frame-length = 0.025\n")
        spec = parse_config(["--feature", "mfe", "--input", "a.wav", "--config", str(cfg)])
        assert spec.config.frame_length_s == 0.025

    def test_even_win_size_rejected(self):
        with pytest.raises(InvalidWindowError):
            parse_config(
                ["--feature", "mfcc", "--input", "a.wav",
                 "--postprocess", "cmvnw", "--win-size", "4"]
            )

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(UnknownKeyError):
            parse_config(["--feature", "mfe", "--input", "a.wav", "--config", str(cfg)])

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("num_filters = many\n")
        with pytest.raises(InvalidValueError):
            parse_config(["--feature", "mfe", "--input", "a.wav", "--config", str(cfg)])

    def test_missing_input(self):
        with pytest.raises(MissingInputError):
            parse_config(["--feature", "mfcc"])

    def test_missing_feature(self):
        with pytest.raises(InvalidValueError):
            parse_config(["--input", "a.wav"])

    def test_cepstral_exceeds_filters(self):
        with pytest.raises(InvalidParameterError):
            parse_config(
                ["--feature", "mfcc", "--input", "a.wav",
                 "--num-cepstral", "41", "--num-filters", "40"]
            )

    def test_bad_flag_value(self):
        with pytest.raises(InvalidValueError):
            parse_config(["--feature", "tempo", "--input", "a.wav"])

    def test_default_config_is_library_default(self):
        assert parse_config(["--feature", "mfcc", "--input", "a.wav"]).config == FeatureConfig()

    def test_config_file_of_defaults_changes_nothing(self, tmp_path):
        # every option except high_freq, whose default (Nyquist) has no literal
        cfg = tmp_path / "job.cfg"
        cfg.write_text(
            "output_dir = .\nformat = csv\nframe_length = 0.020\nframe_stride = 0.010\n"
            "fft_length = 512\nnum_filters = 40\nnum_cepstral = 13\nlow_freq = 0\n"
            "window = rectangular\npre_emphasis = 0.97\ndc_elimination = off\n"
            "zero_padding = true\npostprocess = none\nwin_size = 301\nderivatives = no\n"
        )
        base = ["--feature", "mfcc", "--input", "a.wav"]
        assert parse_config(base + ["--config", str(cfg)]) == parse_config(base)

    @pytest.mark.parametrize("bad", [
        ["--pre-emphasis", "1.5"],
        ["--frame-length", "5"],
        ["--postprocess", "cmvnw", "--win-size", "4"],
        ["--fft-length", "500"],
        ["--dc-elimination", "--num-cepstral", "40"],
        ["--num-filters", "0"],
        ["--num-cepstral", "0"],
        ["--num-filters", "1152921504606846976"],
        ["--num-filters", "300", "--fft-length", "512"],
        ["--low-freq", "5000", "--high-freq", "4000"],
        ["--fft-length", "1073741824"],
        ["--postprocess", "cmvnw", "--win-size", "65537"],
        ["--postprocess", "cmvnw_var", "--win-size", "1099511627777"],
    ])
    def test_bad_job_parameter_exits_2_once(self, fixture_dir, tmp_path, capsys, bad):
        out_dir = tmp_path / "out"
        code = main(["--feature", "mfcc", "--input", str(fixture_dir),
                     "--output-dir", str(out_dir)] + bad)
        captured = capsys.readouterr()
        assert code == 2
        assert "OK=" not in captured.out
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("extra", [[], ["--high-freq", "6000"]])
    def test_fft_length_error_wins_over_filterbank_error(
        self, fixture_dir, tmp_path, capsys, extra
    ):
        # 40 filters over 256 bins are also degenerate; the spectrum's check
        # runs before the filterbank is built, so its message is the one shown
        code = main(["--feature", "mfcc", "--input", str(fixture_dir / "alpha.wav"),
                     "--output-dir", str(tmp_path / "out"),
                     "--fft-length", "256", "--frame-length", "0.025"] + extra)
        assert code == 1
        assert capsys.readouterr().err == (
            f"FAIL {fixture_dir / 'alpha.wav'}: fft_length 256 shorter than frame length 400\n"
        )

    def test_fft_length_error_wins_over_band_error_at_8_khz(self, tmp_path, capsys):
        # 6 kHz is past the 4 kHz Nyquist, but the 160-sample frames are checked first
        wav = write_wav(tmp_path / "low.wav", tone(fs=8000), sampling_frequency=8000)
        code = main(["--feature", "mfcc", "--input", str(wav), "--output-dir",
                     str(tmp_path / "out"), "--fft-length", "128", "--high-freq", "6000"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"FAIL {wav}: fft_length 128 shorter than frame length 160\n"
        )

    @pytest.mark.parametrize("feature", ["mfe", "lmfe"])
    def test_dc_elimination_rule_is_mfcc_only(self, fixture_dir, tmp_path, capsys, feature):
        # mfe and lmfe have no cepstra, so the flag changes nothing there
        code = main(["--feature", feature, "--input", str(fixture_dir),
                     "--output-dir", str(tmp_path / "out"),
                     "--dc-elimination", "--num-cepstral", "40"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "OK=2 FAIL=0"


def _outcome(argv):
    try:
        return parse_config(argv)
    except SpfeatError:
        return "rejected"


def _base_argv(without):
    base = {"feature": ["--feature", "mfcc"], "input": ["--input", "a.wav"]}
    return [arg for name, args in base.items() if name != without for arg in args]


def _error_before_any_output(tmp_path, capsys, argv):
    """Run the CLI, check that it exits 2 with one line on stderr, no summary
    and no output directory, and return that line."""
    out_dir = tmp_path / "out"
    code = main(argv + ["--output-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert not out_dir.exists()
    return captured.err


SWITCHES = [name for name, (_, kind) in cli._OPTIONS.items() if kind is bool]
AGREEMENT_TEXTS = ["7", " 7 ", "-5", "1e3", "x", ""]


class TestConfigFileReadsAsFlags:
    @pytest.mark.parametrize("name, text", [
        (name, text) for name, (_, kind) in cli._OPTIONS.items() if kind is not bool
        # a choice option also gets one of its choices
        for text in AGREEMENT_TEXTS + (list(kind[-1:]) if isinstance(kind, tuple) else [])
    ])
    def test_file_value_and_flag_agree(self, tmp_path, name, text):
        kind = cli._OPTIONS[name][1]
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"{name} = {text}\n")
        # the file drops the blanks around a value; a list splits into words
        flag = "--" + name.replace("_", "-")
        given = [flag, *text.split()] if kind is list else [f"{flag}={text.strip()}"]
        from_file = _outcome(_base_argv(name) + ["--config", str(cfg)])
        assert from_file == _outcome(_base_argv(name) + given)

    @pytest.mark.parametrize("word, value", [
        ("true", True), ("1", True), ("On", True), ("YES", True),
        ("False", False), ("0", False), ("off", False), ("nO", False),
    ])
    @pytest.mark.parametrize("name", SWITCHES)
    def test_switch_words(self, tmp_path, name, word, value):
        default = cli._OPTIONS[name][0]
        default = getattr(default, "default", default)
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"{name} = {word}\n")
        flag = "--" + ("no-" if default else "") + name.replace("_", "-")
        given = [flag] if value != default else []
        from_file = parse_config(_base_argv(None) + ["--config", str(cfg)])
        assert from_file == parse_config(_base_argv(None) + given)

    def test_every_option_non_default(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(
            "feature = lmfe\ninput = a.wav  b.wav\noutput_dir = feats\nformat = spfe\n"
            "frame_length = 0.025\nframe-stride = 0.015\nfft_length = 1024\n"
            "num_filters = 26\nnum_cepstral = 12\nlow_freq = 100\nhigh_freq = 6000\n"
            "window = hamming\npre_emphasis = 0.9\ndc_elimination = yes\n"
            "zero_padding = off\npostprocess = cmvnw_var\nwin_size = 101\nderivatives = on\n"
        )
        flags = [
            "--feature", "lmfe", "--input", "a.wav", "b.wav", "--output-dir", "feats",
            "--format", "spfe", "--frame-length", "0.025", "--frame-stride", "0.015",
            "--fft-length", "1024", "--num-filters", "26", "--num-cepstral", "12",
            "--low-freq", "100", "--high-freq", "6000", "--window", "hamming",
            "--pre-emphasis", "0.9", "--dc-elimination", "--no-zero-padding",
            "--postprocess", "cmvnw_var", "--win-size", "101", "--derivatives",
        ]
        from_file = parse_config(["--config", str(cfg)])
        assert from_file == parse_config(flags)
        defaults = parse_config(_base_argv(None))

        def value(spec, name):
            source = cli._OPTIONS[name][0]
            if isinstance(source, Field):
                return getattr(spec.config, source.name)
            return getattr(spec, name)

        assert [n for n in cli._OPTIONS if value(from_file, n) == value(defaults, n)] == []

    @pytest.mark.parametrize("line", [
        "num_filters = many", "window = square", "zero_padding = maybe",
        "frame_length = -", "format = ",
    ])
    def test_bad_value_exits_2_with_its_line(self, tmp_path, capsys, line):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"# job\n{line}\n")
        code = main(["--feature", "mfcc", "--input", "a.wav", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {cfg}:2: {line.partition(' =')[0]}: ")

    def test_bad_value_reads_like_the_flag_error(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("num_filters = many\n")
        with pytest.raises(InvalidValueError) as from_flag:
            parse_config(_base_argv(None) + ["--num-filters=many"])
        with pytest.raises(InvalidValueError) as from_file:
            parse_config(_base_argv(None) + ["--config", str(cfg)])
        assert str(from_file.value) == f"{cfg}:1: num_filters: {from_flag.value}"

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "absent.cfg"
        err = _error_before_any_output(tmp_path, capsys, _base_argv(None) + ["--config", str(cfg)])
        assert err.startswith(f"error: cannot read config file {cfg}: ")

    def test_line_without_equals_exits_2_with_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("# job\nwindow hamming\n")
        err = _error_before_any_output(tmp_path, capsys, _base_argv(None) + ["--config", str(cfg)])
        assert err == f"error: {cfg}:2: expected 'key = value'\n"


class TestWriteCsv:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(np.array([[1.5, -2.0]]), path)
        assert path.read_bytes() == b"1.5,-2.0\n"

    def test_zero_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(np.zeros((3, 0)), path)
        assert path.read_bytes() == b"\n\n\n"

    def test_shortest_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(np.array([[0.1, 1 / 3]]), path)
        text = path.read_text().strip().split(",")
        assert text[0] == "0.1"
        assert float(text[1]) == 1 / 3


def write_csv_repr(matrix, path) -> None:
    """The oracle: the earlier writer, Python's repr per value."""
    rows = np.asarray(matrix, dtype=np.float64).tolist()
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def assert_csv_matches_repr(tmp_path, matrix):
    write_csv(matrix, tmp_path / "got.csv")
    write_csv_repr(matrix, tmp_path / "want.csv")
    got, want = (tmp_path / "got.csv").read_bytes(), (tmp_path / "want.csv").read_bytes()
    if got != want:  # name the first differing value
        for got_line, want_line in zip(got.splitlines(), want.splitlines()):
            for g, w in zip(got_line.split(b","), want_line.split(b",")):
                assert g == w
    assert got == want


def _sign_flipped(rng, values):
    signs = rng.integers(0, 2, values.size).astype(np.uint64) << np.uint64(63)
    return (values.view(np.uint64) ^ signs).view(np.float64)


def _boundary_values():
    """Powers of ten and two with their neighbours, and the float extremes."""
    values = [5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
              1.7976931348623157e308, np.nan, np.inf, -np.inf, 0.0, -0.0]
    for e in range(-323, 309):
        values.append(10.0**e)
    for e in range(-1074, 1024):
        values.append(2.0**e)
    # d * 10**n whose 54-bit binary form is odd sits exactly on the edge of
    # the rounding interval of its two neighbours: 1e23, 5e22, 7e22, ...
    for n in range(19, 24):
        for d in range(1, 200):
            values.append(float(d * 10**n))
    v = np.array(values)
    with np.errstate(over="ignore"):  # past the largest float
        return np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)])


def _dyadic_values():
    """odd / 2**j: many are exact decimal ties at the 16th or 17th digit.

    With j in 21..25 some have exactly 18 digits and a 10**k that is not a
    double (k > 22), so the tie is seen through rounding error.
    """
    odd = np.arange(1, 20001, 2, dtype=np.float64)
    return np.concatenate([odd / 2.0**j for j in (10, 20, 21, 22, 23, 24, 25, 30, 40, 50, 60, 70)])


def _layout_values():
    """Every digit count at every decimal point position and across the
    exponent range, and 17-digit strings whose low digits are zeros or nines
    at the splits of the digit text (after 1, 9 and 13 digits)."""
    rng = np.random.default_rng(16)
    values = []
    for digits in range(1, 18):
        for exponent in [*range(-7, 19), *range(-280, 281, 23)]:
            for lead in rng.integers(10 ** (digits - 1), 10**digits, 3):
                values.append(float(f"{lead - lead % 10 + rng.integers(1, 10)}e{exponent - digits}"))
    for high in rng.integers(10**8, 10**9, 40):
        for low in (0, 1, 9_999, 10_000, 10_001, 10**8 - 1):
            values.append(float(f"{high * 10**8 + low}e{rng.integers(-30, 30)}"))
    return np.array(values)


def _gapped_clip(seed, fs=16000, seconds=4.0):
    """Tone bursts between stretches of exact digital silence, as int16."""
    rng = np.random.default_rng(seed)
    x = np.zeros(int(seconds * fs))
    pos = int(0.3 * fs)
    while pos < x.size - fs // 4:
        m = int(rng.uniform(0.12, 0.5) * fs)
        t = np.arange(m) / fs
        burst = np.sin(2 * np.pi * rng.uniform(85, 255) * t) + 0.05 * rng.standard_normal(m)
        x[pos:pos + m] = (0.2 * burst / np.abs(burst).max())[: x.size - pos]
        pos += m + int(rng.uniform(0.05, 0.3) * fs)
    return np.round(x * 32767).astype(np.int16)


def _as_rows(values, cols=39):
    values = np.resize(values, -(-values.size // cols) * cols)
    return values.reshape(-1, cols)


class TestCsvMatchesRepr:
    """write_csv's bytes equal the repr-per-value oracle on every input."""

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**63, 100_000, dtype=np.int64).view(np.float64)
        assert_csv_matches_repr(tmp_path, _as_rows(_sign_flipped(rng, bits)))

    def test_scaled_normals(self, tmp_path):
        rng = np.random.default_rng(12)
        values = rng.normal(size=100_000) * 10.0 ** rng.uniform(-6, 16, 100_000)
        assert_csv_matches_repr(tmp_path, _as_rows(values))

    def test_rounded_decimals(self, tmp_path):
        rng = np.random.default_rng(13)
        scale = 10.0 ** rng.integers(0, 9, 50_000)
        assert_csv_matches_repr(tmp_path, _as_rows(np.round(rng.normal(size=50_000) * 1e3 * scale) / scale))

    def test_large_integers(self, tmp_path):
        rng = np.random.default_rng(14)
        values = rng.integers(-(2**62), 2**62, 50_000) >> rng.integers(0, 62, 50_000)
        assert_csv_matches_repr(tmp_path, _as_rows(values.astype(np.float64)))

    def test_float32_derived(self, tmp_path):
        rng = np.random.default_rng(15)
        values = (rng.normal(size=50_000) * 10.0 ** rng.integers(-8, 8, 50_000)).astype(np.float32)
        assert_csv_matches_repr(tmp_path, _as_rows(values.astype(np.float64)))

    def test_boundaries(self, tmp_path):
        values = _boundary_values()
        assert_csv_matches_repr(tmp_path, _as_rows(np.concatenate([values, -values])))

    def test_decimal_ties(self, tmp_path):
        values = _dyadic_values()
        assert_csv_matches_repr(tmp_path, _as_rows(np.concatenate([values, -values])))

    def test_layout_boundaries(self, tmp_path):
        values = _layout_values()
        assert_csv_matches_repr(tmp_path, _as_rows(np.concatenate([values, -values])))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pipeline_features(self, tmp_path, seed):
        # silent frames leave 1e-19 .. 1e-17 values after deltas and cmvn
        signal = AudioBuffer(_gapped_clip(seed) / 32768.0, 16000)
        out = cmvn(extract_derivative(mfcc(signal)), variance_normalization=True)
        assert np.abs(out.data[out.data != 0]).min() < 2e-18
        assert_csv_matches_repr(tmp_path, out.data)

    @pytest.mark.parametrize("rows", [BLOCK_VALUES // 39 - 1, BLOCK_VALUES // 39,
                                      BLOCK_VALUES // 39 + 1, 2 * (BLOCK_VALUES // 39) + 3])
    def test_block_edges(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        matrix = rng.normal(size=(rows, 39)) * 10.0 ** rng.integers(-7, 18, (rows, 39))
        matrix[::7, 3] = np.nan
        matrix[::5, -1] = -0.0
        assert_csv_matches_repr(tmp_path, matrix)

    @pytest.mark.parametrize("shape", [(0, 39), (0, 0), (3, 0), (1, 1), (1, BLOCK_VALUES + 1)])
    def test_degenerate_shapes(self, tmp_path, shape):
        matrix = np.random.default_rng(1).normal(size=shape)
        assert_csv_matches_repr(tmp_path, matrix)

    def test_integer_and_float32_input(self, tmp_path):
        assert_csv_matches_repr(tmp_path, np.arange(-60, 60, dtype=np.int64).reshape(8, 15) ** 7)
        assert_csv_matches_repr(tmp_path, np.linspace(-3, 3, 120, dtype=np.float32).reshape(8, 15))

    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    ))
    @settings(max_examples=200, deadline=None)
    def test_any_float64_matrix(self, tmp_path_factory, matrix):
        assert_csv_matches_repr(tmp_path_factory.mktemp("csv"), matrix)

    def test_peak_memory_at_most_the_repr_writer(self, tmp_path):
        matrix = np.random.default_rng(3).normal(size=(2000, 39))
        peaks = []
        for writer in (write_csv_repr, write_csv):
            writer(matrix, tmp_path / "warm.csv")
            tracemalloc.start()
            try:
                writer(matrix, tmp_path / "m.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


def test_no_formatting_table_built_at_import():
    code = ("import spfeat.cli, spfeat._csvfmt as f; "
            "print(f._pow10.cache_info().currsize, f._tables.cache_info().currsize)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["0", "0"]


def _leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.startswith("."))


class TestOutputsNeverHalfWritten:
    def test_csv_writer_raising_mid_file(self, tmp_path, monkeypatch):
        def chunks_then_failure(data):
            yield b"1.0,2.0\n"
            raise OSError("disk full")

        monkeypatch.setattr(cli, "csv_chunks", chunks_then_failure)
        with pytest.raises(OSError, match="disk full"):
            write_csv(np.ones((4, 2)), tmp_path / "new.csv")
        assert not (tmp_path / "new.csv").exists()
        (tmp_path / "old.csv").write_bytes(b"earlier output\n")
        with pytest.raises(OSError, match="disk full"):
            write_csv(np.ones((4, 2)), tmp_path / "old.csv")
        assert (tmp_path / "old.csv").read_bytes() == b"earlier output\n"
        assert _leftovers(tmp_path) == []

    def test_spfe_writer_raising_mid_file(self, tmp_path):
        unconvertible = np.array([[1.0, "x"]], dtype=object)  # fails after the header
        with pytest.raises(ValueError):
            write_spfe(unconvertible, tmp_path / "new.spfe")
        assert not (tmp_path / "new.spfe").exists()
        write_spfe(np.ones((2, 3)), tmp_path / "old.spfe")
        before = (tmp_path / "old.spfe").read_bytes()
        with pytest.raises(ValueError):
            write_spfe(unconvertible, tmp_path / "old.spfe")
        assert (tmp_path / "old.spfe").read_bytes() == before
        assert _leftovers(tmp_path) == []

    def test_interrupt_removes_the_temporary_file(self, tmp_path, monkeypatch):
        def interrupted(data):
            yield b"1.0\n"
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "csv_chunks", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_csv(np.ones((1, 1)), tmp_path / "m.csv")
        assert list(tmp_path.iterdir()) == []

    def test_output_replaced_with_the_usual_mode(self, tmp_path):
        (tmp_path / "plain").write_bytes(b"")
        (tmp_path / "m.csv").write_bytes(b"stale\n")
        write_csv(np.array([[1.5]]), tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == b"1.5\n"
        mode = os.stat(tmp_path / "m.csv").st_mode & 0o777
        assert mode == os.stat(tmp_path / "plain").st_mode & 0o777

    def test_failed_input_leaves_earlier_output(self, fixture_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        args = ["--feature", "mfcc", "--input", str(fixture_dir), "--output-dir", str(out_dir)]
        assert main(args) == 0
        earlier = (out_dir / "beta.csv").read_bytes()
        wav = fixture_dir / "beta.wav"
        wav.write_bytes(wav.read_bytes()[:100])
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"FAIL {wav}: ")
        assert (out_dir / "beta.csv").read_bytes() == earlier
        assert sorted(p.name for p in out_dir.iterdir()) == ["alpha.csv", "beta.csv"]


class TestWriteSpfe:
    def test_single_zero(self, tmp_path):
        path = tmp_path / "m.spfe"
        write_spfe(np.array([[0.0]]), path)
        blob = path.read_bytes()
        assert len(blob) == 24
        assert blob[:4] == bytes.fromhex("53504645")
        assert blob[16:] == b"\x00" * 8

    def test_size_formula(self, tmp_path):
        path = tmp_path / "m.spfe"
        write_spfe(np.ones((2, 3)), path)
        assert path.stat().st_size == 16 + 48
        version, reserved, rows, cols = struct.unpack_from("<HHII", path.read_bytes(), 4)
        assert (version, reserved, rows, cols) == (1, 0, 2, 3)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(7, 4))
        path = tmp_path / "m.spfe"
        write_spfe(matrix, path)
        np.testing.assert_array_equal(read_spfe(path), matrix)


def _absurd_rate_wav(path):
    """48 bytes whose header says 200 MHz, so a 20 ms frame is 4,000,000 samples."""
    write_wav(path, [1, -1], sampling_frequency=200_000_000)
    assert path.stat().st_size == 48
    return path


@pytest.fixture
def fixture_dir(tmp_path):
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    write_wav(wavs / "alpha.wav", tone(440))
    write_wav(wavs / "beta.wav", tone(880))
    return wavs


class TestRunExtract:
    def test_directory_happy_path(self, fixture_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        spec = parse_config(
            ["--feature", "mfcc", "--input", str(fixture_dir),
             "--output-dir", str(out_dir)]
        )
        summary = run_extract(spec)
        assert (summary.files_ok, summary.files_failed) == (2, 0)
        assert capsys.readouterr().out.strip().splitlines()[-1] == "OK=2 FAIL=0"
        assert sorted(p.name for p in out_dir.iterdir()) == ["alpha.csv", "beta.csv"]

    def test_output_shape_99x13(self, fixture_dir, tmp_path):
        out_dir = tmp_path / "out"
        spec = parse_config(
            ["--feature", "mfcc", "--input", str(fixture_dir / "alpha.wav"),
             "--output-dir", str(out_dir)]
        )
        run_extract(spec)
        rows = (out_dir / "alpha.csv").read_text().splitlines()
        assert len(rows) == 99
        assert all(len(r.split(",")) == 13 for r in rows)

    def test_partial_failure(self, fixture_dir, tmp_path, capsys):
        truncated = fixture_dir / "gamma.wav"
        truncated.write_bytes(write_wav(tmp_path / "t.wav", tone()).read_bytes()[:100])
        code = main(
            ["--feature", "mfcc", "--input", str(fixture_dir),
             "--output-dir", str(tmp_path / "out")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.strip().splitlines()[-1] == "OK=2 FAIL=1"
        (line,) = captured.err.splitlines()
        assert line.startswith(f"FAIL {truncated}: ")
        assert line.count(str(truncated)) == 1

    def test_determinism(self, fixture_dir, tmp_path):
        outputs = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            for fmt in ("csv", "spfe"):
                spec = parse_config(
                    ["--feature", "lmfe", "--input", str(fixture_dir),
                     "--output-dir", str(out_dir), "--format", fmt,
                     "--postprocess", "cmvn", "--derivatives"]
                )
                run_extract(spec)
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            )
        assert outputs[0] == outputs[1]

    def test_csv_and_spfe_decode_identically(self, fixture_dir, tmp_path):
        out_dir = tmp_path / "out"
        for fmt in ("csv", "spfe"):
            run_extract(parse_config(
                ["--feature", "mfe", "--input", str(fixture_dir / "alpha.wav"),
                 "--output-dir", str(out_dir), "--format", fmt]
            ))
        from_csv = np.array(
            [[float(v) for v in line.split(",")]
             for line in (out_dir / "alpha.csv").read_text().splitlines()]
        )
        np.testing.assert_array_equal(from_csv, read_spfe(out_dir / "alpha.spfe"))

    def test_stem_collision(self, fixture_dir, tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        write_wav(other / "alpha.wav", tone())
        spec = parse_config(
            ["--feature", "mfe",
             "--input", str(fixture_dir / "alpha.wav"), str(other / "alpha.wav"),
             "--output-dir", str(tmp_path / "out")]
        )
        with pytest.raises(OutputCollisionError):
            run_extract(spec)

    def test_stems_differing_in_case_collide(self, tmp_path, capsys):
        # a.csv and A.csv are one file on a case-insensitive filesystem
        for name in ["x/a.wav", "y/A.WAV"]:
            (tmp_path / name).parent.mkdir()
            write_wav(tmp_path / name, tone())
        err = _error_before_any_output(tmp_path, capsys, [
            "--feature", "mfe", "--input", str(tmp_path / "x/a.wav"), str(tmp_path / "y/A.WAV")])
        assert err.startswith("error: inputs ") and "share output stem 'a'" in err

    def test_scan_is_case_insensitive_and_sorted(self, tmp_path):
        wavs = tmp_path / "wavs"
        wavs.mkdir()
        write_wav(wavs / "B.WAV", tone())
        write_wav(wavs / "a.wav", tone())
        (wavs / "notes.txt").write_text("ignored")
        out_dir = tmp_path / "out"
        run_extract(parse_config(
            ["--feature", "mfe", "--input", str(wavs), "--output-dir", str(out_dir)]
        ))
        assert sorted(p.name for p in out_dir.iterdir()) == ["B.csv", "a.csv"]

    @pytest.mark.parametrize("post", ["cmvn", "cmvn_var", "cmvnw", "cmvnw_var"])
    def test_postprocess_modes_run(self, fixture_dir, tmp_path, post):
        out_dir = tmp_path / post
        args = ["--feature", "mfcc", "--input", str(fixture_dir / "alpha.wav"),
                "--output-dir", str(out_dir), "--postprocess", post]
        if post.startswith("cmvnw"):
            args += ["--win-size", "31"]
        assert main(args) == 0
        assert (out_dir / "alpha.csv").exists()

    def test_empty_data_chunk_fails_at_read(self, fixture_dir, tmp_path, capsys):
        empty = write_wav(fixture_dir / "empty.wav", np.zeros(0, np.int16))
        code = main(["--feature", "mfcc", "--input", str(fixture_dir),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"FAIL {empty}: empty data chunk\n"

    def test_absurd_sample_rate_fails_its_file_only(self, tmp_path, capsys):
        wavs = tmp_path / "wavs"
        wavs.mkdir()
        write_wav(wavs / "alpha.wav", tone())
        crafted = _absurd_rate_wav(wavs / "crafted.wav")
        code = main(["--feature", "mfcc", "--input", str(wavs),
                     "--output-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.strip().splitlines()[-1] == "OK=1 FAIL=1"
        (line,) = captured.err.splitlines()
        assert line.startswith(f"FAIL {crafted}: frame length/stride must round to 1 .. 65536")

    def test_absurd_sample_rate_refused_before_framing(self, tmp_path):
        wav = _absurd_rate_wav(tmp_path / "crafted.wav")
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError, match="must round to 1 .. 65536 samples"):
                mfcc(read_wav(wav))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("below", [None, "sub"])
    def test_output_dir_that_is_a_file_exits_2(self, fixture_dir, tmp_path, capsys, below):
        (tmp_path / "outs").mkdir()
        blocker = tmp_path / "outs" / "out"
        blocker.write_bytes(b"not a directory\n")
        out_dir = blocker / below if below else blocker
        code = main(["--feature", "mfcc", "--input", str(fixture_dir),
                     "--output-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert "OK=" not in captured.out
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {out_dir}: ")
        assert blocker.read_bytes() == b"not a directory\n"
        assert list(blocker.parent.iterdir()) == [blocker]
        spec = parse_config(["--feature", "mfcc", "--input", str(fixture_dir),
                             "--output-dir", str(out_dir)])
        with pytest.raises(OutputDirUnwritableError, match=f"^{out_dir}: "):
            run_extract(spec)

    @pytest.mark.parametrize("inputs", [["--input="], ["--input", ""], ["--input", "alpha.wav", ""]])
    def test_empty_input_path_exits_2(self, fixture_dir, tmp_path, capsys, monkeypatch, inputs):
        monkeypatch.chdir(fixture_dir)  # a directory of WAVs: "" must not stand for it
        out_dir = tmp_path / "out"
        code = main(["--feature", "mfe", *inputs, "--output-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: empty input path\n"
        assert not out_dir.exists()
        with pytest.raises(MissingInputError):
            parse_config(["--feature", "mfe", *inputs])

    @pytest.mark.parametrize("given", [["--output-dir="], ["--output-dir", ""], "config"])
    def test_empty_output_dir_exits_2(self, fixture_dir, tmp_path, capsys, monkeypatch, given):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)  # "" must not stand for the current directory
        if given == "config":
            (tmp_path / "job.cfg").write_text("output_dir =\n")
            given = ["--config", str(tmp_path / "job.cfg")]
        code = main(["--feature", "mfe", "--input", str(fixture_dir), *given])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: empty output directory\n"
        assert list(work.iterdir()) == []

    def test_long_stem_gets_its_output(self, tmp_path, capsys):
        # a 244-byte output name fits the usual 255-byte limit, and so must its temporary
        stem = "s" * 240
        wav = write_wav(tmp_path / f"{stem}.wav", tone())
        out_dir = tmp_path / "out"
        assert main(["--feature", "mfe", "--input", str(wav), "--output-dir", str(out_dir)]) == 0
        assert capsys.readouterr().out == "OK=1 FAIL=0\n"
        assert [p.name for p in out_dir.iterdir()] == [f"{stem}.csv"]

    def test_input_directory_without_wavs_exits_2(self, tmp_path, capsys):
        clips = tmp_path / "clips"
        clips.mkdir()
        (clips / "notes.txt").write_text("not audio\n")
        err = _error_before_any_output(tmp_path, capsys,
                                       ["--feature", "mfcc", "--input", str(clips)])
        assert err == "error: no .wav files found in input\n"

    def test_exit_code_2_on_bad_flags(self, capsys):
        assert main(["--feature", "mfcc"]) == 2
        assert "error:" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    wav = write_wav(tmp_path / "clip.wav", tone())
    result = subprocess.run(
        [sys.executable, "-m", "spfeat", "--feature", "mfcc",
         "--input", str(wav), "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip().splitlines()[-1] == "OK=1 FAIL=0"
    assert (tmp_path / "out" / "clip.csv").exists()


class _FakeLibc:
    """Stands in for ctypes.CDLL(None): records each mallopt call, returns result."""

    def __init__(self, result):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


class TestHeapPolicy:
    MIB = 1 << 20

    def _main_ok(self, fixture_dir, tmp_path, capsys):
        argv = ["--feature", "mfcc", "--input", str(fixture_dir), "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "OK=2 FAIL=0"

    def _libc(self, monkeypatch, libc, platform="linux"):
        loaded = []
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: loaded.append(name) or libc)
        return loaded

    def test_main_sets_mmap_then_trim_threshold(self, fixture_dir, tmp_path, capsys, monkeypatch):
        libc = _FakeLibc(1)
        assert self._libc(monkeypatch, libc) == []  # nothing loaded before main()
        self._main_ok(fixture_dir, tmp_path, capsys)
        # M_MMAP_THRESHOLD (-3) first: set alone, M_TRIM_THRESHOLD (-1) would
        # switch glibc's dynamic mmap threshold off
        assert libc.calls == [(-3, 32 * self.MIB), (-1, 64 * self.MIB)]
        assert libc.mallopt.argtypes == (cli.ctypes.c_int, cli.ctypes.c_int)
        assert libc.mallopt.restype is cli.ctypes.c_int

    def test_no_trim_threshold_when_the_first_call_fails(self, fixture_dir, tmp_path, capsys,
                                                         monkeypatch):
        libc = _FakeLibc(0)
        self._libc(monkeypatch, libc)
        self._main_ok(fixture_dir, tmp_path, capsys)
        assert libc.calls == [(-3, 32 * self.MIB)]

    def test_libc_without_mallopt(self, fixture_dir, tmp_path, capsys, monkeypatch):
        loaded = self._libc(monkeypatch, object())
        self._main_ok(fixture_dir, tmp_path, capsys)
        assert loaded == [None]

    @pytest.mark.parametrize("platform", ["darwin", "win32"])
    def test_nothing_loaded_off_linux(self, fixture_dir, tmp_path, capsys, monkeypatch, platform):
        libc = _FakeLibc(1)
        loaded = self._libc(monkeypatch, libc, platform)
        self._main_ok(fixture_dir, tmp_path, capsys)
        assert loaded == [] and libc.calls == []


def test_huge_win_size_exits_2_without_allocating(tmp_path):
    # it once reached np.pad and died with NumPy's raw allocation error, exit 1
    wav = write_wav(tmp_path / "clip.wav", tone())
    result = subprocess.run(
        [sys.executable, "-m", "spfeat", "--feature", "mfcc", "--input", str(wav),
         "--output-dir", str(tmp_path / "out"), "--postprocess", "cmvnw",
         "--win-size", "1099511627777"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "error: win_size must be odd and in [3, 65535], got 1099511627777\n"
    )
    assert not (tmp_path / "out").exists()
