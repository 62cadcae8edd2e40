import struct
import subprocess
import sys

import numpy as np
import pytest

from spfeat.cli import (
    JobSpec,
    main,
    parse_config,
    run_extract,
    write_csv,
    write_spfe,
)
from spfeat.errors import (
    InvalidValueError,
    MissingInputError,
    OutputCollisionError,
    UnknownKeyError,
)
from spfeat.features import FeatureConfig, FeatureMatrix

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
        with pytest.raises(InvalidValueError):
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
        with pytest.raises(InvalidValueError):
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

    @pytest.mark.parametrize("feature", ["mfe", "lmfe"])
    def test_dc_elimination_rule_is_mfcc_only(self, fixture_dir, tmp_path, capsys, feature):
        # mfe and lmfe have no cepstra, so the flag changes nothing there
        code = main(["--feature", feature, "--input", str(fixture_dir),
                     "--output-dir", str(tmp_path / "out"),
                     "--dc-elimination", "--num-cepstral", "40"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "OK=2 FAIL=0"


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
        write_spfe(FeatureMatrix(data=matrix, kind="mfcc"), path)
        np.testing.assert_array_equal(read_spfe(path), matrix)


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
