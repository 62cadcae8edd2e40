"""The CLI's exit-code and output contract, over generated runs.

Each run draws its argv and ``key = value`` config-file lines from
``cli._OPTIONS``, bad values included, and a batch of WAVs, each a valid
file put through structure-aware mutations: chunk sizes, fmt fields,
chunk order, pad bytes, duplicate and missing chunks, truncation.
Whatever is drawn:

* the exit code is 0, 1 or 2, and no exception escapes ``main``;
* on 0 or 1 the last stdout line is ``OK=<n> FAIL=<m>``, and each input
  has either a complete output file or one ``FAIL`` line;
* on 2 stderr is one ``error:`` line, stdout has no ``OK=`` line, and no
  output file is written;
* no hidden temporary file is left in the output directory.

``tests/test_audio_io.py::TestReadWav::test_fuzz_never_crashes`` covers
raw bytes; the WAVs here stay close enough to valid ones to reach the
feature pipeline.
"""

import io
import re
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import Field
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spfeat.cli as cli
from spfeat.audio_io import read_wav
from spfeat.preprocess import stack_frames

from conftest import read_spfe

STEMS = ("a", "b", "c")
BAD_VALUES = {
    float: ["nan", "inf", "-inf", "-1", "0", "1e400", "abc", "", "0x10"],
    int: ["2.5", "-1", "0", "abc", "", "1e3", "99999999999999999999"],
    bool: ["maybe", "2", ""],
    tuple: ["", "bogus", "MFCC"],
}
BAD_LINES = ["bogus = 1", "no equals sign", "= 3"]
BAD_ARGS = [["--bogus"], ["--feature"], ["stray"], ["--config", "missing.cfg"]]

# the u32 and u16 values most likely to cross a reader's limits
U32_EDGES = (0, 1, 2, 3, 8, 16, 24, 32, 0xFFFE, 0xFFFF, 8000, 16000, 44100, 200_000_000,
             0x7FFFFFFF, 0xFFFFFFFF)
FMT_FIELDS = "<HHIIHH"  # format, channels, rate, byte rate, block align, bits per sample


def _default(name):
    source = cli._OPTIONS[name][0]
    return source.default if isinstance(source, Field) else source


def _numbers(default, kind):
    if default is None:
        return [1000.0, 4000.0, 8000.0]
    return sorted({kind(default), kind(default * 2), kind(default / 2)})


def _good_values(name):
    """Values of the option's own type and range; together they may still clash."""
    kind = cli._OPTIONS[name][1]
    if kind is bool:
        return st.sampled_from(sorted(cli._SWITCH_WORDS))
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    return st.sampled_from(_numbers(_default(name), kind)).map(repr)


def _bad_values(name):
    kind = cli._OPTIONS[name][1]
    return st.sampled_from(BAD_VALUES[tuple if isinstance(kind, tuple) else kind])


DRAWN = [name for name, (_, kind) in cli._OPTIONS.items() if kind not in (list, str)]


@st.composite
def settings_of(draw, config_path):
    """(argv, config-file lines) for every option but input and output_dir."""
    bad = set(draw(st.lists(st.sampled_from(DRAWN), max_size=draw(st.sampled_from([0, 0, 1, 2])),
                            unique=True)))
    args, lines = [], []  # args: one flag with its value per item
    for name in DRAWN:
        kind = cli._OPTIONS[name][1]
        # the feature is there in most runs, so most runs reach the files
        place = draw(st.sampled_from(["argv", "config"] if name == "feature" and not bad
                                     else [None, None, "argv", "config"]))
        if place is None and name not in bad:
            continue
        value = draw(_bad_values(name) if name in bad else _good_values(name))
        flag = cli._flag(name)
        if place == "config" or (place is None and draw(st.booleans())):
            key = draw(st.sampled_from([name, name.replace("_", "-")]))
            lines.append(f"{key} = {value}")
        elif kind is bool:
            if name in bad:
                args.append([f"{flag}={value}"])  # a switch takes no value
            elif cli._SWITCH_WORDS[value] != _default(name):  # the word flips the switch
                args.append(["--no-" + flag[2:] if _default(name) else flag])
        elif draw(st.booleans()):
            args.append([f"{flag}={value}"])
        else:
            args.append([flag, value])
    if draw(st.sampled_from([False, False, False, True])):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(BAD_LINES)))
        else:
            args.append(draw(st.sampled_from(BAD_ARGS)))
    if lines:
        args.append(["--config", str(config_path)])
    return [arg for group in draw(st.permutations(args)) for arg in group], lines


@st.composite
def wav_files(draw):
    """A valid 16-bit PCM WAV, then up to three structure-aware mutations."""
    channels = draw(st.sampled_from([1, 2]))
    rate = draw(st.sampled_from([8000, 16000]))
    frames = draw(st.integers(0, 2400))
    samples = np.random.default_rng(draw(st.integers(0, 2**16))).integers(
        -2**15, 2**15, frames * channels, dtype="<i2")
    fmt = struct.pack(FMT_FIELDS, 1, channels, rate, 2 * channels * rate, 2 * channels, 16)
    # [chunk id, body, size field (None: the body's length), pad bytes (None: one if odd)]
    chunks = [[b"fmt ", fmt, None, None], [b"data", samples.tobytes(), None, None]]
    if draw(st.booleans()):
        chunks.insert(draw(st.integers(0, 2)), [b"LIST", b"INFOabc", None, None])
    riff = [b"RIFF", b"WAVE"]
    for op in draw(st.lists(st.sampled_from(
            ["field", "fmt-length", "order", "pad", "odd-data", "duplicate", "missing", "size",
             "header"]), max_size=3)):
        i = draw(st.integers(0, 3)) % len(chunks) if chunks else None
        fmt_chunk = next((c for c in chunks if c[0] == b"fmt "), None)
        if op == "field" and fmt_chunk and len(fmt_chunk[1]) >= 16:
            values = list(struct.unpack_from(FMT_FIELDS, fmt_chunk[1]))
            field = draw(st.integers(0, 5))
            width = 0xFFFFFFFF if FMT_FIELDS[1 + field] == "I" else 0xFFFF
            values[field] = draw(st.sampled_from([v for v in U32_EDGES if v <= width]))
            fmt_chunk[1] = struct.pack(FMT_FIELDS, *values) + fmt_chunk[1][16:]
        elif op == "fmt-length" and fmt_chunk:
            body = fmt_chunk[1]
            fmt_chunk[1] = draw(st.sampled_from([body[:draw(st.integers(0, 15))],
                                                 body + b"\0\0", body + b"\x16\0\xff"]))
        elif op == "order" and len(chunks) > 1:
            j = draw(st.integers(0, len(chunks) - 1))
            chunks[i], chunks[j] = chunks[j], chunks[i]
        elif op == "pad" and chunks:
            chunks[i][3] = draw(st.sampled_from([0, 1, 2]))
        elif op == "odd-data":
            for c in chunks:
                if c[0] == b"data":
                    c[1] = c[1][:-1] if c[1] else b"\0"
        elif op == "duplicate" and chunks:
            chunks.insert(draw(st.integers(0, len(chunks))), list(chunks[i]))
        elif op == "missing" and chunks:
            del chunks[i]
        elif op == "size" and chunks:
            size = len(chunks[i][1])
            chunks[i][2] = draw(st.sampled_from([0, max(size - 1, 0), size + 1, 0xFFFFFFFF,
                                                 0x7FFFFFFF]))
        elif op == "header":
            riff[draw(st.integers(0, 1))] = draw(st.sampled_from([b"RIFX", b"wave", b"\0\0\0\0"]))
    parts = []
    for chunk_id, body, size, pad in chunks:
        size = len(body) if size is None else size
        parts.append(chunk_id + struct.pack("<I", size) + body
                     + b"\0" * ((len(body) & 1) if pad is None else pad))
    blob = riff[1] + b"".join(parts)
    blob = riff[0] + struct.pack("<I", len(blob)) + blob
    if draw(st.sampled_from([False, False, False, True])):  # cut short
        blob = blob[:draw(st.integers(0, len(blob)))]
    return blob


@st.composite
def runs(draw, root):
    """(argv, config-file lines, WAV bytes by stem) of one batch under root."""
    wav_dir, out_dir = root / "wavs", root / "out"
    blobs = dict(zip(STEMS, draw(st.lists(wav_files(), min_size=1, max_size=len(STEMS)))))
    files = [wav_dir / f"{stem}.wav" for stem in blobs]
    if draw(st.sampled_from([False, False, False, True])):
        files.append(wav_dir / "gone.wav")  # named, never written
    elif draw(st.booleans()):
        files = [wav_dir]  # the CLI lists its .wav files, in name order
    inputs = [str(p) for p in files]
    argv, lines = draw(settings_of(root / "job.cfg"))
    if draw(st.booleans()):
        argv += ["--input", *inputs, "--output-dir", str(out_dir)]
    else:
        lines += [f"input = {' '.join(inputs)}", f"output_dir = {out_dir}"]
        if "--config" not in argv:
            argv += ["--config", str(root / "job.cfg")]
    return argv, lines, blobs


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_output(path, spec, wav):
    """The output of wav is whole: one row per frame, one column per feature."""
    config = spec.config
    rows = len(stack_frames(read_wav(wav), config.frame_length_s, config.frame_stride_s,
                            config.zero_padding))
    cols = config.num_cepstral if spec.feature == "mfcc" else config.num_filters
    cols *= 3 if spec.derivatives else 1
    if spec.format == "spfe":
        data = read_spfe(path)
    else:
        text = path.read_text()
        assert text.endswith("\n")
        data = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])
    assert data.shape == (rows, cols)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv, lines, blobs = data.draw(runs(root))
        (root / "wavs").mkdir()
        (root / "wavs" / "notes.txt").write_text("not audio\n")
        for stem, blob in blobs.items():
            (root / "wavs" / f"{stem}.wav").write_bytes(blob)
        if lines:
            (root / "job.cfg").write_text("\n".join(lines) + "\n")

        code, out, err = run_main(argv)
        out_dir = root / "out"
        written = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
        assert not [name for name in written if name.startswith(".")]

        assert code in (0, 1, 2)
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
            assert "OK=" not in out
            assert written == []
            return

        summary = re.fullmatch(r"OK=(\d+) FAIL=(\d+)", out.splitlines()[-1])
        assert summary
        ok, failed = map(int, summary.groups())
        spec = cli.parse_config(argv)
        files = cli._expand_inputs([Path(p) for p in spec.input])
        fail_lines = err.splitlines()
        assert all(line.startswith("FAIL ") for line in fail_lines)
        for wav in files:
            output = out_dir / f"{wav.stem}.{spec.format}"
            fails = [line for line in fail_lines if line.startswith(f"FAIL {wav}: ")]
            if output.name in written:
                assert not fails
                check_output(output, spec, wav)
            else:
                assert len(fails) == 1
        assert (ok, failed) == (len(written), len(fail_lines))
        assert ok + failed == len(files)
        assert code == (1 if failed else 0)
