"""Batch extraction tool: WAV files in, feature matrices out.

Usage:

    extract --feature mfcc --input clips/ --output-dir feats --format csv

One output file per input, named after the input stem.  A corrupt file
never aborts the batch; failures go to stderr and the final stdout line
is the machine-readable summary ``OK=<n> FAIL=<m>``.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import struct
import sys
from contextlib import contextmanager
from dataclasses import Field, dataclass, fields
from pathlib import Path

import numpy as np

from . import postprocess
from ._csvfmt import csv_chunks
from .audio_io import read_wav
from .errors import (
    CliError,
    InvalidParameterError,
    InvalidValueError,
    MissingInputError,
    OutputCollisionError,
    OutputDirUnwritableError,
    SpfeatError,
    UnknownKeyError,
)
from .features import FeatureConfig, extract_derivative, lmfe, mfcc, mfe
from .preprocess import WINDOW_TYPES

_FEATURE_FNS = {"mfcc": mfcc, "mfe": mfe, "lmfe": lmfe}

SPFE_MAGIC = b"SPFE"
SPFE_VERSION = 1

_FIELDS = {f.name: f for f in fields(FeatureConfig)}

# option -> (FeatureConfig field, or the default of a CLI-only option; value
# type or tuple of choices).  Flags, config-file keys and defaults come from
# here.  A bool flag flips its default: --dc-elimination, --no-zero-padding.
_OPTIONS = {
    "feature": (None, tuple(_FEATURE_FNS)),
    "input": ((), list),
    "output_dir": (".", str),
    "format": ("csv", ("csv", "spfe")),
    "frame_length": (_FIELDS["frame_length_s"], float),
    "frame_stride": (_FIELDS["frame_stride_s"], float),
    "fft_length": (_FIELDS["fft_length"], int),
    "num_filters": (_FIELDS["num_filters"], int),
    "num_cepstral": (_FIELDS["num_cepstral"], int),
    "low_freq": (_FIELDS["low_freq"], float),
    "high_freq": (_FIELDS["high_freq"], float),
    "window": (_FIELDS["window"], WINDOW_TYPES),
    "pre_emphasis": (_FIELDS["alpha"], float),
    "dc_elimination": (_FIELDS["dc_elimination"], bool),
    "zero_padding": (_FIELDS["zero_padding"], bool),
    "postprocess": ("none", ("none", "cmvn", "cmvn_var", "cmvnw", "cmvnw_var")),
    "win_size": (postprocess.DEFAULT_WIN_SIZE, int),
    "derivatives": (False, bool),
}


@dataclass
class JobSpec:
    # the options that are not FeatureConfig fields, under their own names
    feature: str
    input: list[str]
    output_dir: str
    format: str
    postprocess: str
    win_size: int
    derivatives: bool
    config: FeatureConfig


@dataclass
class Summary:
    files_ok: int
    files_failed: int


_SWITCH_WORDS = {"true": True, "1": True, "on": True, "yes": True,
                 "false": False, "0": False, "off": False, "no": False}


class _Parser(argparse.ArgumentParser):
    # raise instead of calling sys.exit so the CLI owns its exit codes
    def error(self, message):
        raise InvalidValueError(message)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> _Parser:
    parser = _Parser(prog="extract", description="Batch speech feature extraction")
    for name, (source, kind) in _OPTIONS.items():
        default = source.default if isinstance(source, Field) else source
        parser.set_defaults(**{name: default})
        flag = _flag(name)
        if kind is bool:
            flag = "--no-" + flag[2:] if default else flag
            parser.add_argument(flag, dest=name, action="store_const", const=not default)
        elif kind is list:
            parser.add_argument(flag, dest=name, nargs="+", metavar="PATH")
        elif isinstance(kind, tuple):
            parser.add_argument(flag, dest=name, choices=kind)
        else:
            parser.add_argument(flag, dest=name, type=kind)
    parser.add_argument("--config", metavar="FILE")
    return parser


def _read_config_file(path, parser: _Parser) -> dict:
    """Line-oriented ``key = value`` file; '#' starts a comment.  A value reads
    as its flag does: a switch takes a word of _SWITCH_WORDS, input splits."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidValueError(f"cannot read config file {path}: {exc}") from exc

    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        dest = key.replace("-", "_")
        if dest not in _OPTIONS:
            raise UnknownKeyError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _OPTIONS[dest][1]
        try:
            if kind is list:
                values[dest] = value.split()
            elif kind is bool:
                if value.lower() not in _SWITCH_WORDS:
                    raise InvalidValueError(f"not a boolean: {value!r}")
                values[dest] = _SWITCH_WORDS[value.lower()]
            else:  # the = form keeps a leading '-' as the value
                values[dest] = getattr(parser.parse_args([f"{_flag(dest)}={value}"]), dest)
        except InvalidValueError as exc:
            raise InvalidValueError(f"{path}:{lineno}: {key}: {exc}") from exc
    return values


def parse_config(argv) -> JobSpec:
    """Resolve flags over config-file values over defaults; validate once."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        # config-file values replace the defaults, so flags still win
        parser.set_defaults(**_read_config_file(args.config, parser))
        args = parser.parse_args(argv)

    if args.feature is None:
        raise InvalidValueError("--feature is required")
    if not args.input:
        raise MissingInputError("no input files given")
    if "" in args.input:  # Path("") would be the current directory
        raise MissingInputError("empty input path")
    try:
        if args.postprocess.startswith("cmvnw"):
            postprocess.validate_win_size(args.win_size)
        config = FeatureConfig(**{src.name: getattr(args, name) for name, (src, _)
                                  in _OPTIONS.items() if isinstance(src, Field)})
        if args.feature == "mfcc":
            config.validate_dc_elimination()
    except InvalidParameterError as exc:
        raise InvalidValueError(str(exc)) from exc
    return JobSpec(config=config, **{name: getattr(args, name) for name, (src, _)
                                     in _OPTIONS.items() if not isinstance(src, Field)})


@contextmanager
def _replacing(path):
    """A binary file that becomes ``path`` only once it is complete.

    It is written under a hidden name in the same directory and renamed
    onto ``path`` when the block exits normally.  On any exception it is
    removed and ``path`` is left as it was: missing, or an earlier output.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "xb")  # not mkstemp: keep the usual mode, not 0600
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(matrix, path) -> None:
    """One line per row, each value exactly as Python's repr prints it, no header."""
    with _replacing(path) as fh:
        fh.writelines(csv_chunks(matrix))


def write_spfe(matrix, path) -> None:
    """Binary layout: 'SPFE', u16 version, u16 reserved, u32 rows, u32 cols,
    then row-major little-endian float64 values."""
    data = np.asarray(matrix)
    rows, cols = data.shape
    header = struct.pack("<4sHHII", SPFE_MAGIC, SPFE_VERSION, 0, rows, cols)
    with _replacing(path) as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(data, dtype="<f8"))


def _expand_inputs(inputs: list[Path]) -> list[Path]:
    if len(inputs) == 1 and inputs[0].is_dir():
        return sorted(
            (p for p in inputs[0].iterdir() if p.suffix.lower() == ".wav"),
            key=lambda p: p.name,
        )
    return inputs


def _process_file(wav_path: Path, spec: JobSpec, out_path: Path) -> None:
    # the one unwrap: from here only arrays flow, and the signal is already freed
    features = _FEATURE_FNS[spec.feature](read_wav(wav_path), spec.config).data
    if spec.derivatives:
        features = extract_derivative(features)
    if spec.postprocess != "none":
        # "cmvnw_var" -> postprocess.cmvnw(..., variance_normalization=True)
        name, _, var = spec.postprocess.partition("_")
        extra = {"win_size": spec.win_size} if name == "cmvnw" else {}
        normalize = getattr(postprocess, name)
        features = normalize(features, variance_normalization=bool(var), **extra)
    # positional: the benchmark's byte counters read the path as args[1]
    if spec.format == "csv":
        write_csv(features, out_path)
    else:
        write_spfe(features, out_path)


def run_extract(spec: JobSpec) -> Summary:
    """Process every input file, isolating per-file failures."""
    files = _expand_inputs([Path(p) for p in spec.input])
    if not files:
        raise MissingInputError("no .wav files found in input")

    stems = {}  # casefolded: a.csv and A.csv are one file on a case-insensitive filesystem
    for path in files:
        stem = path.stem.casefold()
        if stem in stems:
            raise OutputCollisionError(
                f"inputs {stems[stem]} and {path} share output stem {stem!r}, ignoring case"
            )
        stems[stem] = path

    output_dir = Path(spec.output_dir)
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        probe = output_dir / ".write-probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise OutputDirUnwritableError(f"{output_dir}: {exc}") from exc

    ok = failed = 0
    for path in files:
        out_path = output_dir / f"{path.stem}.{spec.format}"
        try:
            _process_file(path, spec, out_path)
            ok += 1
        except (SpfeatError, OSError) as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            failed += 1
    print(f"OK={ok} FAIL={failed}")
    return Summary(files_ok=ok, files_failed=failed)


# mallopt(3) parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Stop glibc from handing each file's freed temporaries back to the kernel.

    glibc's dynamic thresholds (mallopt(3)) return the freed top of the heap
    once it exceeds twice the largest mmapped block freed so far, so every
    file's multi-MB arrays fault in again for the next.  On a 19-file batch
    of 2-20 s clips to CSV (glibc 2.36, x86-64) one run took 22,800 minor
    faults, 4,500 of them start-up, and 7,500 with this policy.  32 MiB is
    the ceiling of glibc's own mmap threshold on 64-bit and 64 MiB its 2x
    trim rule there.  The trim threshold alone switches the dynamic mmap
    threshold off (30,100 faults), so it follows only a successful first
    call.  A policy of the process: the library never sets it.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    try:
        spec = parse_config(sys.argv[1:] if argv is None else argv)
        summary = run_extract(spec)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if summary.files_failed == 0 else 1
