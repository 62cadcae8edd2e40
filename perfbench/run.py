"""spfeat benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload corpus_csv --seed 1 --seconds 25 --trace 0

Workloads (single caller, closed loop, serial):

* ``loader_short``: in-process library use, as in a training data loader.
  ``mfcc`` -> ``extract_derivative`` -> ``cmvn(variance_normalization=True)``
  on in-memory 0.5-4 s clips at 16 kHz (512-point FFT) and 8 kHz (256).
  Per-call fixed costs dominate; a plan or filterbank cache shows here.
* ``corpus_csv``: ``python -m spfeat ... --postprocess cmvn_var --format csv``
  over a directory of 2-20 s WAVs with planted bad files.  Text output,
  WAV parsing, per-file overhead and failure isolation carry weight.
* ``longform_spfe``: ``python -m spfeat ... --postprocess cmvnw_var --format
  spfe`` over a few 60-150 s recordings.  The FFT and ``cmvnw`` do nearly
  all the work, and peak memory grows with file length.
* ``all``: the three above in turn, one summary line each.

Every measured process is fresh: the loader loop runs in one child
interpreter per run, and each CLI invocation is its own process, so no
cache carries over from an earlier run.  With ``--trace 0`` the last
stdout line holds the end-to-end metrics listed in BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics from spans recorded around
the calls into each module (see tracing.py).  Outputs are checked against
an independent reference (reference.py) on every run; any mismatch makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import struct
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import reference

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

WORKLOADS = ("loader_short", "corpus_csv", "longform_spfe")
LAYERS = ("audio_io", "preprocess", "spectrum", "mel_filterbank", "features", "postprocess", "cli")

# Set-up is short and noisy, so each run measures it this many times and reports the median.
SETUP_REPEATS = 9
# The workloads are serial: BLAS pools in the measured processes get one
# thread, so a run does not depend on whether the other core is free.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The tail percentile is fixed per workload, so it means the same thing on every
# commit: the highest round percentile that leaves at least ten samples beyond
# it at the seed's speed with 25 s runs (a faster program only adds samples).
# longform_spfe processes too few files for that rule and reports the maximum.
TAIL_PERCENTILE = {"loader_short": 98.0, "corpus_csv": 90.0, "longform_spfe": 100.0}
CHILD_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 140.0

COMMON_FLAGS = ["--feature", "mfcc", "--window", "hamming", "--derivatives"]
CLI_FLAGS = {
    "corpus_csv": COMMON_FLAGS + ["--postprocess", "cmvn_var", "--format", "csv"],
    "longform_spfe": COMMON_FLAGS + ["--postprocess", "cmvnw_var", "--format", "spfe"],
}
CLI_FFT_LENGTH = 512

# Spans that must fire in every traced pass of a workload.
_PIPELINE_SPANS = (
    "preprocess.pre_emphasis", "preprocess.stack_frames", "preprocess.apply_window",
    "spectrum.power_spectrum", "mel_filterbank.build_filterbank",
    "features.mfe", "features.lmfe", "features.mfcc", "features.extract_derivative",
)
EXPECTED_SPANS = {
    "loader_short": _PIPELINE_SPANS + ("postprocess.cmvn",),
    "corpus_csv": _PIPELINE_SPANS + ("audio_io.read_wav", "postprocess.cmvn", "cli.write_csv", "cli.main"),
    "longform_spfe": _PIPELINE_SPANS + ("audio_io.read_wav", "postprocess.cmvnw", "cli.write_spfe", "cli.main"),
}


class BenchError(Exception):
    """The benchmark itself cannot run here (missing sources, a child that crashed, ...)."""


@dataclass
class Checks:
    """Outcome bookkeeping: items attempted, wrong outcomes, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def item(self, problem: str | None, count: int = 1):
        self.attempted += count
        if problem:
            self.failed += count
            self.problem(problem)

    def problem(self, text: str):
        if len(self.problems) < 20:
            self.problems.append(text)
        elif len(self.problems) == 20:
            self.problems.append("... further problems not shown")


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    started: float
    checks: Checks = field(default_factory=Checks)
    info: dict = field(default_factory=dict)

    def out_of_time(self) -> bool:
        return perf_counter() - self.started > RUN_DEADLINE_S


def run_child(ctx: Context, argv: list[str], tag: str) -> Child:
    """Run one process to completion; wall time and peak RSS come from its own rusage."""
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out_path, err_path = ctx.work / f"{tag}.stdout", ctx.work / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def child_argv(*args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def latency_metrics(ctx: Context, latencies_s: list[float]) -> dict:
    pct = TAIL_PERCENTILE[ctx.workload]
    ms = np.asarray(latencies_s) * 1e3
    ctx.info["latency"] = {
        "samples": int(ms.size),
        "tail_percentile": pct,
        "samples_beyond_tail": int(round(ms.size * (100.0 - pct) / 100.0)),
    }
    return {"call_ms_p50": float(np.median(ms)), "call_ms_tail": float(np.percentile(ms, pct))}


# --- per-layer metrics --------------------------------------------------------

def layer_metrics(stats: dict, names: list[str]) -> dict:
    """Per-layer values for one traced pass, from the tracer's span stats."""
    spectrum = stats.get("spectrum.power_spectrum", {})
    out = {}
    for name in names:
        if name == "spectrum.rows":
            out[name] = spectrum.get("rows", 0)
        elif name == "spectrum.gflop_nominal":
            out[name] = spectrum.get("gflop", 0.0)
        elif name == "spectrum.gflops":
            seconds = spectrum.get("self", 0.0)
            out[name] = spectrum.get("gflop", 0.0) / seconds if seconds else 0.0
        else:
            span, _, fld = name.rpartition(".")
            if span in ("trace", "src_lines") or fld in ("files_ok", "files_failed"):
                continue
            st = stats.get(span, {})
            out[name] = st.get("self", 0.0) * 1e3 if fld == "self_ms" else st.get(fld, 0)
    return out


def check_spans(ctx: Context, stats: dict, where: str):
    for span in EXPECTED_SPANS[ctx.workload]:
        if stats.get(span, {}).get("calls", 0) == 0:
            ctx.checks.problem(f"{where}: span {span} never fired; a name the tracer wraps was rebound")


def median_metrics(passes: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def src_lines() -> dict:
    pkg = SRC / "spfeat"
    counts = {}
    for path in sorted(pkg.glob("*.py")):
        with open(path, "rb") as fh:
            counts[path.stem] = sum(1 for _ in fh)
    out = {f"src_lines.{m}": counts.get(m, 0) for m in LAYERS}
    out["src_lines.total"] = sum(counts.values())
    return out


def trace_summary(ctx: Context, traced: list[dict], plain_walls: list[float],
                  traced_walls: list[float], coverage: list[float], names: list[str]) -> dict:
    metrics = median_metrics(traced)
    metrics["trace.coverage_pct"] = 100.0 * statistics.median(coverage)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0)
    metrics.update(src_lines())
    ctx.info["passes"] = {"plain": len(plain_walls), "traced": len(traced_walls)}
    for name in names:
        metrics.setdefault(name, 0)
    return metrics


# --- loader_short ---------------------------------------------------------------

def save_pool(path: Path, clips: list[inputs.Clip]):
    rates = [c.sampling_frequency for c in clips]
    np.savez(path, rates=rates, fft_lengths=[inputs.LOADER_FFT_LENGTH[fs] for fs in rates],
             **{f"clip{i}": c.mono() for i, c in enumerate(clips)})


def loader_reference(clip: inputs.Clip) -> tuple[np.ndarray, np.ndarray]:
    fft_length = inputs.LOADER_FFT_LENGTH[clip.sampling_frequency]
    ceps, energy = reference.mfcc(clip.mono(), clip.sampling_frequency, fft_length)
    return reference.cmvn_var(reference.stacked(ceps)), energy


def loader_mismatch(name: str, got, clip: inputs.Clip) -> str | None:
    want, energy = loader_reference(clip)
    return (reference.mismatch(name, got["out"], want, reference.FEATURE_ATOL, reference.FEATURE_RTOL)
            or reference.mismatch(name + " frame energies", got["energy"], energy, 0.0, reference.ENERGY_RTOL))


def measure_setup(ctx: Context, argv: list[str], check) -> float:
    walls = []
    for r in range(SETUP_REPEATS):
        child = run_child(ctx, argv, f"setup{r}")
        walls.append(child.wall_s)
        ctx.checks.item(check(child))
    ctx.info["setup_walls_s"] = walls
    return statistics.median(walls)


def run_loader(ctx: Context, names: list[str]) -> dict:
    setup_clip = inputs.setup_clip(ctx.seed)
    save_pool(ctx.work / "setup.npz", [setup_clip])

    def check_setup(child: Child) -> str | None:
        if child.code != 0:
            return f"setup child exited {child.code}: {child.stderr.strip()[-300:]}"
        with np.load(ctx.work / "setup_out.npz") as got:
            return loader_mismatch("setup clip", {"out": got["out0"], "energy": got["energy0"]}, setup_clip)

    setup_s = measure_setup(ctx, child_argv("setup-loader", ctx.work / "setup.npz", ctx.work / "setup_out.npz"),
                            check_setup)

    clips = inputs.loader_pool(ctx.seed)
    save_pool(ctx.work / "pool.npz", clips)
    result_path = ctx.work / "loader.json"
    child = run_child(ctx, child_argv("loader", ctx.work / "pool.npz", ctx.work / "warm.npz", result_path,
                                      ctx.seconds, int(ctx.trace)), "loader")
    if child.code != 0:
        raise BenchError(f"loader child exited {child.code}: {child.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())

    # The warm-up output of every clip is checked against the reference; every
    # timed call must reproduce it exactly (checked in the child).
    with np.load(ctx.work / "warm.npz") as warm:
        for i, clip in enumerate(clips):
            problem = loader_mismatch(clip.name, {"out": warm[f"out{i}"], "energy": warm[f"energy{i}"]}, clip)
            ctx.checks.item(problem)
            ctx.checks.item(problem, result["calls"][i] - result["differs"][i])
            ctx.checks.item(f"{clip.name}: a repeated call gave a different output" if result["differs"][i] else None,
                            result["differs"][i])

    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    if ctx.trace:
        traced = [p for p in passes if p["traced"]]
        for p in traced:
            check_spans(ctx, p["stats"], "loader pass")
        return trace_summary(
            ctx,
            [layer_metrics(p["stats"], names) for p in traced],
            [p["wall_s"] for p in plain],
            [p["wall_s"] for p in traced],
            [p["top_s"] / p["wall_s"] for p in traced],
            names,
        )

    ctx.info["pass_walls_s"] = [round(p["wall_s"], 4) for p in plain]
    ctx.info["samples"] = {"setup_s": SETUP_REPEATS, "audio_s_per_s": len(plain), "peak_rss_mb": 1}
    return {
        "setup_s": setup_s,
        "audio_s_per_s": statistics.median(result["audio_s"] / p["wall_s"] for p in plain),
        **latency_metrics(ctx, [t for p in plain for t in p["latencies"]]),
        "peak_rss_mb": child.peak_rss_mb,
    }


# --- CLI workloads --------------------------------------------------------------

_SUMMARY = re.compile(r"^OK=(\d+) FAIL=(\d+)$")


def write_inputs(directory: Path, good: list[inputs.Clip], bad: list[inputs.BadFile]):
    directory.mkdir(parents=True)
    for clip in good:
        (directory / f"{clip.name}.wav").write_bytes(inputs.wav_bytes(clip.samples, clip.sampling_frequency))
    for b in bad:
        (directory / f"{b.name}.wav").write_bytes(b.data)


def read_output(path: Path, fmt: str) -> np.ndarray:
    if fmt == "csv":
        lines = path.read_text().splitlines()
        return np.array([line.split(",") for line in lines], dtype=np.float64)
    blob = path.read_bytes()
    magic, version, reserved, rows, cols = struct.unpack_from("<4sHHII", blob, 0)
    if (magic, version, reserved) != (b"SPFE", 1, 0) or len(blob) != 16 + 8 * rows * cols:
        raise ValueError(f"bad SPFE header {magic!r} v{version} r{reserved} {rows}x{cols}, {len(blob)} bytes")
    return np.frombuffer(blob, dtype="<f8", offset=16).reshape(rows, cols)


def output_mismatch(workload: str, path: Path, clip: inputs.Clip, rng: np.random.Generator) -> str | None:
    fmt = path.suffix[1:]
    try:
        got = read_output(path, fmt)
    except (OSError, ValueError, struct.error) as exc:
        return f"{path.name}: unreadable output: {exc}"
    ceps, _ = reference.mfcc(clip.mono(), clip.sampling_frequency, CLI_FFT_LENGTH)
    x = reference.stacked(ceps)
    if workload == "corpus_csv":
        return reference.mismatch(path.name, got, reference.cmvn_var(x), reference.FEATURE_ATOL, reference.FEATURE_RTOL)
    rows = reference.sample_rows(x.shape[0], rng)
    return (reference.mismatch(path.name, got, reference.cmvnw_var(x), reference.FEATURE_ATOL, reference.FEATURE_RTOL)
            or reference.mismatch(f"{path.name} sampled rows", got[rows], reference.cmvnw_var_rows(x, rows),
                                  reference.FEATURE_ATOL, reference.FEATURE_RTOL))


def invocation_outcome(child: Child, out_dir: Path, fmt: str, expect_ok: set, expect_fail: set) -> tuple:
    """Per-file digests (None where no output) and problems with the run as a whole."""
    problems = []
    want_code = 1 if expect_fail else 0
    if child.code != want_code:
        problems.append(f"exit code {child.code}, expected {want_code}: {child.stderr.strip()[-300:]}")
    lines = child.stdout.strip().splitlines()
    summary = _SUMMARY.match(lines[-1]) if lines else None
    if not summary or (int(summary[1]), int(summary[2])) != (len(expect_ok), len(expect_fail)):
        problems.append(f"summary {lines[-1] if lines else ''!r}, expected OK={len(expect_ok)} FAIL={len(expect_fail)}")
    failed = {Path(line[5:].split(": ", 1)[0]).stem for line in child.stderr.splitlines() if line.startswith("FAIL ")}
    outputs = {p.stem: p for p in out_dir.iterdir()} if out_dir.is_dir() else {}
    digests = {}
    for name in expect_ok | expect_fail:
        path = outputs.get(name)
        digests[name] = None
        if name in failed:
            digests[name] = "FAIL"
        elif path is not None and path.suffix == f".{fmt}":
            digests[name] = hashlib.blake2b(path.read_bytes()).hexdigest()
    extra = set(outputs) - expect_ok
    if extra:
        problems.append(f"unexpected files in the output directory: {sorted(extra)}")
    return digests, problems


def file_outcome(got: str | None, verified: str | None, planted_bad: bool) -> str | None:
    """What is wrong with one file's outcome (a digest, "FAIL" or None), if anything."""
    if planted_bad:
        return None if got == "FAIL" else "planted bad file not reported FAIL"
    if got == "FAIL":
        return "unexpected FAIL"
    if got is None:
        return "missing output"
    return None if got == verified else "wrong output"


def run_cli(ctx: Context, names: list[str]) -> dict:
    flags, fmt = CLI_FLAGS[ctx.workload], CLI_FLAGS[ctx.workload][-1]
    rng = np.random.default_rng([ctx.seed, 99])

    setup_clip = inputs.setup_clip(ctx.seed)
    write_inputs(ctx.work / "setup_in", [setup_clip], [])
    setup_out = ctx.work / "setup_out"

    def check_setup(child: Child) -> str | None:
        try:
            _, problems = invocation_outcome(child, setup_out, fmt, {setup_clip.name}, set())
            return "; ".join(problems) or output_mismatch(
                ctx.workload, setup_out / f"{setup_clip.name}.{fmt}", setup_clip, rng)
        finally:
            shutil.rmtree(setup_out, ignore_errors=True)

    setup_s = measure_setup(
        ctx,
        [sys.executable, "-m", "spfeat", *flags, "--input", str(ctx.work / "setup_in"), "--output-dir", str(setup_out)],
        check_setup,
    )

    if ctx.workload == "corpus_csv":
        good, bad = inputs.corpus(ctx.seed)
    else:
        good, bad = inputs.longform(ctx.seed), []
    in_dir, out_dir = ctx.work / "in", ctx.work / "out"
    write_inputs(in_dir, good, bad)
    expect_ok, expect_fail = {c.name for c in good}, {b.name for b in bad}
    audio_per_invocation = sum(c.seconds for c in good)
    ctx.info["batch"] = {"files": len(good) + len(bad), "planted_bad": {b.name: b.kind for b in bad},
                         "audio_s": audio_per_invocation}

    runs = []  # (traced, child, result json, digests)
    measured = 0.0
    while not runs or measured < ctx.seconds or (ctx.trace and len(runs) < 2):
        if ctx.out_of_time():
            ctx.checks.problem("run deadline reached before the measurement window closed")
            break
        traced = ctx.trace and len(runs) % 2 == 1
        if out_dir.exists():
            shutil.rmtree(out_dir)
        result_path = ctx.work / "cli.json"
        child = run_child(ctx, child_argv("cli", result_path, int(traced), *flags, "--input", str(in_dir),
                                          "--output-dir", str(out_dir)), f"cli{len(runs)}")
        if not result_path.exists():
            raise BenchError(f"CLI child exited {child.code} without a result: {child.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        digests, problems = invocation_outcome(child, out_dir, fmt, expect_ok, expect_fail)
        for p in problems:
            ctx.checks.problem(f"invocation {len(runs)}: {p}")
        runs.append((traced, child, result, digests))
        measured += child.wall_s

    # The last invocation's outputs are checked against the reference; every
    # invocation must have produced the same bytes, and FAIL exactly where planted.
    verified = {}
    last = runs[-1][3]
    for clip in good:
        if last[clip.name] in (None, "FAIL"):
            continue
        problem = output_mismatch(ctx.workload, out_dir / f"{clip.name}.{fmt}", clip, rng)
        if problem:
            ctx.checks.problem(problem)
        else:
            verified[clip.name] = last[clip.name]
    for i, (_, _, _, digests) in enumerate(runs):
        for name in sorted(expect_ok | expect_fail):
            problem = file_outcome(digests[name], verified.get(name), name in expect_fail)
            ctx.checks.item(problem and f"invocation {i}: {name}: {problem}")

    plain = [(c, r) for t, c, r, _ in runs if not t]
    ctx.info["invocations"] = len(runs)
    ctx.info["invocation_walls_s"] = [round(c.wall_s, 4) for _, c, _, _ in runs]
    ctx.info["peak_rss_mb_each"] = [round(c.peak_rss_mb, 1) for _, c, _, _ in runs]
    if ctx.trace:
        traced = [(c, r) for t, c, r, _ in runs if t]
        metrics = []
        for c, r in traced:
            check_spans(ctx, r["stats"], "traced invocation")
            m = layer_metrics(r["stats"], names)
            summary = _SUMMARY.match(c.stdout.strip().splitlines()[-1]) if c.stdout.strip() else None
            m["cli.files_ok"], m["cli.files_failed"] = (int(summary[1]), int(summary[2])) if summary else (0, 0)
            metrics.append(m)
        return trace_summary(ctx, metrics, [c.wall_s for c, _ in plain], [c.wall_s for c, _ in traced],
                             [r["top_s"] / c.wall_s for c, r in traced], names)

    latencies = []
    files = len(good) + len(bad)
    ctx.info["samples"] = {"setup_s": SETUP_REPEATS, "audio_s_per_s": len(plain), "peak_rss_mb": len(plain)}
    for c, r in plain:
        stamps = r["stamps"]
        if len(stamps) != files:
            raise BenchError(f"read_wav hook saw {len(stamps)} calls for {files} files; the CLI no longer "
                             "looks up spfeat.cli.read_wav per file")
        latencies += list(np.diff(stamps + [r["end"]]))
    return {
        "setup_s": setup_s,
        "audio_s_per_s": statistics.median(audio_per_invocation / c.wall_s for c, _ in plain),
        **latency_metrics(ctx, latencies),
        "peak_rss_mb": max(c.peak_rss_mb for c, _ in plain),
    }


# --- entry point --------------------------------------------------------------

def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across NumPy versions
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"]}


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[Context, dict]:
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ctx = Context(workload, seed, seconds, trace, work, perf_counter())
    listed = spec["per_layer" if trace else "end_to_end"]
    try:
        runner = run_loader if workload == "loader_short" else run_cli
        values = runner(ctx, [m["name"] for m in listed])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in listed}
    return ctx, metrics


def report(ctx: Context, metrics: dict) -> dict:
    checks = ctx.checks
    for problem in checks.problems:
        print(f"CHECK FAILED [{ctx.workload}] {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{ctx.workload:14s} {name:40s} {m['value']:14.6g} {m['unit']}")
    fail_ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"{ctx.workload:14s} {'fail_ratio':40s} {fail_ratio:14.6g} ({checks.failed}/{checks.attempted})")
    info = dict(workload=ctx.workload, seed=ctx.seed, seconds=ctx.seconds, trace=int(ctx.trace),
                machine=machine_info(), src_lines=src_lines(), fail_ratio=fail_ratio, **ctx.info)
    print(json.dumps({"info": info}))
    return {"correct": not checks.problems and checks.failed == 0 and checks.attempted > 0,
            "attempted": max(checks.attempted, 1), "failed": checks.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spfeat" / "__init__.py").is_file():
        print(f"error: no spfeat sources under {SRC}; run from the root of a repository checkout", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        results = []
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            ctx, metrics = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
            results.append(report(ctx, metrics))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[0] if len(results) == 1 else {"workloads": dict(zip(WORKLOADS, results))}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
