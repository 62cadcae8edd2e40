"""The process side of one benchmark measurement.

``run.py`` starts this file in a fresh interpreter for every measured
process, so nothing cached in one run carries into the next:

    child.py setup-loader CLIP.npz OUT.npz
        import spfeat and run one loader item (the set-up measurement)
    child.py loader POOL.npz OUT.npz RESULT.json SECONDS TRACE
        the loader_short loop: warm up on the pool, then pass over it
        until SECONDS have passed; with TRACE=1, alternate plain and traced passes
    child.py cli RESULT.json TRACE ARGS...
        one CLI invocation, ``spfeat.cli.main(ARGS)``, as ``python -m
        spfeat`` would run it, plus a per-file timestamp (TRACE=0) or
        layer spans (TRACE=1)
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np

import spfeat
from tracing import Tracer


def loader_config(fft_length: int):
    return spfeat.FeatureConfig(window="hamming", fft_length=fft_length)


def loader_item(signal, config):
    """mfcc -> extract_derivative -> cmvn with variance, as a training data loader runs it."""
    static = spfeat.mfcc(signal, config)
    final = spfeat.cmvn(spfeat.extract_derivative(static), variance_normalization=True)
    return final.data, static.frame_energies


def _load_clips(path):
    with np.load(path) as pool:
        return [
            (spfeat.AudioBuffer(pool[f"clip{i}"], int(fs)), loader_config(int(n)), len(pool[f"clip{i}"]) / fs)
            for i, (fs, n) in enumerate(zip(pool["rates"], pool["fft_lengths"]))
        ]


def setup_loader(clip_path, out_path):
    (signal, config, _), = _load_clips(clip_path)
    data, energies = loader_item(signal, config)
    np.savez(out_path, out0=data, energy0=energies)
    return 0


def _modules():
    import spfeat.cli

    return {
        "spfeat": spfeat,
        "spfeat.features": spfeat.features,
        "spfeat.cli": spfeat.cli,
        "spfeat.postprocess": spfeat.postprocess,
    }


def loader(pool_path, out_path, result_path, seconds, trace):
    clips = _load_clips(pool_path)
    warm = [loader_item(signal, config) for signal, config, _ in clips]
    np.savez(
        out_path,
        **{f"out{i}": data for i, (data, _) in enumerate(warm)},
        **{f"energy{i}": energy for i, (_, energy) in enumerate(warm)},
    )

    calls = [0] * len(clips)
    differs = [0] * len(clips)

    def call(i):
        signal, config, _ = clips[i]
        start = perf_counter()
        data, energy = loader_item(signal, config)
        latency = perf_counter() - start
        calls[i] += 1
        # a repeat must reproduce the warm-up output, which run.py checks
        if not (np.array_equal(data, warm[i][0]) and np.array_equal(energy, warm[i][1])):
            differs[i] += 1
        return latency

    # Whole passes over the pool until SECONDS have passed; with TRACE,
    # plain and traced passes alternate so the overhead can be measured.
    tracer = Tracer()
    modules = _modules() if trace else {}
    passes = []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds or (trace and len(passes) < 2):
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install(modules)
        start = perf_counter()
        latencies = [call(i) for i in range(len(clips))]
        wall = perf_counter() - start
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "wall_s": wall, "latencies": latencies,
                       "stats": tracer.stats if traced else {},
                       "top_s": tracer.top_level_s(tracer.stats) if traced else 0.0})
    result = {"calls": calls, "differs": differs, "audio_s": sum(c[2] for c in clips), "passes": passes}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def cli(result_path, trace, argv):
    modules = _modules()
    cli_mod = modules["spfeat.cli"]
    tracer, stamps = Tracer(), []
    if trace:
        del modules["spfeat"]  # the CLI reaches the library through its submodules
        tracer.install(modules)
    else:
        read_wav = cli_mod.read_wav

        def stamped(path):
            stamps.append(perf_counter())
            return read_wav(path)

        cli_mod.read_wav = stamped
    code = cli_mod.main(argv)
    end = perf_counter()
    with open(result_path, "w") as fh:
        json.dump({"stamps": stamps, "end": end, "stats": tracer.stats,
                   "top_s": tracer.top_level_s(tracer.stats)}, fh)
    return code


def main(argv):
    mode = argv[0]
    if mode == "setup-loader":
        return setup_loader(argv[1], argv[2])
    if mode == "loader":
        return loader(argv[1], argv[2], argv[3], float(argv[4]), argv[5] == "1")
    if mode == "cli":
        return cli(argv[1], argv[2] == "1", argv[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
