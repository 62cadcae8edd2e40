"""Page faults and wall time per pass of a data-loader loop over the library.

One warm pass, then PASSES passes of the bench's ``loader_item`` (``mfcc ->
extract_derivative -> cmvn(variance_normalization=True)``, from
``perfbench/child.py``) over the 48 ``loader_short`` clips of
``perfbench/inputs.loader_pool(SEED)``, in this process, as a training data
loader calls the library.  For each pass it prints the minor page faults
(``resource.getrusage``) and the wall time:

    python tools/loop_faults.py [--passes 20] [--seed 1]

Fault counts depend on the C library's allocator and on NumPy, so they are
a figure to compare between two trees on one machine, not a fixed budget.
Run it with the same interpreter and the same BLAS thread setting on both.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py, read only)
import spfeat  # noqa: E402
from child import loader_config, loader_item  # noqa: E402  (perfbench/child.py, read only)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    work = [
        (spfeat.AudioBuffer(clip.mono(), clip.sampling_frequency),
         loader_config(inputs.LOADER_FFT_LENGTH[clip.sampling_frequency]))
        for clip in inputs.loader_pool(args.seed)
    ]

    # Filterbanks, DCT bases, windows and FFT plans are cached from here on.  The
    # warm pass's features stay alive, as in the bench's loader child, which checks
    # every later call against them; with nothing alive, glibc keeps the freed heap.
    warm = [loader_item(signal, config) for signal, config in work]  # noqa: F841
    faults, walls = [], []
    for i in range(args.passes):
        before, start = minor_faults(), perf_counter()
        for signal, config in work:
            features = loader_item(signal, config)  # noqa: F841  (held until the next call)
        walls.append((perf_counter() - start) * 1e3)
        faults.append(minor_faults() - before)
        print(f"pass {i + 1}: {faults[-1]} minor faults, {walls[-1]:.1f} ms")
    print(f"median over {args.passes} passes: {statistics.median(faults):g} minor faults, "
          f"{statistics.median(walls):.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
