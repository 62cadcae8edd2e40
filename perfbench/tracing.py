"""Spans around the calls into each spfeat layer, recorded from outside the library.

Each public function is wrapped where its caller looks the name up
(``spfeat.features.power_spectrum`` for the call inside ``mfe``,
``spfeat.cli.write_csv`` for the CLI, the entries of
``spfeat.cli._FEATURE_FNS``, ...).  A layer's self time is its span
minus the spans of the calls it makes.  If a refactor rebinds a name so
that a wrapper no longer sees the call, the span never fires and the
benchmark run fails instead of silently losing the layer.
"""

from __future__ import annotations

import os
from time import perf_counter


def _rows(result) -> int:
    return int(result.data.shape[0])


def _spectrum_counts(args, kwargs, result) -> dict:
    rows = _rows(result)
    n = 2 * (result.data.shape[1] - 1)
    return {"rows": rows, "gflop": 5.0 * n * (n.bit_length() - 1) * rows / 1e9}


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# (module, attribute, span name, counters taken from (args, kwargs, result))
SITES = (
    # loader_short: the benchmark calls the package-level names
    ("spfeat", "mfcc", "features.mfcc", None),
    ("spfeat", "extract_derivative", "features.extract_derivative", None),
    ("spfeat", "cmvn", "postprocess.cmvn", None),
    # inside features.mfcc / lmfe / mfe
    ("spfeat.features", "lmfe", "features.lmfe", None),
    ("spfeat.features", "mfe", "features.mfe", None),
    ("spfeat.features", "pre_emphasis", "preprocess.pre_emphasis", None),
    ("spfeat.features", "stack_frames", "preprocess.stack_frames",
     lambda a, k, r: {"frames": _rows(r)}),
    ("spfeat.features", "apply_window", "preprocess.apply_window", None),
    ("spfeat.features", "power_spectrum", "spectrum.power_spectrum", _spectrum_counts),
    ("spfeat.features", "build_filterbank", "mel_filterbank.build_filterbank", None),
    # the CLI
    ("spfeat.cli", "main", "cli.main", None),
    ("spfeat.cli", "read_wav", "audio_io.read_wav",
     lambda a, k, r: {"bytes": _path_size(a[0] if a else k["path"])}),
    ("spfeat.cli", "extract_derivative", "features.extract_derivative", None),
    ("spfeat.cli", "write_csv", "cli.write_csv",
     lambda a, k, r: {"bytes": _path_size(a[1])}),
    ("spfeat.cli", "write_spfe", "cli.write_spfe",
     lambda a, k, r: {"bytes": _path_size(a[1])}),
    # _process_file imports these from the module at call time
    ("spfeat.postprocess", "cmvn", "postprocess.cmvn", None),
    ("spfeat.postprocess", "cmvnw", "postprocess.cmvnw",
     lambda a, k, r: {"frames": _rows(r) if hasattr(r, "data") else len(r)}),
)

# the CLI's feature dispatch table: spfeat.cli._FEATURE_FNS[key]
FEATURE_TABLE = ("spfeat.cli", "_FEATURE_FNS",
                 {"mfcc": "features.mfcc", "mfe": "features.mfe", "lmfe": "features.lmfe"})


class Tracer:
    """Aggregates span counts, self time, errors and counters per span name."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._children: list[float] = []
        self._installed: list[tuple] = []

    def reset(self):
        self.stats = {}

    def top_level_s(self, names) -> float:
        """Time covered by spans that ran with no traced caller."""
        return sum(self.stats.get(n, {}).get("top", 0.0) for n in names)

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = perf_counter() - start
                child = self._children.pop()
                st = self.stats.setdefault(
                    name, {"calls": 0, "errors": 0, "self": 0.0, "top": 0.0}
                )
                st["calls"] += 1
                st["self"] += elapsed - child
                if self._children:
                    self._children[-1] += elapsed
                else:
                    st["top"] += elapsed
                if not ok:
                    st["errors"] += 1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    st[key] = st.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict):
        """Wrap every site whose module is in ``modules`` (name -> module object)."""
        for mod_name, attr, span, count in SITES:
            mod = modules.get(mod_name)
            if mod is None:
                continue
            if not hasattr(mod, attr):
                raise LookupError(f"{mod_name}.{attr} no longer exists; update perfbench/tracing.py")
            original = getattr(mod, attr)
            setattr(mod, attr, self.wrap(span, original, count))
            self._installed.append((mod, attr, original))
        mod_name, attr, entries = FEATURE_TABLE
        mod = modules.get(mod_name)
        if mod is not None:
            table = getattr(mod, attr, None)
            if not isinstance(table, dict):
                raise LookupError(f"{mod_name}.{attr} is not a dict; update perfbench/tracing.py")
            for key, span in entries.items():
                original = table[key]
                table[key] = self.wrap(span, original)
                self._installed.append((table, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._installed):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._installed = []
