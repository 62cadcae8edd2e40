"""tools/bitcheck.py: digests tell arrays apart, and --compare exits 1 on any difference."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bitcheck", ROOT / "tools" / "bitcheck.py")
bitcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitcheck)


def test_digest_sees_dtype_shape_and_every_bit():
    x = np.zeros(4)
    flipped = x.copy()
    flipped.view(np.uint64)[3] = 1  # the smallest subnormal
    others = [x.reshape(2, 2), x.astype(np.float32), flipped, x.tobytes()]
    assert len({bitcheck.digest(v) for v in [x, *others]}) == 5
    assert bitcheck.digest(x[::2]) == bitcheck.digest(np.zeros(2))


def write(path, cases):
    path.write_text(json.dumps({"numpy": np.__version__, "python": "3", "cases": cases}))
    return path


@pytest.mark.parametrize("change, code, line", [
    ({}, 0, "0 of 2 cases differ"),
    ({"b": "3"}, 1, "differs: b"),
    ({"c": "4"}, 1, "only in"),
])
def test_compare(tmp_path, capsys, change, code, line):
    a = write(tmp_path / "a.json", {"a": "1", "b": "2"})
    b = write(tmp_path / "b.json", {"a": "1", "b": "2", **change})
    assert bitcheck.main(["--compare", str(a), str(b)]) == code
    assert line in capsys.readouterr().out
