"""Every Python example in README.md runs as written."""

import re
from pathlib import Path

import numpy as np
import pytest

from conftest import write_wav

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_the_library_and_stage_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_example_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the examples read clip.wav
    write_wav(tmp_path / "clip.wav", np.random.default_rng(0).integers(-3000, 3000, 16000))
    exec(compile(code, str(README), "exec"), {})
