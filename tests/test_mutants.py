"""The mutation kill list in tools/mutants.py stays applicable to the source."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_edit_applies_to_the_source(tmp_path, mutant):
    mutants.apply(mutant, mutants.copy_src(tmp_path))


@pytest.mark.parametrize("times", [0, 2])
def test_edit_not_matching_once_is_an_error(tmp_path, times):
    module = tmp_path / "spfeat" / "m.py"
    module.parent.mkdir()
    module.write_text("x = 1\n" * times)
    with pytest.raises(SystemExit, match=f"occurs {times} times"):
        mutants.apply(mutants.Mutant("m", "m.py", "x = 1\n", "x = 2\n", ()), tmp_path)
    assert module.read_text() == "x = 1\n" * times
