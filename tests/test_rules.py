"""Each parameter rule has one implementation in the package source."""

import ast
from pathlib import Path

import pytest

import spfeat

SOURCES = sorted(Path(spfeat.__file__).resolve().parent.glob("*.py"))


def _sites(is_site):
    """Every 'module:qualname' (or 'module:<module>') whose own code holds
    a node for which is_site(node) is true."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if is_site(child):
                found.add(f"{module}:{'.'.join(scope) or '<module>'}")
            visit(child, module, scope)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), path.stem, [])
    return found


def test_sources_found():
    assert {p.stem for p in SOURCES} >= {"preprocess", "spectrum", "features", "cli"}


def test_integer_rule_has_one_home():
    # AudioBuffer and validate_win_size keep their own test because they
    # raise InvalidSignalError and InvalidWindowError, not the base class
    integral = _sites(lambda n: (isinstance(n, ast.Attribute) and n.attr == "Integral")
                      or (isinstance(n, ast.Name) and n.id == "Integral"))
    assert integral == {
        "preprocess:require_int",
        "spectrum:require_fft_length",
        "audio_io:AudioBuffer.__post_init__",
        "postprocess:validate_win_size",
    }


@pytest.mark.parametrize("text, homes", [
    ("is not a power of two", {"spectrum:require_fft_length"}),
    ("must be an integer, got", {"preprocess:require_int", "postprocess:validate_win_size"}),
], ids=["power-of-two", "integer"])
def test_message_raised_in_one_place(text, homes):
    sites = _sites(lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and text in n.value)
    assert sites == homes


def test_config_validated_only_when_built():
    calls = _sites(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "validate")
    assert calls == {"features:FeatureConfig.__post_init__"}
