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


def test_numbers_imported_only_by_checks():
    imports = _sites(lambda n: (isinstance(n, ast.Import)
                                and any(a.name == "numbers" for a in n.names))
                     or (isinstance(n, ast.ImportFrom) and n.module == "numbers"))
    assert imports == {"_checks:<module>"}


def test_integer_rule_has_one_home():
    integral = _sites(lambda n: (isinstance(n, ast.Attribute) and n.attr == "Integral")
                      or (isinstance(n, ast.Name) and n.id == "Integral"))
    assert integral == {"_checks:require_int", "_checks:require_fft_length"}


@pytest.mark.parametrize("text, homes", [
    ("is not a power of two", {"_checks:require_fft_length"}),
    ("must be an integer, got", {"_checks:require_int"}),
    ("array of reals", {"_checks:as_real_array"}),
    ("must be finite", {"_checks:as_real_array"}),
    ("positive and finite", {"_checks:require_positive"}),
    ("alpha must be in", {"preprocess:require_alpha"}),
    ("unknown window", {"preprocess:require_window"}),
], ids=["power-of-two", "integer", "real-array", "finite", "positive", "alpha", "window"])
def test_message_raised_in_one_place(text, homes):
    sites = _sites(lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and text in n.value)
    assert sites == homes


def test_config_validated_only_when_built():
    calls = _sites(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "validate")
    assert calls == {"features:FeatureConfig.__post_init__"}
