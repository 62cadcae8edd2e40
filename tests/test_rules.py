"""Each parameter rule and frame-path fact has one home in the package source."""

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


def _tree(module):
    return ast.parse(next(p for p in SOURCES if p.stem == module).read_text())


def _named(tree, kind, name):
    return next(n for n in ast.walk(tree) if isinstance(n, kind) and n.name == name)


def test_window_kernel_names_no_window():
    window = _named(_tree("preprocess"), ast.FunctionDef, "_window")
    compared = [c for n in ast.walk(window) if isinstance(n, ast.Compare)
                for c in [n.left, *n.comparators] if isinstance(c, ast.Constant)]
    assert not [c.value for c in compared if isinstance(c.value, str)]


def test_window_names_only_in_the_table():
    table = next(n.value for n in ast.walk(_tree("preprocess")) if isinstance(n, ast.Assign)
                 and [getattr(t, "id", None) for t in n.targets] == ["_WINDOWS"])
    names = ("hamming", "hanning")
    keys = [k.value for k in table.keys if k.value in names]
    anywhere = [n.value for p in SOURCES for n in ast.walk(ast.parse(p.read_text()))
                if isinstance(n, ast.Constant) and n.value in names]
    assert sorted(keys) == sorted(anywhere) == sorted(names)


STAGE_DEFAULTS = ("alpha", "frame_length_s", "frame_stride_s", "window",
                  "low_freq", "high_freq", "zero_padding")


def test_stage_defaults_not_restated_in_config():
    config = _named(_tree("features"), ast.ClassDef, "FeatureConfig")
    defaults = {n.target.id: n.value for n in config.body if isinstance(n, ast.AnnAssign)}
    assert set(STAGE_DEFAULTS) <= set(defaults)
    assert not [f for f in STAGE_DEFAULTS if isinstance(defaults[f], ast.Constant)]
