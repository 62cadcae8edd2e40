"""Each parameter rule and frame-path fact has one home in the package source."""

import ast
import dataclasses
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
    ("| must be <= ", {"_checks:as_real_array"}),
    ("num_filters must be >= 1", {"mel_filterbank:require_filter_count"}),
    ("num_filters must be <= ", {"mel_filterbank:require_filter_count"}),
    ("] must satisfy 0 <= low < high", {"mel_filterbank:require_band"}),
    ("shorter than frame length", {"_checks:require_fft_length"}),
    ("frames must be a 2-D int or float array", {"preprocess:require_frames"}),
    ("at least 1 sample wide", {"preprocess:require_frames"}),
    ("frame length/stride must round to", {"preprocess:stack_frames"}),
    ("win_size must be odd and in", {"postprocess:validate_win_size"}),
    ("window_half_width must be in", {"features:extract_derivative"}),
], ids=["power-of-two", "integer", "real-array", "finite", "positive", "alpha", "window",
        "sample-bound", "filter-count-low", "filter-count-high", "band", "fft-covers-frame",
        "frame-data", "frame-width", "frame-bound", "win-size-bound", "half-width-bound"])
def test_message_raised_in_one_place(text, homes):
    sites = _sites(lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and text in n.value)
    assert sites == homes


def test_config_validated_only_when_built():
    calls = _sites(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "validate")
    assert calls == {"features:FeatureConfig.__post_init__"}


@pytest.mark.parametrize("rule", ["require_filter_count", "require_band"])
def test_filterbank_rules_checked_by_config_and_builder(rule):
    calls = _sites(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == rule)
    assert calls == {"features:FeatureConfig.validate", "mel_filterbank:build_filterbank"}


def _calls(name):
    """The sites of every call of name, as _sites gives them."""
    return _sites(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == name)


@pytest.mark.parametrize("record, homes", [
    ("SpectrumMatrix", {"spectrum:_half_spectra"}),
    ("FeatureMatrix", {"features:mfe"}),
    ("AudioBuffer", {"audio_io:read_wav"}),
])
def test_record_built_in_one_place(record, homes):
    """Every other stage derives its record from its source with replace."""
    assert _calls(record) == homes


def test_frames_are_plain_arrays():
    """No record type wraps a frames array."""
    assert not [p.stem for p in SOURCES if "FrameMatrix" in p.read_text()]


def test_filterbank_is_a_plain_array():
    """build_filterbank returns the weights array; no record or edge field is left."""
    names = ("FilterBank", "center_frequencies")
    assert not [p.stem for p in SOURCES if any(n in p.read_text() for n in names)]


def test_feature_matrix_holds_only_what_is_read():
    assert [f.name for f in dataclasses.fields(spfeat.FeatureMatrix)] == ["data", "frame_energies"]


@pytest.mark.parametrize("module", ["cli", "postprocess"])
def test_only_features_knows_the_feature_record(module):
    """Post-processing goes through features._as_array and _wrap, and the CLI
    unwraps the extractor's record once, so neither module names it."""
    assert "FeatureMatrix" not in next(p for p in SOURCES if p.stem == module).read_text()


def test_oracles_live_in_the_tests():
    """The DFT and DCT oracles are test code: no source names them, nor does __all__."""
    names = ("naive_dft", "dct_ii_ortho")
    assert not [p.stem for p in SOURCES if any(n in p.read_text() for n in names)]
    assert not set(names) & set(spfeat.__all__)
    assert len(spfeat.__all__) == 20


def test_window_bound_has_one_home():
    assigned = _sites(lambda n: isinstance(n, ast.Assign)
                      and [getattr(t, "id", None) for t in n.targets] == ["MAX_WINDOW_FRAMES"])
    assert assigned == {"_checks:<module>"}


def test_feature_bound_has_one_home_and_one_reader():
    assigned = _sites(lambda n: isinstance(n, ast.Assign)
                      and [getattr(t, "id", None) for t in n.targets] == ["MAX_FEATURE"])
    assert assigned == {"_checks:<module>"}
    read = _sites(lambda n: isinstance(n, ast.Name) and n.id == "MAX_FEATURE"
                  and isinstance(n.ctx, ast.Load))
    assert read == {"features:_as_array"}


def test_mfe_block_loop_builds_no_record():
    """The loop slices the frames array; its block's one record is the
    SpectrumMatrix that power_spectrum returns."""
    records = {n.name for p in SOURCES for n in ast.walk(ast.parse(p.read_text()))
               if isinstance(n, ast.ClassDef)}
    mfe = _named(_tree("features"), ast.FunctionDef, "mfe")
    loop = next(n for n in ast.walk(mfe) if isinstance(n, ast.For))
    called = {n.func.id for n in ast.walk(loop)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert {"apply_window", "power_spectrum"} <= called
    assert not called & (records | {"replace"})


def test_frame_rule_called_by_every_frame_stage():
    assert _calls("require_frames") == {"preprocess:apply_window", "spectrum:_half_spectra"}
    assert _calls("require_type") & {"preprocess:apply_window", "spectrum:_half_spectra"} == set()


def test_mfe_settles_its_rules_and_filterbank_before_its_block_loop():
    mfe = _named(_tree("features"), ast.FunctionDef, "mfe")
    loop = next(n for n in ast.walk(mfe) if isinstance(n, ast.For))

    def called(node):
        return [n.func.id for n in ast.walk(node)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]

    assert {"build_filterbank", "require_fft_length"} <= set(called(mfe))
    assert not {"build_filterbank", "require_fft_length"} & set(called(loop))


def test_real_arrays_not_converted_again():
    """as_real_array already gives float64, so no call wraps its result."""
    def wraps(node):
        args = [*node.args, *(k.value for k in node.keywords)]
        return any(isinstance(a, ast.Call) and getattr(a.func, "id", None) == "as_real_array"
                   for a in args)

    assert _calls("as_real_array")
    assert _sites(lambda n: isinstance(n, ast.Call) and wraps(n)) == set()


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


def test_job_spec_fields_are_the_cli_only_options():
    from dataclasses import Field, fields

    from spfeat.cli import _OPTIONS, JobSpec

    cli_only = {name for name, (source, _) in _OPTIONS.items() if not isinstance(source, Field)}
    assert {f.name for f in fields(JobSpec)} == {"config"} | cli_only


def test_run_extract_takes_only_the_spec():
    import inspect

    from spfeat.cli import run_extract

    assert list(inspect.signature(run_extract).parameters) == ["spec"]


def test_empty_features_rule_has_one_home():
    raises = _sites(lambda n: isinstance(n, ast.Raise) and "at least one frame" in ast.unparse(n))
    assert raises == {"features:_as_array"}


def test_features_states_no_filterbank_rule():
    """features compares the filter count only with num_cepstral (its own
    rules) and hands the band and count to no rule but the filterbank's."""
    tree = _tree("features")

    def names(node):
        return {getattr(n, "attr", None) or getattr(n, "id", None) or getattr(n, "value", None)
                for n in ast.walk(node)}

    compared = [names(n) for n in ast.walk(tree) if isinstance(n, ast.Compare)]
    assert not [c for c in compared if c & {"low_freq", "high_freq"}]
    assert all("num_cepstral" in c for c in compared if "num_filters" in c)
    checked = set().union(*(names(a) for n in ast.walk(tree) if isinstance(n, ast.Call)
                            and getattr(n.func, "id", "").startswith("require_")
                            and n.func.id not in ("require_filter_count", "require_band")
                            for a in n.args))
    assert not checked & {"num_filters", "low_freq", "high_freq"}


def test_allocator_policy_only_in_the_cli():
    """The library runs inside other people's processes, so only the CLI's
    main() sets glibc's allocator policy."""
    assert {p.stem for p in SOURCES if "ctypes" in p.read_text()} == {"cli"}
    assert {p.stem for p in SOURCES if "mallopt" in p.read_text()} == {"cli"}
    calls = _sites(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "_keep_freed_heap")
    assert calls == {"cli:main"}
