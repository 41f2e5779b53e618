"""The public API surface: what README documents and what the benchmark wraps."""

from __future__ import annotations

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import jrsp

ROOT = Path(__file__).resolve().parents[1]


def _documented() -> dict[str, set[str]]:
    """Module name to the names listed for it in the export table of
    README's "Python API" section."""
    rows = re.findall(r"^\| `(jrsp\.\w+)` \| (.*) \|$", (ROOT / "README.md").read_text(), re.M)
    return {module: set(re.findall(r"`(\w+)`", names)) for module, names in rows}


# Dense helpers and per-transcript rule functions that left the package; the
# dense cascade lives on as the reference in tests/reference_engine.py.
REMOVED = {
    "TwoByTwoUnitary", "basis_ket", "tensor", "reorder", "fidelity",
    "apply_one_qubit", "apply_recovery", "derived_recovery",
    "paper_step3_recovery", "table2_recovery", "bich_recovery_table",
    "collapse_after_alice", "bob_branches", "build_channel",
    "projective_measure", "ProjectiveOutcome",
}

MODULES = ("qcore", "bases", "protocol", "verify", "cli")


def test_package_exports_exactly_the_documented_names():
    by_module = _documented()
    documented = set().union(*by_module.values())
    assert len(documented) == 29
    assert set(jrsp.__all__) == documented | {"__version__"}
    assert len(jrsp.__all__) == len(set(jrsp.__all__))
    for module, names in by_module.items():
        assert names <= set(importlib.import_module(module).__all__), module


def test_removed_names_are_not_reachable_from_the_package():
    for name in sorted(REMOVED):
        assert not hasattr(jrsp, name), name


@pytest.mark.parametrize("module", MODULES)
def test_every_module_export_resolves(module):
    mod = importlib.import_module(f"jrsp.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"jrsp.{module}.{name}"


def _layer_bindings():
    name = "_perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[name] = tracing  # dataclasses look their module up there
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[name]
    return tracing.LAYER_BINDINGS


def test_traced_benchmark_bindings_resolve():
    # perfbench --trace 1 wraps each of these module attributes and fails
    # if one is gone, so a trim of the package must keep them bound.
    bindings = _layer_bindings()
    assert bindings
    for span, module, attr, _ in bindings:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{span}: {module}.{attr}"


def test_benchmark_renderer_hook_exists():
    # The benchmark's own tests replace this renderer to inject a failure.
    from jrsp import cli

    assert callable(cli._render_report_csv)
