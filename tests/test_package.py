"""The package surface: every exported name resolves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import speclap
from speclap import designs, families, graph, linalg, nlspec, scans


@pytest.mark.parametrize(
    "module", [speclap, designs, families, graph, linalg, nlspec, scans], ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    assert len(module.__all__) == len(set(module.__all__)), "duplicate export"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_benchmark_trace_targets_resolve():
    # the benchmark's traced runs wrap these functions by module and name; a
    # deleted or renamed one would only fail there
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(module, fn) for _, module, fn in tracing.TARGETS]
    targets += [("speclap.nlspec", fn) for fn in tracing.SUITES]
    resolved = [getattr(importlib.import_module(m), fn, None) for m, fn in targets]
    assert [t for t, f in zip(targets, resolved) if not callable(f)] == []
    assert set(tracing.SUITES.values()) <= set(nlspec.SUITES) | {"thm41"}
    assert isinstance(vars(designs.HadamardMatrix)["from_text"], classmethod)
