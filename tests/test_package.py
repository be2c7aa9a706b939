"""The package surface: every exported name resolves."""

import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_cli_import_footprint():
    """`import speclap.cli` in a fresh interpreter loads none of the heavy
    optional modules; each would add to every CLI call's start-up time."""
    src = Path(speclap.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    heavy = ["numpy.ma", "sympy", "networkx", "scipy", "hypothesis"]
    code = f"import sys, speclap.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
