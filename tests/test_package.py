"""The package surface: every exported name resolves."""

import pytest

import speclap
from speclap import designs, families, graph, linalg, nlspec, scans


@pytest.mark.parametrize(
    "module", [speclap, designs, families, graph, linalg, nlspec, scans], ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    assert len(module.__all__) == len(set(module.__all__)), "duplicate export"
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
