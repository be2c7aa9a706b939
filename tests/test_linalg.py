"""Jacobi eigensolver, spectrum clustering and matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclap import linalg
from speclap.designs import hadamard_to_design, incidence_graph, sylvester_of_order
from speclap.families import complete
from speclap.linalg import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_JACOBI_TOL,
    JacobiConvergenceError,
    PredictedSpectrum,
    Spectrum,
    as_symmetric,
    cluster_spectrum,
    format_value,
    jacobi_eigen,
    quadratic_roots,
    spectra_match,
)
from speclap.nlspec import build


def random_symmetric(n, rng):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def sylvester32_incidence():
    """L and A of the 62-vertex incidence graph of the Sylvester-32 design."""
    g, _ = incidence_graph(hadamard_to_design(sylvester_of_order(32)))
    return build(g).L, g.adjacency_matrix().astype(float)


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(7)
    mats = [random_symmetric(n, rng) for n in [1, 2, 3, 4, 5, 7, 8, 13, 16, 17, 20, 31, 33, 62, 63, 64]]
    mats += sylvester32_incidence()
    for n in (5, 6):
        kn = complete(n)
        mats += [build(kn).L, kn.adjacency_matrix().astype(float)]
    mats.append(np.zeros((6, 6)))
    for a in mats:
        vals = jacobi_eigen(a)
        assert vals.shape == (len(a),)
        assert np.allclose(np.sort(vals), np.linalg.eigvalsh(a), atol=1e-10)
        assert np.all(np.diff(vals) <= 0)  # descending


def test_jacobi_raises_when_sweeps_run_out(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    a = random_symmetric(12, np.random.default_rng(5))
    with pytest.raises(JacobiConvergenceError) as info:
        jacobi_eigen(a)
    assert info.value.order == 12
    assert info.value.sweeps == 1
    assert info.value.off > DEFAULT_JACOBI_TOL


def test_jacobi_converges_on_incidence_graph_within_20_sweeps(monkeypatch):
    """These highly degenerate spectra take 9-10 round-robin sweeps; the
    guard bounds sweeps, not time."""
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 20)
    for a in sylvester32_incidence():
        assert np.allclose(np.sort(jacobi_eigen(a)), np.linalg.eigvalsh(a), atol=1e-10)


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_jacobi_matches_lapack_on_random_01_matrices(data):
    n = data.draw(st.integers(1, 40))
    bits = data.draw(st.lists(st.booleans(), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n)] = bits
    a += np.triu(a, 1).T
    assert np.allclose(np.sort(jacobi_eigen(a)), np.linalg.eigvalsh(a), rtol=0, atol=1e-10)


def test_jacobi_diagonal_is_exact():
    d = np.diag([3.0, -1.0, 0.5])
    assert list(jacobi_eigen(d)) == [3.0, 0.5, -1.0]


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_as_symmetric_is_exact():
    # bitwise symmetry required; near-symmetry is the caller's bug
    with pytest.raises(ValueError):
        as_symmetric(np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]]))
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert np.array_equal(as_symmetric(a), a)


def test_cluster_merges_near_duplicates():
    spec = cluster_spectrum([1.0000001, 0.9999999, 0.0], cluster_tol=1e-5)
    assert spec.pairs == ((pytest.approx(1.0, abs=1e-6), 2), (0.0, 1))
    assert spec.distinct_count == 2
    assert spec.order == 3


def test_cluster_keeps_separated_values():
    spec = cluster_spectrum([2.0, 1.0, 1.0, 0.0])
    assert spec.multiplicities == (1, 2, 1)
    assert spec.values == (2.0, 1.0, 0.0)


def test_cluster_is_idempotent():
    rng = np.random.default_rng(3)
    vals = np.repeat(rng.uniform(0, 2, 6), [1, 3, 2, 1, 1, 4])
    vals = vals + rng.uniform(-1e-9, 1e-9, vals.size)
    spec = cluster_spectrum(vals)
    again = cluster_spectrum(spec.expand(), spec.cluster_tol)
    assert again.pairs == spec.pairs


def test_spectrum_validates_ordering():
    with pytest.raises(ValueError):
        Spectrum(pairs=((1.0, 1), (1.0 - 1e-9, 1)), cluster_tol=1e-6)
    with pytest.raises(ValueError):
        Spectrum(pairs=((1.0, 0),), cluster_tol=1e-6)


def test_spectra_match_requires_exact_multiplicities():
    computed = cluster_spectrum([2.0, 1.0 + 1e-10, 1.0, 0.0])
    good = PredictedSpectrum(pairs=((2.0, 1), (1.0, 2), (0.0, 1)))
    bad = PredictedSpectrum(pairs=((2.0, 2), (1.0, 1), (0.0, 1)))
    ok, dev = spectra_match(computed, good, 1e-8)
    assert ok and dev < 1e-9
    ok, _ = spectra_match(computed, bad, 1e-8)
    assert not ok


def test_spectra_match_value_deviation():
    computed = cluster_spectrum([1.001, 0.0])
    predicted = PredictedSpectrum(pairs=((1.0, 1), (0.0, 1)))
    ok, dev = spectra_match(computed, predicted, 1e-2)
    assert ok and dev == pytest.approx(1e-3, rel=1e-6)
    ok, _ = spectra_match(computed, predicted, 1e-4)
    assert not ok


def test_spectra_match_distinct_count_mismatch():
    computed = cluster_spectrum([2.0, 0.0])
    predicted = PredictedSpectrum(pairs=((2.0, 1), (1.0, 1), (0.0, 1)))
    ok, _ = spectra_match(computed, predicted, 1e-6)
    assert not ok


def test_quadratic_roots():
    hi, lo = quadratic_roots(1.0, -3.0, 2.0)
    assert (hi, lo) == (2.0, 1.0)
    with pytest.raises(ValueError):
        quadratic_roots(1.0, 0.0, 1.0)  # negative discriminant


def test_format_value_precisions():
    assert format_value(4 / 3) == "1.333333333"
    assert format_value(4 / 3, paper_precision=True) == "1.3333"
    assert format_value(0.0) == "0"
    assert format_value(-0.0) == "0"
    assert format_value(-1e-17, paper_precision=True) == "0.0000"
    assert format_value(-0.5, paper_precision=True) == "-0.5000"
