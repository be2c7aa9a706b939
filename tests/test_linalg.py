"""Eigensolver, spectrum clustering and matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import (
    complete_bipartite_l_values,
    complete_l_values,
    cycle_l_values,
    incidence_l_values,
    predicted_incidence_adjacency_spectrum,
)
from speclap.designs import hadamard_to_design, incidence_graph, sylvester_of_order
from speclap.families import complete, complete_bipartite, cycle
from speclap.linalg import (
    DEFAULT_CLUSTER_TOL,
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

# graph of order n and its closed-form L-eigenvalues; K_{s,t} splits n evenly
CLOSED_FORMS = {
    "K": (complete, complete_l_values),
    "C": (cycle, cycle_l_values),
    "Kst": (
        lambda n: complete_bipartite(n // 2, n - n // 2),
        lambda n: complete_bipartite_l_values(n // 2, n - n // 2),
    ),
}


def assert_power_sums(a, vals):
    """tr(A^k) = sum of lambda^k for k = 1, 2, 3: an oracle from matrix
    products alone."""
    power = np.eye(len(a))
    for k in (1, 2, 3):
        power = power @ a
        assert np.isclose(np.sum(vals**k), np.trace(power), rtol=1e-9, atol=1e-9), k


def test_jacobi_matches_lapack():
    """The LAPACK route returns closed-form spectra at 1e-10: K_n, C_n,
    K_{s,t}, and both matrices of the 62-vertex Sylvester-32 incidence
    graph.  Random matrices keep their shape, order and power sums."""
    cases = [(np.zeros((6, 6)), np.zeros(6))]
    for n in (2, 3, 5, 6, 17, 33, 64):
        cases.append((build(complete(n)).L, complete_l_values(n)))
    for n in (3, 4, 5, 7, 16, 31, 62):
        cases.append((build(cycle(n)).L, cycle_l_values(n)))
    for s, t in ((1, 1), (1, 4), (2, 3), (7, 9), (20, 31)):
        cases.append((build(complete_bipartite(s, t)).L, complete_bipartite_l_values(s, t)))
    d = hadamard_to_design(sylvester_of_order(32))
    g, _ = incidence_graph(d)
    cases.append((build(g).L, incidence_l_values(d)))
    adjacency = predicted_incidence_adjacency_spectrum(d).expand()
    cases.append((g.adjacency_matrix().astype(float), adjacency))
    for a, expected in cases:
        vals = jacobi_eigen(a)
        assert vals.shape == (len(a),)
        assert np.all(np.diff(vals) <= 0)  # descending
        assert np.allclose(vals, expected, rtol=0, atol=1e-10)

    rng = np.random.default_rng(7)
    for n in [1, 2, 3, 4, 5, 7, 8, 13, 16, 17, 20, 31, 33, 62, 63, 64]:
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        vals = jacobi_eigen(a)
        assert vals.shape == (n,)
        assert np.all(np.diff(vals) <= 0)
        assert_power_sums(a, vals)


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_jacobi_matches_lapack_on_random_01_matrices(data):
    """A relabelled K_n, C_n or K_{s,t} has its closed-form L-spectrum at
    1e-10; a random symmetric 0/1 matrix has its integer power sums."""
    kind = data.draw(st.sampled_from(sorted(CLOSED_FORMS)))
    n = data.draw(st.integers(3, 40))
    graph_of, values_of = CLOSED_FORMS[kind]
    perm = data.draw(st.permutations(range(n)))
    lap = build(graph_of(n)).L[np.ix_(perm, perm)]
    assert np.allclose(jacobi_eigen(lap), values_of(n), rtol=0, atol=1e-10)

    bits = data.draw(st.lists(st.booleans(), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n)] = bits
    a += np.triu(a, 1).T
    assert_power_sums(a, jacobi_eigen(a))


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


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=64),
    st.sampled_from([1e-12, DEFAULT_CLUSTER_TOL, 1e-3, 0.05, 0.5]),
)
def test_cluster_spectrum_is_idempotent_property(values, tol):
    spec = cluster_spectrum(values, tol)
    assert cluster_spectrum(spec.expand(), spec.cluster_tol) == spec


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
