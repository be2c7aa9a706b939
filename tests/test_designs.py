"""Finite fields, Paley/Sylvester Hadamard matrices, 2-designs."""

import json

import numpy as np
import pytest

from closed_forms import predicted_incidence_adjacency_spectrum
from speclap.designs import (
    MAX_HADAMARD_ORDER,
    Design,
    FiniteField,
    HadamardMatrix,
    HadamardOrderError,
    complement,
    design_from_json_dict,
    design_to_json_dict,
    hadamard_of_order,
    hadamard_to_design,
    incidence_graph,
    is_prime,
    paley1,
    paley2,
    paley_core,
    prime_power,
    sylvester,
    sylvester_of_order,
)
from speclap.graph import bipartite_split, is_connected
from speclap.nlspec import adjacency_spectrum
from speclap.linalg import spectra_match


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_power():
    assert prime_power(27) == (3, 3)
    assert prime_power(49) == (7, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2), (2, 3), (3, 3)])
def test_field_axioms(p, k):
    f = FiniteField(p, k)
    els = list(f.elements())
    assert len(els) == p**k
    # commutativity, associativity on a sample, identity, inverses
    for x in els:
        assert f.add(x, 0) == x
        assert f.mul(x, 1 if p != 2 or k == 1 else 1) == f.mul(1, x)
        assert f.add(x, f.neg(x)) == 0
    for x in els[: min(9, len(els))]:
        for y in els[: min(9, len(els))]:
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
    # multiplicative group: every nonzero element has an inverse
    for x in els[1:]:
        assert any(f.mul(x, y) == 1 for y in els[1:])


def test_field_squares_count():
    for q, (p, k) in [(9, (3, 2)), (13, (13, 1)), (27, (3, 3))]:
        f = FiniteField(p, k)
        assert len(f.squares()) == (q - 1) // 2


def test_paley_core_properties():
    for q, (p, k) in [(5, (5, 1)), (9, (3, 2)), (7, (7, 1)), (27, (3, 3))]:
        f = FiniteField(p, k)
        c = paley_core(f)
        assert np.all(c.sum(axis=0) == 0) and np.all(c.sum(axis=1) == 0)
        assert np.array_equal(c @ c.T, q * np.eye(q, dtype=np.int64) - np.ones((q, q), dtype=np.int64))
        if q % 4 == 1:
            assert np.array_equal(c, c.T)
        else:
            assert np.array_equal(c, -c.T)


def test_hadamard_constructor_validates():
    with pytest.raises(ValueError):
        HadamardMatrix(np.array([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        HadamardMatrix(np.array([[1, 0], [1, -1]]))
    with pytest.raises(ValueError):
        HadamardMatrix(np.ones((2, 3)))


def test_sylvester_orders():
    # constructor would raise if H H^T != nI, so reaching order asserts exactness
    for m in [1, 2, 4, 8, 16, 32]:
        assert sylvester_of_order(m).order == m
    with pytest.raises(ValueError):
        sylvester_of_order(12)


def test_paley1_orders():
    for q in [3, 7, 11, 19, 23, 27]:
        f = FiniteField(*prime_power(q))
        h = paley1(f)
        assert h.order == q + 1


def test_paley2_orders():
    for q in [5, 9, 13]:
        f = FiniteField(*prime_power(q))
        h = paley2(f)
        assert h.order == 2 * (q + 1)


def test_paley_wrong_residue_rejected():
    with pytest.raises(ValueError):
        paley1(FiniteField(5))
    with pytest.raises(ValueError):
        paley2(FiniteField(7))


def test_kronecker_product_order():
    h = sylvester(hadamard_of_order(4), hadamard_of_order(2))
    assert h.order == 8


def test_hadamard_of_order_all_small():
    for m in [1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36]:
        assert hadamard_of_order(m).order == m
    with pytest.raises(ValueError):
        hadamard_of_order(6)


def test_hadamard_order_cap():
    assert MAX_HADAMARD_ORDER == 512
    assert hadamard_of_order(512).order == 512
    h256 = sylvester_of_order(256)
    for build in [
        lambda: hadamard_of_order(516),
        lambda: sylvester_of_order(1024),
        lambda: sylvester(h256, h256),
        lambda: paley1(FiniteField(523)),  # order 524
        lambda: paley2(FiniteField(257)),  # order 516
        lambda: HadamardMatrix.from_text("+\n" * 513),
        lambda: HadamardMatrix.from_text("+" * 513),
    ]:
        with pytest.raises(HadamardOrderError, match="exceeds 512"):
            build()


def test_normalization():
    h = paley1(FiniteField(7)).normalized()
    assert h.is_normalized()
    assert np.all(h.array[0] == 1) and np.all(h.array[:, 0] == 1)


def test_hadamard_text_round_trip():
    h = paley2(FiniteField(5))
    assert np.array_equal(HadamardMatrix.from_text(h.to_text()).array, h.array)
    with pytest.raises(ValueError):
        HadamardMatrix.from_text("+x\n-+")


def test_hadamard_design_parameters():
    # order 4t gives a symmetric 2-(4t-1, 2t-1, t-1) design
    for t in [1, 2, 3, 4, 5]:
        d = hadamard_to_design(hadamard_of_order(4 * t))
        assert (d.v, d.b, d.r, d.k, d.lam) == (4 * t - 1, 4 * t - 1, 2 * t - 1, 2 * t - 1, t - 1)
        assert d.is_symmetric


def test_design_complement():
    d = hadamard_to_design(hadamard_of_order(8))
    c = complement(d)
    assert (c.v, c.k, c.lam) == (7, 4, 2)
    assert np.array_equal(c.incidence, 1 - d.incidence)
    assert np.array_equal(complement(c).incidence, d.incidence)


def test_design_validation():
    with pytest.raises(ValueError):
        Design.from_incidence(np.array([[1, 0], [1, 1]]))  # r not constant
    with pytest.raises(ValueError):
        Design(v=3, b=3, r=2, k=2, lam=2, incidence=np.eye(3, dtype=int) + np.eye(3, dtype=int)[:, ::-1])


def test_non_symmetric_design():
    # all 2-subsets of a 4-set: 2-(4, 2, 1) with b=6, r=3
    import itertools

    inc = np.zeros((4, 6), dtype=np.int64)
    for j, (a, b) in enumerate(itertools.combinations(range(4), 2)):
        inc[a, j] = inc[b, j] = 1
    d = Design.from_incidence(inc)
    assert (d.v, d.b, d.r, d.k, d.lam) == (4, 6, 3, 2, 1)
    assert not d.is_symmetric


def test_incidence_graph_structure():
    d = hadamard_to_design(hadamard_of_order(8))
    g, split = incidence_graph(d)
    assert g.n == d.v + d.b
    assert is_connected(g)
    assert bipartite_split(g) is not None
    # points come first and have degree r, blocks have degree k
    degs = g.degrees()
    assert all(degs[i] == d.r for i in range(d.v))
    assert all(degs[d.v + j] == d.k for j in range(d.b))
    side1, side2 = split.sides(g.n)
    assert sorted(side1 + side2) == list(range(g.n))


def test_incidence_adjacency_spectrum_symmetric():
    # k-regular incidence graph: adjacency {±k, ±sqrt(k-lam)}
    d = hadamard_to_design(hadamard_of_order(12))
    g, _ = incidence_graph(d)
    predicted = predicted_incidence_adjacency_spectrum(d)
    computed = adjacency_spectrum(g)
    ok, dev = spectra_match(computed, predicted, 1e-9)
    assert ok, f"max deviation {dev}"


def test_incidence_adjacency_spectrum_non_symmetric():
    import itertools

    inc = np.zeros((4, 6), dtype=np.int64)
    for j, (a, b) in enumerate(itertools.combinations(range(4), 2)):
        inc[a, j] = inc[b, j] = 1
    d = Design.from_incidence(inc)
    predicted = predicted_incidence_adjacency_spectrum(d)
    # zero block of size b - v = 2 shows up
    assert predicted.pairs[len(predicted.pairs) // 2][1] >= 2
    computed = adjacency_spectrum(incidence_graph(d)[0])
    ok, dev = spectra_match(computed, predicted, 1e-9)
    assert ok, f"max deviation {dev}"


def test_design_json_round_trip():
    d = hadamard_to_design(hadamard_of_order(8))
    blob = json.dumps(design_to_json_dict(d))
    d2 = design_from_json_dict(json.loads(blob))
    assert np.array_equal(d2.incidence, d.incidence)
    assert (d2.v, d2.b, d2.r, d2.k, d2.lam) == (d.v, d.b, d.r, d.k, d.lam)


def test_design_json_rejects_mismatched_params():
    d = hadamard_to_design(hadamard_of_order(8))
    blob = design_to_json_dict(d)
    blob["lambda"] = 5
    with pytest.raises(ValueError):
        design_from_json_dict(blob)
    # malformed shapes are ValueErrors too, never TypeErrors
    for bad in [5, [None], {"incidence": [1, 2]}, {"incidence": [None]}, {**blob, "lambda": None}]:
        with pytest.raises(ValueError):
            design_from_json_dict(bad)
