"""Graph family constructors and their closed-form spectra."""

import itertools

import networkx as nx
import numpy as np
import pytest

from closed_forms import u4_symmetric_factors, u4_symmetric_spectrum
from speclap.families import (
    FAMILY_GRAMMAR,
    UNICYCLIC_ARITY,
    UnicyclicSpec,
    add_pendants,
    all_unicyclic_specs,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    parse_family,
    path,
    pendant_join,
    pendant_join_family,
    predicted_complete_bipartite_spectrum,
    predicted_pendant_join_spectrum,
    predicted_regular_multipartite_spectrum,
    unicyclic,
)
from speclap.graph import bipartite_split, is_connected
from speclap.linalg import spectra_match
from speclap.nlspec import l_spectrum


def test_basic_shapes():
    assert complete(5).m == 10
    assert all(d == 2 for d in cycle(7).degrees())
    p = path(6)
    assert sorted(p.degrees()) == [1, 1, 2, 2, 2, 2]
    kb = complete_bipartite(2, 3)
    assert kb.m == 6 and sorted(kb.degrees()) == [2, 2, 2, 3, 3]
    km = complete_multipartite([2, 2, 2])
    assert km.m == 12 and all(d == 4 for d in km.degrees())


def test_family_input_validation():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        complete_multipartite([0, 2])
    with pytest.raises(ValueError):
        complete_multipartite([])
    # a single part is legal and edgeless
    assert complete_multipartite([3]).m == 0


def test_add_pendants():
    g = add_pendants(cycle(3), {0: 2, 2: 1})
    assert g.n == 6 and g.m == 6
    assert g.degrees()[0] == 4 and g.degrees()[2] == 3
    assert sorted(g.degrees())[:3] == [1, 1, 1]
    with pytest.raises(ValueError):
        add_pendants(cycle(3), {5: 1})
    # zero pendants is a no-op
    assert add_pendants(cycle(3), {0: 0}) == cycle(3)
    # the order is checked before any pendant is built
    assert add_pendants(cycle(3), {0: 61}).n == 64
    for attach in [{0: 62}, {0: -1, 1: 10**9}]:
        with pytest.raises(ValueError):
            add_pendants(cycle(3), attach)


def test_unicyclic_orders():
    assert unicyclic("U1").n == 3
    assert unicyclic("U2", (4,)).n == 7
    assert unicyclic("U3", (1, 2)).n == 6
    assert unicyclic("U4", (1, 1, 1)).n == 6
    assert unicyclic("U5", (2,)).n == 6
    assert unicyclic("U6", (1, 1)).n == 6
    assert unicyclic("U7").n == 4
    assert unicyclic("U8", (3,)).n == 7
    assert unicyclic("U9", (1, 1)).n == 6
    assert unicyclic("U10").n == 5
    assert unicyclic("U11", (1,)).n == 6
    assert unicyclic("U12", (2, 2)).n == 9
    assert unicyclic("U13").n == 6
    assert unicyclic("U14").n == 7


def _reference_unicyclic(family, p):
    """Each family spelled out as the branch chain that `unicyclic`'s table
    replaced, kept as its reference."""
    stem = add_pendants(cycle(3), {0: 1})  # vertex 3 hangs off vertex 0
    return {
        "U1": lambda: cycle(3),
        "U2": lambda: add_pendants(cycle(3), {0: p[0]}),
        "U3": lambda: add_pendants(cycle(3), [(0, p[0]), (1, p[1])]),
        "U4": lambda: add_pendants(cycle(3), [(0, p[0]), (1, p[1]), (2, p[2])]),
        "U5": lambda: add_pendants(stem, {3: p[0]}),
        "U6": lambda: add_pendants(stem, [(3, p[0]), (0, p[1])]),
        "U7": lambda: cycle(4),
        "U8": lambda: add_pendants(cycle(4), {0: p[0]}),
        "U9": lambda: add_pendants(cycle(4), [(0, p[0]), (1, p[1])]),
        "U10": lambda: cycle(5),
        "U11": lambda: add_pendants(cycle(5), {0: p[0]}),
        "U12": lambda: add_pendants(cycle(5), [(0, p[0]), (1, p[1])]),
        "U13": lambda: cycle(6),
        "U14": lambda: cycle(7),
    }[family]()


def test_unicyclic_table_matches_reference():
    assert UNICYCLIC_ARITY == {
        "U1": 0, "U2": 1, "U3": 2, "U4": 3, "U5": 1, "U6": 2, "U7": 0,
        "U8": 1, "U9": 2, "U10": 0, "U11": 1, "U12": 2, "U13": 0, "U14": 0,
    }  # fmt: skip
    for family, arity in UNICYCLIC_ARITY.items():
        # every parameter order, so unsorted U3, U4, U9, U12 and both U6 roles
        for params in itertools.product(range(1, 5), repeat=arity):
            assert unicyclic(family, params) == _reference_unicyclic(family, params), (family, params)


def test_unicyclic_is_unicyclic():
    # exactly one cycle: m == n for every member
    for spec in all_unicyclic_specs(2):
        g = unicyclic(spec)
        assert g.m == g.n, str(spec)
        assert is_connected(g), str(spec)


def test_unicyclic_spec_validation():
    with pytest.raises(ValueError):
        UnicyclicSpec("U2", ())
    with pytest.raises(ValueError):
        UnicyclicSpec("U1", (1,))
    with pytest.raises(ValueError):
        UnicyclicSpec("U99")
    with pytest.raises(ValueError):
        UnicyclicSpec("U2", (0,))
    assert str(UnicyclicSpec("U4", (1, 2, 3))) == "U4:1,2,3"
    assert UNICYCLIC_ARITY["U4"] == 3


def test_all_unicyclic_specs_count():
    for p in [1, 2, 3]:
        specs = all_unicyclic_specs(p)
        pairs = p * (p + 1) // 2
        triples = p * (p + 1) * (p + 2) // 6
        expected = 5 + 4 * p + 3 * pairs + p * p + triples
        assert len(specs) == expected
        assert len(set(map(str, specs))) == len(specs)


def test_all_unicyclic_specs_distinct_graphs():
    # representatives with <= 8 vertices are pairwise non-isomorphic
    from speclap.scans import canonical_form

    seen = {}
    for spec in all_unicyclic_specs(3):
        g = unicyclic(spec)
        if g.n > 8:
            continue
        key = (g.n, canonical_form(g))
        assert key not in seen, f"{spec} duplicates {seen[key]}"
        seen[key] = spec


def test_all_unicyclic_specs_pairwise_non_isomorphic_oracle():
    # networkx decides isomorphism at every order, so the unicyclic scan can
    # key its hits by family label
    buckets: dict = {}
    for spec in all_unicyclic_specs(4):
        h = nx.Graph(unicyclic(spec).edges())
        buckets.setdefault(tuple(sorted(d for _, d in h.degree())), []).append((spec, h))
    assert len(buckets) > 1
    for members in buckets.values():
        for (s1, h1), (s2, h2) in itertools.combinations(members, 2):
            assert not nx.is_isomorphic(h1, h2), f"{s1} is isomorphic to {s2}"


def test_parse_family_tokens():
    assert parse_family("K5").m == 10
    assert parse_family("Kmulti:2,2,2").n == 6
    assert parse_family("C6").n == 6
    assert parse_family("P4").n == 4
    assert parse_family("U2:1").n == 4
    assert parse_family("U4:1,2,1").n == 7
    assert parse_family("U13").n == 6
    assert parse_family("thm41:1").n == 8
    for bad in ["", "K", "Kmulti:", "U4:1,2", "Q7", "C2", "thm41:0", "U2:0", "K0"]:
        with pytest.raises(ValueError):
            parse_family(bad)
    assert "Kmulti" in FAMILY_GRAMMAR


def test_complete_bipartite_spectrum_closed_form():
    for s, n in [(1, 3), (2, 4), (2, 7), (3, 6), (5, 11), (6, 12)]:
        g = complete_bipartite(s, n - s)
        predicted = predicted_complete_bipartite_spectrum(s, n - s)
        ok, dev = spectra_match(l_spectrum(g), predicted, 1e-9)
        assert ok, f"K_{{{s},{n - s}}} deviation {dev}"
        assert predicted.pairs == ((2.0, 1), (1.0, n - 2), (0.0, 1))


def test_regular_multipartite_spectrum_closed_form():
    for r, n in [(3, 6), (3, 9), (4, 8), (5, 10), (4, 12), (6, 12)]:
        g = complete_multipartite([n // r] * r)
        predicted = predicted_regular_multipartite_spectrum(r, n)
        ok, dev = spectra_match(l_spectrum(g), predicted, 1e-9)
        assert ok, f"r={r} n={n} deviation {dev}"
    # parts of size one reproduce the complete graph
    predicted = predicted_regular_multipartite_spectrum(4, 4)
    ok, _ = spectra_match(l_spectrum(complete(4)), predicted, 1e-9)
    assert ok
    with pytest.raises(ValueError):
        predicted_regular_multipartite_spectrum(4, 10)  # r must divide n
    with pytest.raises(ValueError):
        predicted_regular_multipartite_spectrum(2, 8)  # bipartite helper covers r=2


def test_pendant_join_requires_bipartite():
    with pytest.raises(ValueError):
        pendant_join(cycle(5))


def test_pendant_join_on_even_cycle():
    g = pendant_join(cycle(6))
    assert g.n == 8
    assert g.degrees()[6] == 4  # apex: one side (3 vertices) plus the pendant
    assert g.degrees()[7] == 1


def test_pendant_join_family_structure():
    for t in [1, 2]:
        g, split = pendant_join_family(t)
        n = 8 * t
        assert g.n == n
        assert is_connected(g)
        assert bipartite_split(g) is not None
        degs = sorted(g.degrees())
        assert degs[0] == 1 and degs[-1] == 4 * t
        side1, side2 = split.sides()
        assert len(side1) == len(side2) == n // 2


def test_pendant_join_family_spectrum():
    g, _ = pendant_join_family(1)
    predicted = predicted_pendant_join_spectrum(1)
    # {2, 1 + sqrt(1/6) ^ 3, 1 - sqrt(1/6) ^ 3, 0}
    root = np.sqrt(1.0 / 6.0)
    assert predicted.pairs == ((2.0, 1), (1 + root, 3), (1 - root, 3), (0.0, 1))
    ok, dev = spectra_match(l_spectrum(g), predicted, 1e-9)
    assert ok, f"deviation {dev}"
    with pytest.raises(ValueError):
        pendant_join_family(0)


def test_u4_symmetric_factors():
    for a in [1, 2, 3]:
        linear, quadratic, ones, zeros = u4_symmetric_factors(a)
        assert linear == (a + 2, -2 * (a + 1))
        assert quadratic == (a + 2, -(2 * a + 5), 3)
        assert ones == 3 * a - 3 and zeros == 1
        # discriminant 4a^2 + 8a + 1 stays positive
        b2, b1, b0 = quadratic
        assert b1 * b1 - 4 * b2 * b0 == 4 * a * a + 8 * a + 1 > 0


def test_u4_symmetric_spectrum_matches_computed():
    for a in [1, 2, 3, 4]:
        g = unicyclic("U4", (a, a, a))
        predicted = u4_symmetric_spectrum(a)
        ok, dev = spectra_match(l_spectrum(g), predicted, 1e-8)
        assert ok, f"a={a} deviation {dev}"
