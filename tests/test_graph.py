"""Graph type, traversals, duplicate classes and graph6 round trips.

networkx is used here purely as an independent oracle for serialization and
connectivity; the package itself never imports it.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclap.graph import (
    Graph,
    bipartite_split,
    complement_graph,
    components,
    duplicate_classes,
    from_edge_list,
    from_graph6,
    induced_subgraph,
    is_complete_multipartite,
    is_connected,
    reach,
    relabel,
    to_graph6,
    to_json_dict,
)
from speclap.families import complete, complete_bipartite, complete_multipartite, cycle, path


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_graph_validates_input():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))  # adjacency length mismatch
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # loop at 0
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        from_edge_list(2, [(0, 2)])


def test_basic_queries():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g.m == 3
    assert g.adj == (0b0010, 0b0101, 0b1010, 0b0100)
    assert list(g.degrees()) == [1, 2, 2, 1]
    assert list(g.neighbors(1)) == [0, 2]
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_components_and_connectivity():
    g = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (3, 4)])  # C3 + P2
    assert components(g) == [[0, 1, 2], [3, 4]]
    assert not is_connected(g)
    assert is_connected(cycle(5))
    # empty-edge graphs: one component per vertex
    assert len(components(from_edge_list(3, []))) == 3


def test_connectivity_matches_networkx():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        g = random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
        assert is_connected(g) == nx.is_connected(to_nx(g))


def test_bipartite_split_even_cycle():
    split = bipartite_split(cycle(6))
    assert split is not None
    side1, side2 = split.sides()
    assert sorted(side1 + side2) == list(range(6))
    assert set(side1) == {0, 2, 4} or set(side1) == {1, 3, 5}


def test_bipartite_split_odd_cycle_is_none():
    assert bipartite_split(cycle(5)) is None
    assert bipartite_split(complete(3)) is None


def test_bipartite_matches_networkx():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        g = random_graph(n, float(rng.uniform(0.1, 0.6)), rng)
        assert (bipartite_split(g) is not None) == nx.is_bipartite(to_nx(g))


def test_duplicate_classes_star():
    # leaves of a star share an (independent) neighborhood
    g = complete_bipartite(1, 4)
    cls = duplicate_classes(g)
    assert len(cls) == 1
    assert cls[0].kind == "independent"
    assert len(cls[0].vertices) == 4
    assert cls[0].outside_degree == 1


def test_duplicate_classes_clique_kind():
    # the two singleton parts of K_{1,1,2} are adjacent and share a closed
    # neighborhood; classes must have neighbors outside themselves, so the
    # whole of K4 is not a class
    cls = duplicate_classes(complete_multipartite([1, 1, 2]))
    kinds = sorted((c.kind, len(c.vertices), c.outside_degree) for c in cls)
    assert kinds == [("clique", 2, 2), ("independent", 2, 2)]
    assert duplicate_classes(complete(4)) == []


def test_duplicate_classes_multipartite():
    g = complete_multipartite([2, 3, 4])
    kinds = sorted((c.kind, len(c.vertices)) for c in duplicate_classes(g))
    assert kinds == [("independent", 2), ("independent", 3), ("independent", 4)]


def test_duplicate_classes_path_has_none():
    assert duplicate_classes(path(4)) == []


def test_induced_subgraph():
    g = complete_bipartite(2, 3)
    sub = induced_subgraph(g, [0, 2, 3])
    assert sub.n == 3 and sub.m == 2
    for bad in ([0, 0], [0, 5], [-1]):
        with pytest.raises(ValueError):
            induced_subgraph(g, bad)


def test_relabel_matches_networkx_induced_subgraph():
    rng = np.random.default_rng(41)
    for n in (1, 5, 9, 64):
        g = random_graph(n, 0.4, rng)
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(n))
        order = [int(v) for v in rng.permutation(n)[: rng.integers(1, n + 1)]]
        want = nx.relabel_nodes(h.subgraph(order), {v: i for i, v in enumerate(order)})
        sub = induced_subgraph(g, order)
        assert sub.adj == relabel(g.adj, order)
        assert sorted(sub.edges()) == sorted(tuple(sorted(e)) for e in want.edges())


def test_reach_stays_within_its_mask():
    g = path(5)
    assert reach(g.adj, 0, 0b11111) == 0b11111
    assert reach(g.adj, 0, 0b11011) == 0b00011  # vertex 2 cut out
    assert reach(g.adj, 4, 0b11011) == 0b11000
    assert reach(g.adj, 2, 0b00100) == 0b00100


def test_complement():
    g = complement_graph(complete(5))
    assert g.m == 0
    g2 = complement_graph(path(4))
    assert g2.m == 6 - 3


def test_is_complete_multipartite():
    assert is_complete_multipartite(complete_multipartite([2, 2, 3])) == (2, 2, 3)
    assert is_complete_multipartite(complete_bipartite(2, 5)) == (2, 5)
    assert is_complete_multipartite(complete(4)) == (1, 1, 1, 1)
    assert is_complete_multipartite(path(4)) is None
    assert is_complete_multipartite(cycle(5)) is None


def test_graph6_round_trip_random():
    rng = np.random.default_rng(31)
    for n in [int(rng.integers(1, 14)) for _ in range(300)] + [63, 64]:
        g = random_graph(n, float(rng.uniform(0, 1)), rng)
        assert from_graph6(to_graph6(g)) == g


@st.composite
def graphs(draw, max_n=64):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    bits = draw(st.integers(0, 2 ** len(pairs) - 1))
    return from_edge_list(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


@settings(max_examples=200, deadline=None)
@given(g=graphs())
def test_graph6_round_trip_property(g):
    assert from_graph6(to_graph6(g)) == g


def test_graph6_matches_networkx():
    rng = np.random.default_rng(37)
    for n in [int(rng.integers(1, 12)) for _ in range(100)] + [63, 64]:
        g = random_graph(n, float(rng.uniform(0.2, 0.8)), rng)
        s = to_graph6(g)
        h = nx.from_graph6_bytes(s.encode())
        assert set(h.edges()) == set(g.edges()) or set(
            (min(e), max(e)) for e in h.edges()
        ) == set(g.edges())
        # and decode what networkx encodes
        s_nx = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert from_graph6(s_nx) == g
    # orders 63 and 64 take the '~' header: networkx writes ~??~~... for K63
    assert to_graph6(complete(63)).startswith("~??~~")
    for n in (63, 64):
        s_nx = nx.to_graph6_bytes(nx.complete_graph(n), header=False).decode().strip()
        assert to_graph6(complete(n)) == s_nx


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("\x19bad")
    # a '~' header needs three order bytes, then a body of the right length;
    # 65 vertices exceed what Graph holds
    too_big = nx.to_graph6_bytes(nx.complete_graph(65), header=False).decode().strip()
    for bad in ["~", "~??", "~?@?", "~~??????", "\x7f", too_big]:
        with pytest.raises(ValueError):
            from_graph6(bad)


def test_json_round_trip():
    g = from_edge_list(5, [(0, 1), (2, 3), (3, 4)])
    d = to_json_dict(g)
    assert from_edge_list(d["n"], d["edges"]) == g
    assert d["n"] == 5 and sorted(map(tuple, d["edges"])) == [(0, 1), (2, 3), (3, 4)]
