"""Exhaustive scans: predicates, canonical forms, class generation, survivor sets."""

import hashlib
import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speclap.scans as scans
from speclap import linalg, nlspec
from speclap.families import (
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    path,
    pendant_join_family,
    unicyclic,
)
from speclap.graph import Graph, bipartite_split, from_edge_list, from_graph6, to_graph6
from speclap.linalg import cluster_spectrum
from speclap.nlspec import l_spectrum
from speclap.scans import (
    ScanHit,
    ScanReport,
    SpectrumPredicate,
    canonical_form,
    connected_classes,
    parse_predicate,
    scan_bipartite_pendant,
    scan_connected,
    scan_unicyclic,
)

# published counts, indexed by n: OEIS A001187 (labeled connected graphs),
# A001349 (connected graphs up to isomorphism), A005142 (connected
# bipartite graphs up to isomorphism)
A001187 = [None, 1, 1, 4, 38, 728, 26704, 1866256, 251548592]
A001349 = [None, 1, 1, 2, 6, 21, 112, 853, 11117]
A005142 = [None, 1, 1, 1, 3, 5, 17, 44, 182, 730]


def test_parse_predicate_forms():
    p = parse_predicate("distinct:3")
    assert p.kind == "distinct" and p.k == 3
    p = parse_predicate("distinct-with-one:4")
    assert p.kind == "distinct-with-one" and p.k == 4
    p = parse_predicate("second-least-one")
    assert p.kind == "second-least-one" and p.k is None
    for bad in ["", "distinct", "distinct:0", "nope:3", "distinct-with-one:x"]:
        with pytest.raises(ValueError):
            parse_predicate(bad)


def test_predicate_matches_spectrum():
    p = parse_predicate("distinct-with-one:3")
    assert p.matches(l_spectrum(complete_bipartite(2, 2)))
    assert not p.matches(l_spectrum(complete(4)))  # 2 distinct, no 1
    assert not p.matches(l_spectrum(cycle(5)))  # 3 distinct, no 1
    sl = parse_predicate("second-least-one")
    assert sl.matches(l_spectrum(complete_multipartite([2, 2, 2])))
    assert not sl.matches(l_spectrum(path(4)))


def test_predicate_matches_batch_agrees():
    rng = np.random.default_rng(17)
    preds = [
        parse_predicate("distinct:3"),
        parse_predicate("distinct-with-one:3"),
        parse_predicate("second-least-one"),
    ]
    for _ in range(50):
        vals = np.sort(rng.uniform(0, 2, 6))
        spec = cluster_spectrum(vals)
        batch = np.asarray(vals)[None, :]
        for p in preds:
            assert p.matches_batch(batch, 1e-6)[0] == p.matches(spec), (p, vals)


def test_canonical_form_is_isomorphism_invariant():
    rng = np.random.default_rng(19)
    g = unicyclic("U6", (1, 1))
    base = canonical_form(g)
    for _ in range(10):
        perm = rng.permutation(g.n)
        edges = [(int(perm[u]), int(perm[v])) for u, v in g.edges()]
        assert canonical_form(from_edge_list(g.n, edges)) == base
    # distinguishes non-isomorphic graphs with equal degree sums
    assert canonical_form(path(4)) != canonical_form(complete_bipartite(1, 3))


@settings(deadline=None)
@given(st.data())
def test_canonical_form_invariant_under_relabeling(data):
    n = data.draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if data.draw(st.booleans())]
    perm = data.draw(st.permutations(range(n)))
    moved = [(perm[u], perm[v]) for u, v in edges]
    assert canonical_form(from_edge_list(n, moved)) == canonical_form(from_edge_list(n, edges))


def test_canonical_form_order_limit():
    with pytest.raises(ValueError):
        canonical_form(complete(9))


def _nx_to_graph(h):
    index = {v: i for i, v in enumerate(h)}
    return from_edge_list(len(index), [(index[u], index[v]) for u, v in h.edges()])


def test_class_generator_matches_graph_atlas():
    """The connected graphs of networkx's atlas (every graph on <= 7
    vertices) give the generated classes, and their automorphism counts
    agree with networkx's matcher."""
    classes = connected_classes(7)
    atlas: dict = {n: {} for n in classes}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n and nx.is_connected(h):
            atlas[n][canonical_form(_nx_to_graph(h))] = h
    for n, level in classes.items():
        assert set(atlas[n]) == set(level), n
        for code, h in atlas[n].items():
            matcher = nx.algorithms.isomorphism.GraphMatcher(h, h)
            assert level[code] == sum(1 for _ in matcher.isomorphisms_iter()), (n, code)


def _is_automorphism(g, perm):
    return sorted(perm) == list(range(g.n)) and all(
        g.adj[perm[u]] >> perm[v] & 1 for u, v in g.edges()
    )


@pytest.mark.parametrize(
    "g, order",
    [
        (complete_bipartite(1, 9), 362880),  # 9!
        (complete_bipartite(5, 5), 2 * 120**2),  # 2 * 5!^2
        (cycle(10), 20),  # dihedral
        (_nx_to_graph(nx.petersen_graph()), 120),  # S5
    ],
)
def test_automorphism_group_orders_of_known_graphs(g, order):
    _, aut, gens, _ = scans._canonical_search(g.adj)
    assert aut == order
    assert all(_is_automorphism(g, perm) for perm in gens)


@pytest.mark.parametrize("n", range(2, 13))
def test_symmetric_graphs_visit_at_most_n_leaves(n, monkeypatch):
    """Automorphism pruning keeps the search on K_n, the empty graph,
    K_{1,n-1} and K_{n/2,n/2} to at most n leaves (unpruned, each visits
    |Aut| of them: n! for K_n).  A count of leaves, not a timing; the
    count fails the test as soon as it passes n."""
    leaves = []
    real = scans._leaf_code

    def counting(adj, cells):
        leaves.append(cells)
        assert len(leaves) <= n, "more than n leaves"
        return real(adj, cells)

    monkeypatch.setattr(scans, "_leaf_code", counting)
    fact = math.factorial
    graphs = [
        (complete(n), fact(n)),
        (from_edge_list(n, []), fact(n)),
        (complete_bipartite(1, n - 1), fact(n - 1) * (2 if n == 2 else 1)),
    ]
    if n % 2 == 0:
        graphs.append((complete_bipartite(n // 2, n // 2), 2 * fact(n // 2) ** 2))
    for g, order in graphs:
        leaves.clear()
        _, aut, _, _ = scans._canonical_search(g.adj)
        assert aut == order


@pytest.mark.parametrize("m", range(1, 8))
def test_augmentation_takes_one_subset_per_orbit(m):
    """The automorphisms K_m's search finds leave one nonempty subset per
    size (S_m's orbits on subsets); those of K_{1,m}, one subset per size
    within each side."""
    _, _, gens, _ = scans._canonical_search(complete(m).adj)
    minima = list(scans._orbit_minima(range(1, 1 << m), gens))
    assert sorted(subset.bit_count() for subset in minima) == list(range(1, m + 1))
    star = complete_bipartite(1, m)
    _, _, gens, _ = scans._canonical_search(star.adj)
    split = bipartite_split(star)
    subsets = sorted(scans._submasks(split.part1) + scans._submasks(split.part2))
    minima = list(scans._orbit_minima(subsets, gens))
    assert len(minima) == (1 + m if m > 1 else 1)  # K_{1,1} swaps its sides
    assert all(subset & split.part1 == subset or subset & split.part2 == subset for subset in minima)


def _rows_of_code(n, code):
    """Adjacency rows of the graph on n vertices whose canonical code is
    `code`, in its canonical labeling: the upper-triangle pairs, first pair
    most significant."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = [pair for k, pair in enumerate(pairs) if code >> (len(pairs) - 1 - k) & 1]
    return from_edge_list(n, edges).adj


@pytest.mark.parametrize("n_max, bipartite", [(7, False), (9, True)])
def test_classes_keep_their_canonical_rows_and_automorphisms(n_max, bipartite):
    """Each generated class carries the rows its code encodes, whose search
    gives that code and |Aut| back, and generators that are automorphisms of
    those rows; no code comes out twice, and each level is in code order."""
    for n, level in scans._class_levels(n_max, bipartite).items():
        codes = [c.code for c in level]
        assert codes == sorted(set(codes)), n
        for c in level:
            assert c.rows == _rows_of_code(n, c.code)
            code, aut, _, _ = scans._canonical_search(c.rows)
            assert (code, aut) == (c.code, c.aut)
            assert all(_is_automorphism(Graph(n, c.rows), perm) for perm in c.gens)


@pytest.mark.parametrize(
    "n_max, bipartite, searches",
    [(7, False, 1049), (9, True, 1047)],
    ids=["connected-7", "bipartite-9"],
)
def test_canonical_deletion_search_count(n_max, bipartite, searches, monkeypatch):
    """Canonical deletion searches each class once, plus the children whose
    deletion-vertex tie the search resolves against them; the old dedup
    generator searched 4,302 and 4,679 times.  A count, not a timing."""
    calls = []
    real = scans._canonical_search

    def counting(adj):
        calls.append(adj)
        return real(adj)

    monkeypatch.setattr(scans, "_canonical_search", counting)
    connected_classes(n_max, bipartite=bipartite)
    assert len(calls) == searches


def test_bipartite_class_counts_match_oeis():
    classes = connected_classes(9, bipartite=True)
    assert [len(classes[n]) for n in range(1, 10)] == A005142[1:]


def test_class_generation_order_caps():
    """Bipartite classes go up to 10 vertices, all connected classes up to 8."""
    for n_max, bipartite in ((0, True), (11, True), (0, False), (9, False)):
        with pytest.raises(ValueError):
            connected_classes(n_max, bipartite=bipartite)
    for n in (1, 11):
        with pytest.raises(ValueError):
            scan_bipartite_pendant(n)


def _full_key_refine(adj, cells):
    """Reference colour refinement: each round keys every vertex by its
    neighbour counts in every cell of the partition."""
    while True:
        out = []
        for cell in cells:
            groups: dict = {}
            for v in range(len(adj)):
                if cell >> v & 1:
                    key = tuple((adj[v] & w).bit_count() for w in cells)
                    groups[key] = groups.get(key, 0) | 1 << v
            out.extend(groups[k] for k in sorted(groups))
        if len(out) == len(cells):
            return out
        cells = out


def _children(cells):
    """(child partition, individualized vertex mask) for every vertex of
    every non-singleton cell."""
    for t, cell in enumerate(cells):
        if cell & (cell - 1):
            for v in range(cell.bit_length()):
                low = 1 << v
                if cell & low:
                    yield cells[:t] + [low, cell ^ low] + cells[t + 1 :], low


def test_refinement_against_splitters_matches_full_keys():
    """Refining the root against the vertex set, and a child only against
    its individualized vertex and then the cells that split, gives the
    partition, in the same cell order, that keying on every cell gives.
    Vertex-transitive and regular graphs are searched two levels deep."""
    rng = np.random.default_rng(29)
    graphs = [_nx_to_graph(h) for h in (nx.petersen_graph(), nx.hypercube_graph(3))]
    graphs += [cycle(10), complete_bipartite(5, 5), complete_bipartite(3, 4)]
    graphs += [_nx_to_graph(nx.random_regular_graph(3, 10, seed=s)) for s in range(5)]
    deep = len(graphs)
    for _ in range(300):
        n = int(rng.integers(1, 11))
        upper = np.triu(rng.random((n, n)) < rng.random(), 1)
        graphs.append(from_edge_list(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(upper))]))
    compared = 0
    for i, g in enumerate(graphs):
        everything = (1 << g.n) - 1
        root = scans._refine(g.adj, [everything], [everything])
        assert root == _full_key_refine(g.adj, [everything])
        for child, low in _children(root):
            refined = scans._refine(g.adj, child, [low])
            assert refined == _full_key_refine(g.adj, child), (to_graph6(g), child)
            compared += 1
            for grandchild, low2 in _children(refined) if i < deep else ():
                want = _full_key_refine(g.adj, grandchild)
                assert scans._refine(g.adj, grandchild, [low2]) == want
                compared += 1
    assert compared > 1000


def _digest(classes):
    text = "".join(
        f"{n} {code} {aut}\n" for n, level in classes.items() for code, aut in level.items()
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "n_max, bipartite, digest",
    [
        (7, False, "94db0dc8fcc791d35fbbab32068ec4e9aa95152a6464d67fcc48e25617b5eaf0"),
        (9, True, "0f6c1a7eaf0f9d8d786f9b46d90a587b930c2a3ff53b306420a7370178137635"),
    ],
    ids=["connected-7", "bipartite-9"],
)
def test_class_codes_and_order_are_pinned(n_max, bipartite, digest):
    """Canonical codes appear in scan reports: the (n, code, |Aut|)
    sequence of these levels, each level in ascending code order, must not
    drift."""
    assert _digest(connected_classes(n_max, bipartite=bipartite)) == digest


def test_scan_connected_counts_match_oracle():
    report = scan_connected(8, parse_predicate("distinct-with-one:3"))
    for n in range(1, 9):
        assert report.counts[str(n)]["connected"] == A001187[n]
        assert report.counts[str(n)]["scanned"] == A001349[n]


def test_scan_connected_hits_are_the_expected_families():
    report = scan_connected(6, parse_predicate("distinct-with-one:3"))
    expected = set()
    for n in range(2, 7):
        for s in range(1, n // 2 + 1):
            if (s, n) != (1, 2):  # K_{1,1} = K2 has two distinct values
                expected.add((n, canonical_form(complete_bipartite(s, n - s))))
        for r in range(3, n):
            if n % r == 0:
                expected.add((n, canonical_form(complete_multipartite([n // r] * r))))
    assert {(h.n, h.canonical) for h in report.hits} == expected


def test_scan_hits_survive_graph6_round_trip():
    report = scan_connected(5, parse_predicate("distinct:3"))
    assert report.hits
    for hit in report.hits:
        g = from_graph6(hit.graph6)
        re_spec = l_spectrum(g, report.cluster_tol)
        assert re_spec.distinct_count == hit.distinct_count
        assert np.allclose(
            np.sort(re_spec.expand()), np.sort(hit.spectrum.expand()), atol=1e-9
        )


def test_scan_connected_caps_order_at_8():
    for n_max in (0, 9):
        with pytest.raises(ValueError):
            scan_connected(n_max, parse_predicate("distinct:3"))


def test_second_least_one_scan_matches_multipartite_catalog():
    report = scan_connected(5, parse_predicate("second-least-one"))
    expected = set()
    for n in range(2, 6):
        seen = set()
        import itertools

        for parts in itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(1, n), k) for k in range(2, n + 1)
        ):
            if sum(parts) != n or len(parts) < 2:
                continue
            if all(p == 1 for p in parts):
                continue  # complete graph is excluded
            g = complete_multipartite(list(parts))
            seen.add((n, canonical_form(g)))
        expected |= seen
    assert {(h.n, h.canonical) for h in report.hits} == expected


def test_scan_unicyclic_three_distinct():
    report = scan_unicyclic(8, parse_predicate("distinct:3"))
    labels = sorted(h.label for h in report.hits)
    assert labels == ["U10", "U7"]  # C5 and C4


def test_scan_unicyclic_four_distinct():
    report = scan_unicyclic(8, parse_predicate("distinct:4"))
    labels = sorted(h.label for h in report.hits)
    assert labels == ["U13", "U14", "U2:1", "U4:1,1,1"]


def test_scan_unicyclic_catalog_mode():
    report = scan_unicyclic(2)
    assert report.predicate == "all members"
    assert report.counts["members"] == len(report.hits)
    assert report.counts["by_n"]
    # every member keeps its constructing label and spectrum
    for hit in report.hits:
        assert hit.label
        g = from_graph6(hit.graph6)
        assert g.n == hit.n


def test_scan_bipartite_pendant_small_orders():
    # n=4: P4 is the only survivor; n=6: nothing survives
    rep4 = scan_bipartite_pendant(n=4)
    assert len(rep4.hits) == 1
    assert rep4.hits[0].canonical == canonical_form(path(4))
    rep6 = scan_bipartite_pendant(n=6)
    assert rep6.hits == ()


def test_scan_bipartite_pendant_n9_has_no_survivors():
    """The paper's survivors are P4 and the thm41 graphs on 8t vertices, so
    none has 9 vertices."""
    report = scan_bipartite_pendant(n=9)
    assert report.counts["9"]["scanned"] == A005142[9]
    assert report.hits == ()


def test_scan_report_rejects_duplicate_canonicals():
    g = path(4)
    hit = ScanHit(
        n=4,
        canonical=canonical_form(g),
        graph6=to_graph6(g),
        spectrum=l_spectrum(g),
        distinct_count=4,
    )
    with pytest.raises(ValueError):
        ScanReport(
            scan="test",
            predicate="p",
            n_range=(4, 4),
            hits=(hit, hit),
            counts={},
            borderline=(),
            cluster_tol=1e-6,
        )


def test_scan_report_csv_shape():
    report = scan_connected(4, parse_predicate("distinct:3"))
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "n,graph6,distinct_count,spectrum"
    assert len(lines) == 1 + len(report.hits)
    for line in lines[1:]:
        n, g6, k, spec = line.split(",")
        assert from_graph6(g6).n == int(n)
        assert len(spec.split(" ")) == int(k)


def test_scan_solves_each_class_once(monkeypatch):
    """Every scan takes its spectra from one batched eigensolve per order and
    never reaches the Jacobi solver."""

    def no_jacobi(*args, **kwargs):
        raise AssertionError("a scan called jacobi_eigen")

    assert "jacobi_eigen" not in vars(scans)  # no binding escapes the patches
    monkeypatch.setattr(linalg, "jacobi_eigen", no_jacobi)
    monkeypatch.setattr(nlspec, "jacobi_eigen", no_jacobi)
    batched = []
    real = scans._batched_l_values

    def counting(graphs, n):
        batched.append(n)
        return real(graphs, n)

    monkeypatch.setattr(scans, "_batched_l_values", counting)
    report = scan_connected(5, parse_predicate("distinct-with-one:3"))
    assert sorted(batched) == [1, 2, 3, 4, 5]
    assert len(report.hits) == sum(c["hits"] for c in report.counts.values()) > 0
    batched.clear()
    assert scan_bipartite_pendant(6).hits == ()
    assert batched == [6]
    for predicate in (parse_predicate("distinct:4"), None):
        batched.clear()
        report = scan_unicyclic(5, predicate)
        assert sorted(batched) == sorted(set(map(int, report.counts["by_n"])))
        assert len(report.hits) == (4 if predicate else report.counts["members"])


def test_borderline_window_follows_cluster_tol():
    pred = parse_predicate("distinct:4")
    assert scan_connected(4, pred).borderline == ()
    # at 0.05 the window is [0.005, 0.5]: the paw's gap 0.229 and
    # K4 minus an edge's gap 0.333 fall inside it
    # and P4's gap 0.5 at its edge; each class is logged once
    report = scan_connected(4, pred, cluster_tol=0.05)
    logged = [canonical_form(from_graph6(b["graph6"])) for b in report.borderline]
    assert sorted(logged) == sorted(
        canonical_form(g)
        for g in (path(4), unicyclic("U2", (1,)), complete_multipartite([1, 1, 2]))
    )
    assert all(b["fast_route_candidate"] for b in report.borderline)


def test_scan_unicyclic_sees_near_ties_inside_a_cluster(monkeypatch):
    """A member whose raw eigenvalues split a repeated value by 5e-7 (inside
    one cluster at the default tolerance) is borderline, and clustering its
    row gives the hits and distinct counts of the unperturbed scan."""
    clean = scan_unicyclic(2)
    real = scans._batched_l_values

    def split_ties(graphs, n):
        raw = real(graphs, n)
        vals = raw.copy()  # ascending, one row per graph
        for row, raw_row in zip(vals, raw):
            for i in range(1, n):
                if raw_row[i] - raw_row[i - 1] < 1e-9:
                    row[i] = row[i - 1] + 5e-7
        return vals

    monkeypatch.setattr(scans, "_batched_l_values", split_ties)
    report = scan_unicyclic(2)
    repeated = {h.label for h in clean.hits if max(h.spectrum.multiplicities) > 1}
    assert "U7" in repeated  # C4: 0, 1, 1, 2
    assert {b["label"] for b in report.borderline} == repeated
    assert [h.label for h in report.hits] == [h.label for h in clean.hits]
    for hit, want in zip(report.hits, clean.hits):
        assert hit.distinct_count == want.distinct_count


def test_scans_are_deterministic():
    runs = [
        lambda: scan_connected(5, parse_predicate("distinct:4")),
        lambda: scan_bipartite_pendant(n=5),
        lambda: scan_unicyclic(3, parse_predicate("distinct:4")),
    ]
    for run in runs:
        first, second = run(), run()
        assert first.to_json_dict() == second.to_json_dict()
        assert first.to_csv() == second.to_csv()


@pytest.mark.parametrize("tol", [1e-6, 0.05])
@pytest.mark.parametrize(
    "predicate", ["distinct:3", "distinct:4", "distinct-with-one:3", "second-least-one"]
)
def test_scan_hit_spectrum_is_the_l_spectrum_of_its_graph6(predicate, tol):
    """The scans and `l_spectrum` assemble L the same way, so a hit reports
    the spectrum its own graph6 gets, bit for bit."""
    reports = [scan_connected(7, parse_predicate(predicate), cluster_tol=tol)]
    if predicate == "distinct:4":
        reports.append(scan_bipartite_pendant(8, cluster_tol=tol))
    hits = [hit for report in reports for hit in report.hits]
    assert hits
    for hit in hits:
        assert hit.spectrum == l_spectrum(from_graph6(hit.graph6), tol), hit.graph6
