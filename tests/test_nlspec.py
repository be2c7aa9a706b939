"""Normalized-Laplacian construction, identity suites and classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import cycle_l_values
from speclap import nlspec
from speclap.families import (
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    parse_family,
    path,
    unicyclic,
)
from speclap.graph import Graph, bipartite_split, duplicate_classes, from_edge_list
from speclap.linalg import cluster_spectrum
from speclap.nlspec import (
    SUITES,
    SpectralContext,
    adjacency_spectrum,
    bipartite_factorization,
    build,
    check_bipartite_duplicate_parity,
    check_bipartite_factorization,
    check_bipartite_four_ev,
    check_classification,
    check_duplicate_classes,
    check_eigenvalue_product,
    check_four_ev_diagonal,
    check_pendant_join_family,
    check_second_least_one,
    check_spectrum_fundamentals,
    check_three_ev_degree_bounds,
    check_three_ev_identities,
    classify_three_with_one,
    duplicate_class_eigenvector,
    l_spectrum,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return from_edge_list(10, outer + inner + spokes)


# -- matrix construction -------------------------------------------------


def test_build_path3_exact():
    b = build(path(3))
    s = 1 / np.sqrt(2)
    expected_l = np.array([[1, -s, 0], [-s, 1, -s], [0, -s, 1]])
    assert np.allclose(b.L, expected_l, atol=1e-15)
    assert np.array_equal(b.L, b.L.T)
    assert np.array_equal(b.D, np.array([1.0, 2.0, 1.0]))


def test_build_isolated_vertex_zero_diagonal():
    g = from_edge_list(3, [(0, 1)])
    b = build(g)
    assert b.L[2, 2] == 0.0
    assert np.all(b.L[2] == 0.0)


def test_l_spectrum_known_values():
    spec = l_spectrum(complete(4))
    assert spec.pairs == ((pytest.approx(4 / 3, abs=1e-12), 3), (pytest.approx(0.0, abs=1e-12), 1))
    spec = l_spectrum(complete_bipartite(1, 3))
    assert spec.multiplicities == (1, 2, 1)
    assert spec.values[0] == pytest.approx(2.0, abs=1e-12)
    for n in [3, 4, 5, 6, 8]:
        computed = np.sort(l_spectrum(cycle(n)).expand())
        assert np.allclose(computed, np.sort(cycle_l_values(n)), atol=1e-10)


def test_adjacency_spectrum():
    spec = adjacency_spectrum(cycle(4))
    assert spec.pairs == (
        (pytest.approx(2.0, abs=1e-12), 1),
        (pytest.approx(0.0, abs=1e-12), 2),
        (pytest.approx(-2.0, abs=1e-12), 1),
    )


# -- fundamentals suite (lemma22) ----------------------------------------


CATALOG = [
    complete(5),
    cycle(5),
    cycle(6),
    path(7),
    complete_bipartite(2, 5),
    complete_multipartite([2, 2, 3]),
    petersen(),
    from_edge_list(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6)]),  # C4 + P3
    from_edge_list(5, [(0, 1), (0, 2), (1, 2)]),  # K3 + isolated vertices
    unicyclic("U6", (1, 2)),
]


@pytest.mark.parametrize("g", CATALOG, ids=lambda g: f"n{g.n}m{g.m}")
def test_fundamentals_pass(g):
    report = check_spectrum_fundamentals(g)
    assert report.suite == "lemma22"
    failed = [r.check for r in report.results if r.applicable and not r.passed]
    assert not failed, failed


def test_fundamentals_rejects_single_vertex():
    with pytest.raises(ValueError):
        check_spectrum_fundamentals(from_edge_list(1, []))


def test_bipartite_symmetry_cases():
    # bipartite, no isolated vertices: multiset symmetric under x -> 2 - x
    rep = check_spectrum_fundamentals(cycle(6))
    res = rep.result("bipartite-symmetry")
    assert res.passed and res.witness["bipartite"] and res.witness["symmetric"]
    # set-symmetric but not multiset-symmetric disconnected trap
    trap = from_edge_list(  # K3 + C4 + P4
        11, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6), (7, 8), (8, 9), (9, 10)]
    )
    res = check_spectrum_fundamentals(trap).result("bipartite-symmetry")
    assert res.passed and not res.witness["bipartite"] and not res.witness["symmetric"]
    # bipartite with an isolated vertex: 0 has no mirrored 2
    lonely = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3)])  # C4 + K1
    res = check_spectrum_fundamentals(lonely).result("bipartite-symmetry")
    assert res.passed and not res.witness["symmetric"]


def test_second_least_bound_details():
    rep = check_spectrum_fundamentals(complete_bipartite(3, 3))
    assert rep.result("second-least-bound").passed
    assert rep.result("component-union").passed
    assert rep.result("zero-multiplicity-components").passed


# -- product identity (eq1) ----------------------------------------------


def test_eigenvalue_product_identity():
    for g in [complete(4), cycle(5), complete_bipartite(1, 4), petersen()]:
        report = check_eigenvalue_product(g)
        assert report.passed, g
        assert report.result("product-identity").residual < 1e-6


def test_eigenvalue_product_rejects_disconnected():
    with pytest.raises(ValueError):
        check_eigenvalue_product(
            from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])  # C3 + C3
        )


def test_eigenvalue_product_detects_wrong_values():
    ctx = SpectralContext(cycle(5))
    ctx.spectrum = cluster_spectrum([1.9, 1.9, 0.7, 0.7, 0.0])
    report = check_eigenvalue_product(ctx)
    assert report.result("product-identity").witness["nonzero_values"] == [1.9, 0.7]
    assert not report.passed


def test_eigenvalue_product_accepts_explicit_spectrum():
    g = complete(5)
    ctx = SpectralContext(g)
    ctx.spectrum = l_spectrum(g)
    assert check_eigenvalue_product(ctx).passed


def test_eigenvalue_product_rejects_nonzero_smallest_cluster():
    # at cluster tolerance 0.5 the zero eigenvalue of P5 merges with its
    # neighbours, so no cluster sits at 0: the identity does not apply
    report = check_eigenvalue_product(SpectralContext(path(5), 0.5))
    assert not report.applicable
    (result,) = report.results
    assert result.check == "precondition"
    assert result.witness["reason"] == "need the smallest L-eigenvalue cluster to be 0"
    assert result.witness["detail"]["distinct"] == 3


# -- three-eigenvalue identities -----------------------------------------


THREE_EV_GRAPHS = [
    complete_bipartite(2, 3),
    complete_bipartite(3, 3),
    complete_multipartite([2, 2, 2]),
    cycle(5),
    petersen(),
    unicyclic("U7"),  # C4
]


@pytest.mark.parametrize("g", THREE_EV_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_three_ev_identities_pass(g):
    report = check_three_ev_identities(g)
    assert report.applicable and report.passed
    for name in [
        "quadratic-identity",
        "vertex-inverse-degree-sum",
        "common-neighbors-adjacent",
        "common-neighbors-nonadjacent",
    ]:
        res = report.result(name)
        if res.applicable:
            assert res.residual < 1e-6


def test_three_ev_not_applicable():
    report = check_three_ev_identities(path(4))
    assert not report.applicable


def test_eigen_triple_validation():
    # alpha and beta of a three-distinct spectrum are its values above 0
    values = l_spectrum(cycle(5)).values
    assert len(values) == 3 and values[-1] == pytest.approx(0.0, abs=1e-12)
    alpha, beta = values[:-1]
    assert alpha == pytest.approx(1.80902, abs=1e-4)
    assert beta == pytest.approx(0.69098, abs=1e-4)


# -- degree bounds (lemma24) ---------------------------------------------


def test_degree_bounds_shared_neighborhood_branch():
    report = check_three_ev_degree_bounds(complete_bipartite(2, 5))
    assert report.passed
    assert report.result("beta-at-most-one").passed
    res = report.result("shared-neighborhoods")
    assert res.passed and res.applicable


def test_degree_bounds_gap_branch():
    report = check_three_ev_degree_bounds(cycle(5))
    assert report.passed
    res = report.result("degree-gap-bound")
    assert res.passed
    assert res.witness["max_gap"] == 0  # regular graph
    assert res.witness["bound"] >= 0


def test_degree_bounds_not_applicable():
    assert not check_three_ev_degree_bounds(path(5)).applicable


# -- four-eigenvalue identities ------------------------------------------


FOUR_EV_GRAPHS = [path(4), cycle(6), unicyclic("U2", (1,)), unicyclic("U4", (1, 1, 1))]


@pytest.mark.parametrize("g", FOUR_EV_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_four_ev_diagonal_pass(g):
    report = check_four_ev_diagonal(g)
    assert report.applicable and report.passed
    assert report.result("vertex-diagonal-identity").residual < 1e-6


def test_four_ev_diagonal_not_applicable():
    assert not check_four_ev_diagonal(cycle(5)).applicable


def test_bipartite_four_ev():
    for g in [path(4), cycle(6)]:
        report = check_bipartite_four_ev(g)
        assert report.applicable and report.passed, g
        assert report.result("bipartite-vertex-identity").passed
        assert report.result("bipartite-same-side-pairs").passed
    # non-bipartite four-distinct graph: precondition only
    assert not check_bipartite_four_ev(unicyclic("U2", (1,))).applicable


def test_bipartite_four_ev_alpha_override():
    # P4 has spectrum {2, 1.5, 0.5, 0}
    report = check_bipartite_four_ev(path(4))
    assert report.passed
    assert report.result("bipartite-vertex-identity").witness["alpha"] == pytest.approx(0.5, abs=1e-12)
    # a context seeded with the wrong alpha fails the identities
    ctx = SpectralContext(path(4))
    ctx.spectrum = cluster_spectrum([2.0, 1.1, 0.9, 0.0])
    report = check_bipartite_four_ev(ctx)
    assert report.applicable and not report.passed


# -- duplicate classes (lemma23) -----------------------------------------


def test_duplicate_class_eigenvector_values():
    g = complete_bipartite(2, 3)
    cls = [c for c in duplicate_classes(g) if c.size == 3][0]
    x, lam = duplicate_class_eigenvector(g, cls, 1)
    assert lam == 1.0  # independent class
    b = build(g)
    assert np.max(np.abs(b.L @ x - lam * x)) < 1e-12
    with pytest.raises(IndexError):
        duplicate_class_eigenvector(g, cls, 3)
    with pytest.raises(IndexError):
        duplicate_class_eigenvector(g, cls, 0)


def test_duplicate_class_clique_eigenvalue():
    g = complete_multipartite([1, 1, 2])
    cls = [c for c in duplicate_classes(g) if c.kind == "clique"][0]
    _, lam = duplicate_class_eigenvector(g, cls, 1)
    # p = 2 adjacent vertices with q = 2 outside neighbors: (p+q)/(p+q-1)
    assert lam == pytest.approx(4 / 3, abs=1e-15)


@pytest.mark.parametrize(
    "g",
    [
        complete_bipartite(2, 3),
        complete_bipartite(4, 4),
        complete_multipartite([2, 3, 4]),
        complete_multipartite([1, 1, 2]),
        unicyclic("U2", (3,)),
    ],
    ids=lambda g: f"n{g.n}m{g.m}",
)
def test_duplicate_classes_verified(g):
    report = check_duplicate_classes(g)
    assert report.applicable and report.passed
    for res in report.results:
        assert res.residual < 1e-12


def test_duplicate_classes_inapplicable_without_classes():
    assert not check_duplicate_classes(path(5)).applicable


# -- classification (thm21) ----------------------------------------------


def test_classify_complete_bipartite():
    c = classify_three_with_one(complete_bipartite(2, 4))
    assert c.verdict == "CompleteBipartite"
    assert c.params == (2, 4)
    assert c.in_class and c.has_one and c.distinct_count == 3


def test_classify_regular_multipartite():
    c = classify_three_with_one(complete_multipartite([3, 3, 3]))
    assert c.verdict == "RegularMultipartite"
    assert c.params == (3, 3)


def test_classify_not_in_class():
    assert classify_three_with_one(cycle(5)).verdict == "NotInClass"  # no 1
    assert classify_three_with_one(complete(5)).verdict == "NotInClass"  # 2 distinct
    assert classify_three_with_one(path(4)).verdict == "NotInClass"  # 4 distinct
    # unequal parts with r >= 3 have four distinct values
    assert classify_three_with_one(complete_multipartite([1, 2, 2])).verdict == "NotInClass"


def test_classify_requirements():
    with pytest.raises(ValueError):
        classify_three_with_one(from_edge_list(2, [(0, 1)]))
    with pytest.raises(ValueError):
        classify_three_with_one(
            from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])  # C3 + C3
        )


@pytest.mark.parametrize(
    "g",
    [
        complete_bipartite(1, 5),
        complete_bipartite(3, 3),
        complete_multipartite([2, 2, 2, 2]),
        cycle(5),
        complete(6),
        petersen(),
        path(6),
    ],
    ids=lambda g: f"n{g.n}m{g.m}",
)
def test_classification_suite(g):
    report = check_classification(g)
    assert report.passed
    assert report.result("classification-iff").passed


def test_classification_closed_form_and_shape():
    report = check_classification(complete_bipartite(2, 5))
    assert report.result("closed-form-spectrum").passed
    assert report.result("two-simple-shape").passed


# -- second-least eigenvalue (cor20) -------------------------------------


def test_second_least_on_multipartite_equality():
    report = check_second_least_one(complete_multipartite([2, 2, 2]))
    assert report.passed
    res = report.result("equality-iff-multipartite")
    assert res.witness["parts"] == [2, 2, 2]
    assert res.witness["second_least"] == pytest.approx(1.0, abs=1e-9)


def test_second_least_below_one():
    report = check_second_least_one(path(5))
    assert report.passed
    res = report.result("equality-iff-multipartite")
    assert res.witness["parts"] is None
    assert res.witness["second_least"] < 1.0 - 1e-6


def test_second_least_complete_precondition():
    report = check_second_least_one(complete(5))
    assert not report.applicable


def test_second_least_rejects_disconnected():
    with pytest.raises(ValueError):
        check_second_least_one(from_edge_list(4, [(0, 1), (2, 3)]))


# -- bipartite parity (cor21) --------------------------------------------


def test_bipartite_parity_star():
    report = check_bipartite_duplicate_parity(complete_bipartite(2, 3))
    assert report.applicable and report.passed
    res = report.result("odd-distinct-count")
    assert res.witness["distinct"] % 2 == 1


def test_bipartite_parity_preconditions():
    assert not check_bipartite_duplicate_parity(cycle(6)).applicable  # no class
    assert not check_bipartite_duplicate_parity(complete(4)).applicable  # not bipartite


def test_bipartite_parity_disconnected():
    g = from_edge_list(7, [(0, 1), (0, 2), (3, 4), (3, 5), (3, 6)])  # K_{1,2} + K_{1,3}
    report = check_bipartite_duplicate_parity(g)
    assert report.applicable and report.passed


def test_bipartite_parity_random_fuzz():
    rng = np.random.default_rng(41)
    seen = 0
    for _ in range(300):
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        edges = [
            (u, n1 + v)
            for u in range(n1)
            for v in range(n2)
            if rng.random() < 0.6
        ]
        g = from_edge_list(n1 + n2, edges)
        report = check_bipartite_duplicate_parity(g)
        if report.applicable:
            seen += 1
            assert report.passed, to_graph6_debug(g)
    assert seen > 50  # the fuzz actually exercised the applicable path


def to_graph6_debug(g):
    from speclap.graph import to_graph6

    return to_graph6(g)


# -- bipartite factorization ---------------------------------------------


def test_bipartite_factorization_structure():
    g = complete_bipartite(2, 4)
    f = bipartite_factorization(g)
    assert f.B.shape == (2, 4)
    assert len(f.xi) == 2
    predicted = f.predicted_values()
    computed = np.sort(l_spectrum(g).expand())
    assert np.allclose(np.sort(predicted), computed, atol=1e-10)


def test_bipartite_factorization_requires_bipartite():
    with pytest.raises(ValueError):
        bipartite_factorization(cycle(5))
    with pytest.raises(ValueError):
        bipartite_factorization(from_edge_list(3, [(0, 1)]))  # isolated vertex


def test_bipartite_factorization_suite_random():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 40:
        n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 8))
        edges = [
            (u, n1 + v) for u in range(n1) for v in range(n2) if rng.random() < 0.5
        ]
        g = from_edge_list(n1 + n2, edges)
        if any(d == 0 for d in g.degrees()):
            continue
        report = check_bipartite_factorization(g)
        assert report.applicable and report.passed
        checked += 1


# -- degree-one family (thm41) -------------------------------------------


def test_pendant_join_family_check():
    report = check_pendant_join_family(1)
    assert report.passed
    assert report.result("structure").passed
    assert report.result("closed-form-spectrum").passed
    with pytest.raises(ValueError):
        check_pendant_join_family(0)


# -- report serialization -------------------------------------------------


def test_report_json_shape():
    report = check_spectrum_fundamentals(cycle(5))
    d = report.to_json_dict()
    assert d["suite"] == "lemma22"
    assert isinstance(d["pass"], bool) and d["pass"]
    assert isinstance(d["results"], list)
    first = d["results"][0]
    assert {"check", "pass", "applicable"} <= set(first)


def test_classification_json_shape():
    d = classify_three_with_one(complete_bipartite(2, 2)).to_json_dict()
    assert d["verdict"] == "CompleteBipartite"
    assert d["params"] == [2, 2]
    assert d["spectrum"]["order"] == 4


# -- spectral context and suite registry -----------------------------------


@pytest.mark.parametrize("token", ["P4", "Kmulti:2,3", "U2:1"])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_assembles_and_solves_l_once(name, token, monkeypatch):
    g = parse_family(token)
    built, solved = [], []
    real_build, real_jacobi = nlspec.build, nlspec.jacobi_eigen

    def counting_build(h):
        built.append(h)
        return real_build(h)

    def counting_jacobi(m, *args, **kwargs):
        solved.append(len(m))
        return real_jacobi(m, *args, **kwargs)

    monkeypatch.setattr(nlspec, "build", counting_build)
    monkeypatch.setattr(nlspec, "jacobi_eigen", counting_jacobi)
    SUITES[name](SpectralContext(g))
    assert len(built) <= 1
    assert solved.count(g.n) <= 1
    # besides L, only the factorization suite solves a matrix: the smaller
    # Gram matrix of the biadjacency block
    assert len(solved) - solved.count(g.n) <= (name == "bipartite-factorization")


# -- properties on random connected graphs ---------------------------------


@st.composite
def connected_graphs(draw, max_n=20):
    """A random tree on 2..max_n vertices (lemma22 needs two) plus random
    extra edges.  Half the draws are bipartite: every edge then joins two
    colour classes, which vertices 0 and 1 both seed, and leaves hung on one
    vertex are an independent duplicate class."""
    n = draw(st.integers(2, max_n))
    bipartite = draw(st.booleans())
    colour = [0, 1] + [draw(st.integers(0, 1)) for _ in range(n - 2)] if bipartite else [0] * n

    def allowed(u, v):
        return not bipartite or colour[u] != colour[v]

    parents = [draw(st.sampled_from([u for u in range(v) if allowed(u, v)])) for v in range(1, n)]
    edges = set(zip(parents, range(1, n)))
    extra = [(u, v) for v in range(n) for u in range(v) if allowed(u, v) and (u, v) not in edges]
    if extra:
        edges |= set(draw(st.lists(st.sampled_from(extra), max_size=2 * n)))
    return from_edge_list(n, sorted(edges))


@settings(deadline=None, max_examples=60)
@given(connected_graphs())
def test_lemma22_holds_on_random_connected_graphs(g):
    assert SUITES["lemma22"](SpectralContext(g)).passed


@settings(deadline=None, max_examples=60)
@given(connected_graphs())
def test_cor21_holds_on_random_connected_graphs(g):
    report = SUITES["cor21"](SpectralContext(g))
    twins = any(c.kind == "independent" for c in duplicate_classes(g))
    assert report.applicable == (bipartite_split(g) is not None and twins)
    assert report.passed
