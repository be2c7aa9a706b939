"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints `criterion N: PASS/FAIL — summary` (visible with pytest -s
or in captured output on failure) and asserts both correctness and the
stated runtime budget.
"""

import itertools
import time

import numpy as np
import pytest

from closed_forms import (
    predicted_incidence_adjacency_spectrum,
    quadratic_roots,
    u4_symmetric_factors,
    u4_symmetric_spectrum,
)
from speclap.designs import (
    FiniteField,
    complement,
    hadamard_of_order,
    hadamard_to_design,
    incidence_graph,
    paley1,
    paley2,
    prime_power,
    sylvester_of_order,
)
from speclap.families import (
    all_unicyclic_specs,
    complete_bipartite,
    complete_multipartite,
    cycle,
    path,
    pendant_join,
    pendant_join_family,
    predicted_complete_bipartite_spectrum,
    predicted_pendant_join_spectrum,
    predicted_regular_multipartite_spectrum,
    unicyclic,
)
from speclap.graph import bipartite_split, duplicate_classes, from_edge_list, is_connected
from speclap.linalg import spectra_match
from speclap.nlspec import (
    adjacency_spectrum,
    check_bipartite_duplicate_parity,
    check_bipartite_factorization,
    check_duplicate_classes,
    check_spectrum_fundamentals,
    l_spectrum,
)
from speclap.scans import (
    canonical_form,
    parse_predicate,
    scan_bipartite_pendant,
    scan_connected,
    scan_unicyclic,
)


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")


# 1 ------------------------------------------------------------------------

PAPER_SPECTRA = {
    "U2:1": [(1.7287, 1), (1.5000, 1), (0.7713, 1), (0.0, 1)],
    "U3:1,1": [(1.7676, 1), (1.6667, 1), (1.0, 1), (0.5657, 1), (0.0, 1)],
    "U5:1": [(1.8566, 1), (1.5000, 1), (1.2975, 1), (0.3459, 1), (0.0, 1)],
    "U6:1,1": [(1.8762, 1), (1.5000, 2), (0.7838, 1), (0.3400, 1), (0.0, 1)],
    "U8:1": [(2.0, 1), (1.4082, 1), (1.0, 1), (0.5918, 1), (0.0, 1)],
    "U9:1,1": [(2.0, 1), (1.5000, 1), (1.3333, 1), (0.6667, 1), (0.5000, 1), (0.0, 1)],
    "U11:1": [(1.8691, 1), (1.8090, 1), (1.1759, 1), (0.6910, 1), (0.4550, 1), (0.0, 1)],
    "U12:1,1": [
        (1.8931, 1),
        (1.8259, 1),
        (1.3766, 1),
        (1.0, 1),
        (0.4642, 1),
        (0.4402, 1),
        (0.0, 1),
    ],
    "C4": [(2.0, 1), (1.0, 2), (0.0, 1)],
    "C5": [(1.8090, 2), (0.6910, 2), (0.0, 1)],
    "P4": [(2.0, 1), (1.5, 1), (0.5, 1), (0.0, 1)],
}


def test_criterion_1_paper_spectra():
    from speclap.families import parse_family

    start = time.perf_counter()
    bad = []
    for token, expected in PAPER_SPECTRA.items():
        spec = l_spectrum(parse_family(token))
        pairs = spec.pairs
        if len(pairs) != len(expected):
            bad.append((token, "distinct count"))
            continue
        for (v, m), (ev, em) in zip(pairs, expected):
            if m != em or abs(v - ev) > 5e-4:
                bad.append((token, f"{v:.5f} vs {ev}"))
                break
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    report(1, ok, f"{len(PAPER_SPECTRA)} printed spectra at ±5e-4, {elapsed:.2f}s")
    assert not bad, bad
    assert elapsed < 1.0


# 2 ------------------------------------------------------------------------


def test_criterion_2_closed_form_families():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in range(2, 13):
        for s in range(1, n):
            g = complete_bipartite(s, n - s)
            ok, dev = spectra_match(
                l_spectrum(g), predicted_complete_bipartite_spectrum(s, n - s), 1e-9
            )
            assert ok, (s, n, dev)
            worst = max(worst, dev)
            cases += 1
    for n in range(3, 13):
        for r in range(3, n + 1):
            if n % r:
                continue
            g = complete_multipartite([n // r] * r)
            ok, dev = spectra_match(
                l_spectrum(g), predicted_regular_multipartite_spectrum(r, n), 1e-9
            )
            assert ok, (r, n, dev)
            worst = max(worst, dev)
            cases += 1
    elapsed = time.perf_counter() - start
    report(2, elapsed < 5.0, f"{cases} closed forms at 1e-9 (worst {worst:.1e}), {elapsed:.2f}s")
    assert elapsed < 5.0


# 3 ------------------------------------------------------------------------


def test_criterion_3_pendant_join_construction():
    start = time.perf_counter()
    for t in (1, 2, 3):
        g, _ = pendant_join_family(t)
        predicted = predicted_pendant_join_spectrum(t)
        assert predicted.pairs[0][1] == 1
        assert predicted.pairs[1][1] == 4 * t - 1
        assert predicted.pairs[2][1] == 4 * t - 1
        assert predicted.pairs[3][1] == 1
        ok, dev = spectra_match(l_spectrum(g), predicted, 1e-9)
        assert ok, (t, dev)
    # t = 2 again from the explicit doubling matrix rather than the default
    h = sylvester_of_order(8)
    gprime, split = incidence_graph(complement(hadamard_to_design(h)))
    g2 = pendant_join(gprime, split)
    ok, dev = spectra_match(l_spectrum(g2), predicted_pendant_join_spectrum(2), 1e-9)
    assert ok, dev
    elapsed = time.perf_counter() - start
    report(3, elapsed < 5.0, f"t=1,2,3 spectra at 1e-9 with (1,4t-1,4t-1,1), {elapsed:.2f}s")
    assert elapsed < 5.0


# 4 ------------------------------------------------------------------------


def hadamard_suite():
    mats = [sylvester_of_order(m) for m in (2, 4, 8, 16, 32)]
    mats += [paley1(FiniteField(*prime_power(q))) for q in (3, 7, 11, 19, 23, 27)]
    mats += [paley2(FiniteField(*prime_power(q))) for q in (5, 9, 13)]
    return mats


def test_criterion_4_hadamard_suite():
    start = time.perf_counter()
    mats = hadamard_suite()
    # the constructor verifies H H^T = nI exactly; re-check explicitly anyway
    for h in mats:
        n = h.order
        assert np.array_equal(h.array @ h.array.T, n * np.eye(n, dtype=np.int64))
    designs_checked = 0
    for h in mats:
        if h.order < 4:
            continue
        t = h.order // 4
        d = hadamard_to_design(h)
        assert (d.v, d.r, d.lam) == (4 * t - 1, 2 * t - 1, t - 1)
        c = complement(d)
        assert (c.v, c.r, c.lam) == (4 * t - 1, 2 * t, t)
        designs_checked += 1
    elapsed = time.perf_counter() - start
    report(4, elapsed < 5.0, f"{len(mats)} matrices exact, {designs_checked} designs, {elapsed:.2f}s")
    assert elapsed < 5.0


# 5 ------------------------------------------------------------------------


def test_criterion_5_incidence_spectra():
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for h in hadamard_suite():
        if h.order < 4:
            continue
        base = hadamard_to_design(h)
        for d in (base, complement(base)):
            g, _ = incidence_graph(d)
            if not is_connected(g):
                continue
            predicted = predicted_incidence_adjacency_spectrum(d)
            ok, dev = spectra_match(adjacency_spectrum(g), predicted, 1e-9)
            assert ok, (d.v, d.k, d.lam, dev)
            worst = max(worst, dev)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked > 0 and elapsed < 10.0
    report(5, ok, f"{checked} incidence spectra at 1e-9 (worst {worst:.1e}), {elapsed:.2f}s")
    assert checked > 0
    assert elapsed < 10.0


# 6 ------------------------------------------------------------------------


def eq7_canonicals(n_max):
    out = set()
    for n in range(2, n_max + 1):
        for s in range(1, n // 2 + 1):
            if (s, n) == (1, 2):
                continue  # K2 has two distinct eigenvalues
            out.add((n, canonical_form(complete_bipartite(s, n - s))))
        for r in range(3, n):
            if n % r == 0:
                out.add((n, canonical_form(complete_multipartite([n // r] * r))))
    return out


def multipartite_canonicals(n_max):
    out = set()
    for n in range(2, n_max + 1):
        for k in range(2, n + 1):
            for parts in itertools.combinations_with_replacement(range(1, n), k):
                if sum(parts) != n:
                    continue
                if all(p == 1 for p in parts):
                    continue  # complete graph excluded
                out.add((n, canonical_form(complete_multipartite(list(parts)))))
    return out


def test_criterion_6_exhaustive_n7():
    start = time.perf_counter()
    three = scan_connected(7, parse_predicate("distinct-with-one:3"))
    second = scan_connected(7, parse_predicate("second-least-one"))
    elapsed = time.perf_counter() - start
    ok_three = {(h.n, h.canonical) for h in three.hits} == eq7_canonicals(7)
    ok_second = {(h.n, h.canonical) for h in second.hits} == multipartite_canonicals(7)
    report(
        6,
        ok_three and ok_second and elapsed < 300.0,
        f"{len(three.hits)} three-distinct hits, {len(second.hits)} second-least hits, {elapsed:.1f}s",
    )
    assert ok_three
    assert ok_second
    assert elapsed < 300.0


# 7 ------------------------------------------------------------------------


def test_criterion_7_unicyclic_classification():
    start = time.perf_counter()
    three = scan_unicyclic(8, parse_predicate("distinct:3"))
    four = scan_unicyclic(8, parse_predicate("distinct:4"))
    elapsed = time.perf_counter() - start
    got3 = sorted(h.label for h in three.hits)
    got4 = sorted(h.label for h in four.hits)
    ok = got3 == ["U10", "U7"] and got4 == ["U13", "U14", "U2:1", "U4:1,1,1"]
    report(7, ok and elapsed < 10.0, f"3-distinct {got3}, 4-distinct {got4}, {elapsed:.1f}s")
    assert got3 == ["U10", "U7"]
    assert got4 == ["U13", "U14", "U2:1", "U4:1,1,1"]
    assert elapsed < 10.0


# 8 ------------------------------------------------------------------------


def test_criterion_8_bipartite_pendant_exhaustive():
    start = time.perf_counter()
    survivors = {}
    for n in range(2, 9):
        rep = scan_bipartite_pendant(n=n)
        for hit in rep.hits:
            survivors[(hit.n, hit.canonical)] = hit
    elapsed = time.perf_counter() - start
    expected = {
        (4, canonical_form(path(4))),
        (8, canonical_form(pendant_join_family(1)[0])),
    }
    ok = set(survivors) == expected
    report(
        8,
        ok and elapsed < 3600.0,
        f"survivors at n<=8: {sorted(h.graph6 for h in survivors.values())}, {elapsed:.0f}s",
    )
    assert set(survivors) == expected
    assert elapsed < 3600.0


# 9 ------------------------------------------------------------------------


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


def random_bipartite(n1, n2, p, rng):
    edges = [(u, n1 + v) for u in range(n1) for v in range(n2) if rng.random() < p]
    return from_edge_list(n1 + n2, edges)


def test_criterion_9_randomized_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(31415)
    graphs = []
    for _ in range(250):
        n = int(rng.integers(2, 13))
        graphs.append(random_graph(n, float(rng.uniform(0.1, 0.9)), rng))
    for _ in range(250):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 13 - n1))
        graphs.append(random_bipartite(n1, n2, float(rng.uniform(0.2, 0.9)), rng))
    assert len(graphs) == 500

    fundamentals = duplicates = factorizations = parities = 0
    for g in graphs:
        rep = check_spectrum_fundamentals(g)
        assert rep.passed, f"fundamentals failed on {g}"
        fundamentals += 1
        if duplicate_classes(g):
            rep = check_duplicate_classes(g)
            assert rep.passed, f"duplicate classes failed on {g}"
            duplicates += 1
        if bipartite_split(g) is not None and all(d > 0 for d in g.degrees()):
            rep = check_bipartite_factorization(g)
            assert rep.applicable and rep.passed, f"factorization failed on {g}"
            factorizations += 1
        rep = check_bipartite_duplicate_parity(g)
        if rep.applicable:
            assert rep.passed, f"parity failed on {g}"
            parities += 1
    elapsed = time.perf_counter() - start
    detail = (
        f"500 graphs: {fundamentals} fundamentals, {duplicates} duplicate-class, "
        f"{factorizations} factorizations, {parities} parity, {elapsed:.1f}s"
    )
    report(9, elapsed < 30.0, detail)
    assert duplicates > 50 and factorizations > 50 and parities > 20
    assert elapsed < 30.0


# 10 -----------------------------------------------------------------------


def test_criterion_10_u4_factorization():
    start = time.perf_counter()
    for a in range(1, 9):
        linear, quad, ones, zeros = u4_symmetric_factors(a)
        b2, b1, b0 = quad
        disc = b1 * b1 - 4 * b2 * b0
        assert disc == 4 * a * a + 8 * a + 1 > 0
        hi, lo = quadratic_roots(float(b2), float(b1), float(b0))
        values = sorted(
            [-linear[1] / linear[0], hi, hi, lo, lo] + [1.0] * ones + [0.0] * zeros,
            reverse=True,
        )
        computed = np.sort(l_spectrum(unicyclic("U4", (a, a, a))).expand())[::-1]
        assert np.allclose(computed, values, atol=1e-8), a
        ok, dev = spectra_match(
            l_spectrum(unicyclic("U4", (a, a, a))), u4_symmetric_spectrum(a), 1e-8
        )
        assert ok, (a, dev)
    elapsed = time.perf_counter() - start
    report(10, elapsed < 1.0, f"a=1..8 factorizations at 1e-8, {elapsed:.2f}s")
    assert elapsed < 1.0
