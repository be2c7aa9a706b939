"""Reference answers the benchmark checks speclap's outputs against.

Nothing here imports speclap.  Spectra come from numpy's LAPACK `eigvalsh`
on a normalized Laplacian assembled from an adjacency matrix, expected hit sets
are built with networkx and compared up to isomorphism, graph counts are
published OEIS constants, and design and incidence spectra follow from
their closed forms.  Each check returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

#: labeled connected graphs on n vertices, OEIS A001187
A001187 = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}

#: L-spectra printed to four decimals in the paper's table (descending)
PAPER_SPECTRA = {
    "U2:1": [(1.7287, 1), (1.5000, 1), (0.7713, 1), (0.0, 1)],
    "U3:1,1": [(1.7676, 1), (1.6667, 1), (1.0, 1), (0.5657, 1), (0.0, 1)],
    "U5:1": [(1.8566, 1), (1.5000, 1), (1.2975, 1), (0.3459, 1), (0.0, 1)],
    "U6:1,1": [(1.8762, 1), (1.5000, 2), (0.7838, 1), (0.3400, 1), (0.0, 1)],
    "U8:1": [(2.0, 1), (1.4082, 1), (1.0, 1), (0.5918, 1), (0.0, 1)],
    "U9:1,1": [(2.0, 1), (1.5000, 1), (1.3333, 1), (0.6667, 1), (0.5000, 1), (0.0, 1)],
    "U11:1": [(1.8691, 1), (1.8090, 1), (1.1759, 1), (0.6910, 1), (0.4550, 1), (0.0, 1)],
    "U12:1,1": [
        (1.8931, 1), (1.8259, 1), (1.3766, 1), (1.0, 1), (0.4642, 1), (0.4402, 1), (0.0, 1),
    ],
    "C4": [(2.0, 1), (1.0, 2), (0.0, 1)],
    "C5": [(1.8090, 2), (0.6910, 2), (0.0, 1)],
    "P4": [(2.0, 1), (1.5, 1), (0.5, 1), (0.0, 1)],
}
PAPER_TOL = 5e-4

#: the paper's unicyclic classification by distinct L-eigenvalue count
UNICYCLIC_CLASSES = {3: ["U10", "U7"], 4: ["U13", "U14", "U2:1", "U4:1,1,1"]}

CLUSTER_TOL = 1e-6  # speclap's default clustering tolerance
VALUE_TOL = 1e-6  # printed values carry 10 significant digits


# -- graphs and spectra --------------------------------------------------


def graph6(n: int, edges) -> str:
    """graph6 string of a graph on n <= 62 vertices."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [sum(b << (5 - s) for s, b in enumerate(bits[k : k + 6])) for k in range(0, len(bits), 6)]
    return "".join(chr(63 + x) for x in [n] + body)


def l_values(a: np.ndarray) -> np.ndarray:
    """Ascending normalized-Laplacian eigenvalues (graphs without isolated
    vertices)."""
    s = 1.0 / np.sqrt(a.sum(axis=1))
    return np.linalg.eigvalsh(np.eye(len(a)) - a * s[:, None] * s[None, :])


def cluster(values, tol: float = CLUSTER_TOL) -> list[tuple[float, int]]:
    """(mean, multiplicity) clusters of a value list, descending."""
    vals = sorted(values)
    groups: list[list[float]] = []
    for v in vals:
        if groups and v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(sum(g) / len(g), len(g)) for g in reversed(groups)]


def merge_pairs(pairs) -> list[tuple[float, int]]:
    """Closed-form (value, multiplicity) pairs with coincident values merged,
    zero multiplicities dropped, descending."""
    out: dict[float, int] = {}
    for v, m in pairs:
        if m > 0:
            key = next((k for k in out if abs(k - v) <= 1e-12), v)
            out[key] = out.get(key, 0) + m
    return sorted(out.items(), reverse=True)


def pairs_match(got, want, tol: float) -> bool:
    return len(got) == len(want) and all(
        gm == wm and abs(gv - wv) <= tol for (gv, gm), (wv, wm) in zip(got, want)
    )


def parse_spectrum_text(text: str) -> list[tuple[float, int]]:
    """`1.5, 1^2, 0` -> [(1.5, 1), (1.0, 2), (0.0, 1)]."""
    out = []
    for part in text.split(","):
        value, _, mult = part.strip().partition("^")
        out.append((float(value), int(mult) if mult else 1))
    return out


def bipartite(a: np.ndarray) -> bool:
    n = len(a)
    side = [-1] * n
    for start in range(n):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in np.nonzero(a[u])[0]:
                if side[v] < 0:
                    side[v] = 1 - side[u]
                    stack.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def twin_classes(a: np.ndarray) -> tuple[int, int]:
    """(independent, clique) twin-class counts: vertex sets of size >= 2
    sharing their open (resp. closed) neighbourhood and having a neighbour
    outside the set."""
    n = len(a)
    rows = [frozenset(np.nonzero(a[v])[0].tolist()) for v in range(n)]
    counts = []
    for closed in (False, True):
        groups: dict[frozenset, list[int]] = {}
        for v in range(n):
            groups.setdefault(rows[v] | {v} if closed else rows[v], []).append(v)
        counts.append(
            sum(1 for key, vs in groups.items() if len(vs) > 1 and key - set(vs))
        )
    return counts[0], counts[1]


def complete_multipartite(a: np.ndarray) -> bool:
    """True when non-adjacency is an equivalence relation (the complement is
    a disjoint union of cliques)."""
    n = len(a)
    non = [frozenset(v for v in range(n) if v == u or not a[u, v]) for u in range(n)]
    return all(non[v] == non[u] for u in range(n) for v in non[u])


class GraphFacts:
    """What the verify suites' preconditions depend on, computed once."""

    def __init__(self, a: np.ndarray):
        self.n = len(a)
        self.complete = bool(a.sum() == self.n * (self.n - 1))
        self.values = l_values(a)
        self.spectrum = cluster(self.values)
        self.distinct = len(self.spectrum)
        self.has_one = any(abs(v - 1.0) <= VALUE_TOL for v, _ in self.spectrum)
        self.bipartite = bipartite(a)
        self.independent_twins, self.clique_twins = twin_classes(a)
        self.multipartite = complete_multipartite(a)


# -- verify reports ------------------------------------------------------


def check_verify_report(suite: str, label: str, entry: dict, facts: GraphFacts) -> str | None:
    """A verify report for one graph: right suite and input, every
    applicable check passed, and applicability as the spectrum predicts."""
    report = entry.get("report", {})
    if entry.get("input") != label or report.get("suite") != suite:
        return f"report for {entry.get('input')!r}/{report.get('suite')!r}"
    results = report["results"]
    if not report["pass"] or any(r["applicable"] and not r["pass"] for r in results):
        return "an applicable check failed"
    applicable = [r["applicable"] for r in results]
    d = facts.distinct
    if suite in ("lemma22", "eq1") and not any(applicable):
        return "connected-graph checks reported not applicable"
    if suite == "eq1" and results[0]["witness"]["distinct"] != d:
        return f"distinct count {results[0]['witness']['distinct']} != {d}"
    if suite in ("three-ev", "lemma24") and any(applicable) != (d == 3):
        return f"applicability {applicable} with {d} distinct values"
    if suite == "four-ev" and (applicable[0], any(applicable[1:])) != (d == 4, d == 4 and facts.bipartite):
        return f"applicability {applicable} with {d} distinct values"
    if suite == "lemma23":
        want = facts.independent_twins + facts.clique_twins
        got = len(results) if any(applicable) else 0
        if got != want:
            return f"{got} duplicate classes checked, expected {want}"
    if suite == "thm21":
        if not applicable[0] or applicable[-1] != (d == 3):
            return f"applicability {applicable} with {d} distinct values"
        witness = results[0]["witness"]
        if (witness["verdict"] != "NotInClass") != (d == 3 and facts.has_one):
            return f"verdict {witness['verdict']} with {d} distinct values"
    if suite == "cor21":
        want = facts.bipartite and facts.independent_twins > 0
        if any(applicable) != want:
            return f"applicability {applicable}, expected {want}"
    if suite == "cor20":
        if any(applicable) == facts.complete:
            return f"applicability {applicable} on complete={facts.complete}"
        if not facts.complete:
            witness = results[1]["witness"]
            if (witness["parts"] is not None) != facts.multipartite:
                return f"parts {witness['parts']} on multipartite={facts.multipartite}"
            if abs(witness["second_least"] - facts.values[1]) > VALUE_TOL:
                return f"second least {witness['second_least']} != {facts.values[1]}"
    return None


def pendant_join_spectrum(t: int) -> list[tuple[float, int]]:
    """Closed form of the thm41 member on 8t vertices."""
    s = math.sqrt(1.0 / (4 * t + 2))
    return [(2.0, 1), (1 + s, 4 * t - 1), (1 - s, 4 * t - 1), (0.0, 1)]


def check_thm41_report(t: int, entry: dict) -> str | None:
    report = entry.get("report", {})
    if entry.get("input") != f"thm41:{t}" or not report.get("pass"):
        return "thm41 report failed"
    computed = next((r for r in report["results"] if r["check"] == "closed-form-spectrum"), None)
    if computed is None:
        return "thm41 report has no closed-form-spectrum check"
    got = [(v, m) for v, m in computed["witness"]["computed"]]
    if not pairs_match(got, pendant_join_spectrum(t), VALUE_TOL):
        return f"thm41:{t} spectrum {got}"
    return None


# -- exhaustive scans ----------------------------------------------------


def load_networkx():
    """networkx, imported on first use: the oracles run after the measured
    passes, and importing it earlier would add to peak_rss_mb."""
    import networkx

    return networkx


def distinct_with_one_3(nmax: int) -> list:
    """Connected graphs with three distinct L-eigenvalues, one equal to 1:
    K_{s,n-s} except K2, and complete multipartite graphs with r >= 3 equal
    parts of size >= 2."""
    nx = load_networkx()
    out = []
    for n in range(3, nmax + 1):
        out += [nx.complete_bipartite_graph(s, n - s) for s in range(1, n // 2 + 1)]
        out += [
            nx.complete_multipartite_graph(*[n // r] * r)
            for r in range(3, n // 2 + 1)
            if n % r == 0
        ]
    return out


def second_least_one(nmax: int) -> list:
    """Connected graphs whose second-least distinct L-eigenvalue is 1: the
    complete multipartite graphs that are not complete."""
    nx = load_networkx()
    out = []
    for n in range(2, nmax + 1):
        for k in range(2, n + 1):
            for parts in itertools.combinations_with_replacement(range(1, n), k):
                if sum(parts) == n and max(parts) > 1:
                    out.append(nx.complete_multipartite_graph(*parts))
    return out


def same_up_to_isomorphism(expected: list, got_graph6: list[str]) -> str | None:
    nx = load_networkx()
    got = [nx.from_graph6_bytes(s.encode()) for s in got_graph6]
    if len(got) != len(expected):
        return f"{len(got)} hits, expected {len(expected)}"
    unmatched = list(got)
    for g in expected:
        match = next((h for h in unmatched if nx.is_isomorphic(g, h)), None)
        if match is None:
            return f"no hit isomorphic to an expected graph on {g.number_of_nodes()} vertices"
        unmatched.remove(match)
    return None


def check_connected_scan(path: Path, predicate: str, nmax: int) -> str | None:
    report = json.loads(path.read_text())
    for n in range(1, nmax + 1):
        got = report["counts"][str(n)]["connected"]
        if got != A001187[n]:
            return f"{got} connected graphs on {n} vertices, A001187 says {A001187[n]}"
    expected = distinct_with_one_3(nmax) if predicate == "distinct-with-one:3" else second_least_one(nmax)
    return same_up_to_isomorphism(expected, [h["graph6"] for h in report["hits"]])


def check_bipartite_pendant_scan(path: Path, n: int) -> str | None:
    """Through n = 7 the only connected bipartite graph with a pendant
    vertex and four distinct L-eigenvalues is P4."""
    report = json.loads(path.read_text())
    expected = [load_networkx().path_graph(4)] if n == 4 else []
    return same_up_to_isomorphism(expected, [h["graph6"] for h in report["hits"]])


def check_unicyclic_scan(path: Path, k: int) -> str | None:
    report = json.loads(path.read_text())
    labels = sorted(h["label"] for h in report["hits"])
    if labels != UNICYCLIC_CLASSES[k]:
        return f"distinct:{k} hits {labels}, the paper has {UNICYCLIC_CLASSES[k]}"
    nx = load_networkx()
    for h in report["hits"]:
        g = nx.from_graph6_bytes(h["graph6"].encode())
        if g.number_of_edges() != g.number_of_nodes() or not nx.is_connected(g):
            return f"{h['label']} is not unicyclic"
        a = nx.to_numpy_array(g, nodelist=sorted(g))
        if len(cluster(l_values(a))) != k:
            return f"{h['label']} does not have {k} distinct L-eigenvalues"
    return None


# -- Hadamard matrices and designs --------------------------------------


def read_pm_matrix(path: Path) -> np.ndarray:
    rows = path.read_text().split()
    return np.array([[1 if c == "+" else -1 for c in r] for r in rows], dtype=np.int64)


def check_hadamard(path: Path, order: int) -> str | None:
    h = read_pm_matrix(path)
    if h.shape != (order, order):
        return f"shape {h.shape}, expected order {order}"
    if not np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64)):
        return "H H^T != nI"
    return None


def design_params(order: int, complemented: bool) -> tuple[int, int, int]:
    """(v, k, lambda) of the symmetric design from a Hadamard matrix of the
    given order, or of its complement."""
    t = order // 4
    return (4 * t - 1, 2 * t, t) if complemented else (4 * t - 1, 2 * t - 1, t - 1)


def check_design_json(path: Path, order: int, complemented: bool) -> str | None:
    d = json.loads(path.read_text())
    v, k, lam = design_params(order, complemented)
    c = np.array([[int(ch) for ch in row] for row in d["incidence"]], dtype=np.int64)
    if (d["v"], d["b"], d["r"], d["k"], d["lambda"]) != (v, v, k, k, lam):
        return f"parameters {d['v'], d['b'], d['r'], d['k'], d['lambda']}, expected {(v, v, k, k, lam)}"
    gram = c @ c.T
    want = (k - lam) * np.eye(v, dtype=np.int64) + lam
    if c.shape != (v, v) or not (c.sum(axis=0) == k).all() or not np.array_equal(gram, want):
        return "incidence is not a symmetric 2-design with the stated parameters"
    return None


def check_complement_json(path: Path, base: Path, order: int) -> str | None:
    problem = check_design_json(path, order, complemented=True)
    if problem:
        return problem
    rows = json.loads(path.read_text())["incidence"]
    base_rows = json.loads(base.read_text())["incidence"]
    flipped = ["".join("1" if ch == "0" else "0" for ch in r) for r in base_rows]
    return None if rows == flipped else "complement incidence is not 1 - C"


def check_validate_json(path: Path, order: int) -> str | None:
    d = json.loads(path.read_text())
    v, k, lam = design_params(order, complemented=True)
    got = (d.get("valid"), d.get("v"), d.get("k"), d.get("lambda"), d.get("symmetric"))
    return None if got == (True, v, k, lam, True) else f"validate said {got}"


def check_incidence_graph(path: Path, design: Path) -> str | None:
    nx = load_networkx()
    g = nx.from_graph6_bytes(path.read_text().strip().encode())
    rows = json.loads(design.read_text())["incidence"]
    v = len(rows)
    want = {(i, v + j) for i, row in enumerate(rows) for j, ch in enumerate(row) if ch == "1"}
    got = {(min(e), max(e)) for e in g.edges()}
    if g.number_of_nodes() != 2 * v or got != want:
        return "incidence graph does not follow the incidence matrix"
    return None


def incidence_spectra(v: int, k: int, lam: int) -> tuple[list, list]:
    """(L-spectrum, adjacency spectrum) of a symmetric 2-(v, k, lambda)
    design's incidence graph: adjacency +-k simple and +-sqrt(k - lambda)
    with multiplicity v - 1; the graph is k-regular, so L = I - A/k."""
    mid = math.sqrt(k - lam)
    adj = [(k, 1), (mid, v - 1), (-mid, v - 1), (-k, 1)]
    lap = [(1 - x / k, m) for x, m in adj]
    return merge_pairs(lap), merge_pairs(adj)


def check_incidence_spectrum(path: Path, order: int, complemented: bool) -> str | None:
    lap_text, _, adj_text = path.read_text().strip().partition(" | adjacency: ")
    want_lap, want_adj = incidence_spectra(*design_params(order, complemented))
    got_lap, got_adj = parse_spectrum_text(lap_text), parse_spectrum_text(adj_text)
    if not pairs_match(got_adj, want_adj, VALUE_TOL):
        return f"adjacency spectrum {got_adj}, expected {want_adj}"
    if not pairs_match(got_lap, want_lap, VALUE_TOL):
        return f"L-spectrum {got_lap}, expected {want_lap}"
    return None


def check_paper_spectrum(path: Path, token: str) -> str | None:
    got = parse_spectrum_text(path.read_text().strip())
    want = PAPER_SPECTRA[token]
    return None if pairs_match(got, want, PAPER_TOL) else f"{token}: {got}, paper has {want}"


def check_graph6_connected(path: Path) -> str | None:
    nx = load_networkx()
    g = nx.from_graph6_bytes(path.read_text().strip().encode())
    return None if nx.is_connected(g) else "constructed graph is disconnected"
