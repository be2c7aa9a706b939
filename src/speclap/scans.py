"""Exhaustive desk-scale scans over small graphs.

Three searches back the package's classification checks with brute force:

* scan_connected -- every connected graph on up to 8 vertices, one per
  isomorphism class, filtered by a spectrum predicate;
* scan_bipartite_pendant -- every connected bipartite graph on a fixed
  n <= 10 with a degree-1 vertex, one per class, filtered for four distinct
  L-eigenvalues;
* scan_unicyclic -- the parametric unicyclic families up to a parameter
  bound, tabulated by distinct-eigenvalue count.

The first two walk isomorphism classes, not labeled graphs.
`connected_classes` builds them order by order: each class on n - 1
vertices plus a new vertex joined to one subset of its vertices per orbit
of the class's automorphism group, deduplicated by canonical code.  The
code comes from colour refinement plus an individualization search over
bitmask adjacency rows that prunes with the automorphisms it finds.  The
refinement counts neighbours only in the cells that changed (the
individualized vertex, then all but the last part of each cell that
split), which splits the same cells in the same order as counting them in
every cell.  The search also returns |Aut| and generators of Aut, so the
labeled counts come out as sums of n!/|Aut| and the next order's subsets
can be taken one per orbit.  The unicyclic family members are pairwise
non-isomorphic already.  One driver takes all three: it solves each
order's graphs in one batched dense eigensolve, nominates rows with a
vectorized clustered-gap predicate, and clusters each nominated row into
the hit's spectrum, which must pass the predicate too.  Every graph is
solved exactly once.

Every tolerance follows the cluster tolerance `tol` (the CLI's --tol): the
predicate compares values to within `tol`, and a graph with a neighbouring
eigenvalue gap in the window [tol/10, 10*tol], where rounding could decide
the clustering, is tested whether or not the fast route nominated it and
logged as borderline.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .families import all_unicyclic_specs, unicyclic
from .graph import Graph, bipartite_split, from_edge_list, to_graph6
from .linalg import DEFAULT_CLUSTER_TOL, Spectrum, cluster_spectrum, format_value

__all__ = [
    "SpectrumPredicate",
    "parse_predicate",
    "PREDICATE_GRAMMAR",
    "ScanHit",
    "ScanReport",
    "canonical_form",
    "connected_classes",
    "scan_connected",
    "scan_bipartite_pendant",
    "scan_unicyclic",
]

# ---------------------------------------------------------------------------
# predicates


@dataclass(frozen=True)
class SpectrumPredicate:
    """A property of the clustered L-spectrum used to filter scans.  A
    target value matches an eigenvalue within the cluster tolerance.

    kinds:
      "distinct"              -- exactly k distinct eigenvalues
      "distinct-with-value"   -- exactly k distinct, one equal to `value`
      "second-distinct-value" -- second-least distinct eigenvalue = `value`
    """

    kind: str
    k: int | None = None
    value: float | None = None

    def __post_init__(self):
        if self.kind not in ("distinct", "distinct-with-value", "second-distinct-value"):
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if self.kind in ("distinct", "distinct-with-value") and (self.k is None or self.k < 1):
            raise ValueError("predicate needs a positive distinct count")
        if self.kind in ("distinct-with-value", "second-distinct-value") and self.value is None:
            raise ValueError("predicate needs a target value")

    def describe(self) -> str:
        if self.kind == "distinct":
            return f"{self.k} distinct L-eigenvalues"
        if self.kind == "distinct-with-value":
            return f"{self.k} distinct L-eigenvalues including {format_value(self.value)}"
        return f"second-least distinct L-eigenvalue = {format_value(self.value)}"

    def matches(self, spec: Spectrum) -> bool:
        """Exact-route evaluation on a clustered spectrum."""
        tol = spec.cluster_tol
        if self.kind == "distinct":
            return spec.distinct_count == self.k
        if self.kind == "distinct-with-value":
            return spec.distinct_count == self.k and any(
                abs(v - self.value) <= tol for v in spec.values
            )
        return spec.distinct_count >= 2 and abs(spec.values[-2] - self.value) <= tol

    def matches_batch(self, vals: np.ndarray, cluster_tol: float) -> np.ndarray:
        """Fast-route evaluation on ascending eigenvalue rows (B, n)."""
        gaps = np.diff(vals, axis=1)
        distinct = 1 + (gaps > cluster_tol).sum(axis=1)
        if self.kind == "distinct":
            return distinct == self.k
        if self.kind == "distinct-with-value":
            return (distinct == self.k) & (
                np.abs(vals - self.value) <= cluster_tol
            ).any(axis=1)
        if vals.shape[1] == 1:
            return np.zeros(len(vals), dtype=bool)
        new = gaps > cluster_tol
        has_gap = new.any(axis=1)
        first = np.argmax(new, axis=1)
        second = vals[np.arange(len(vals)), first + 1]
        return has_gap & (np.abs(second - self.value) <= cluster_tol)


PREDICATE_GRAMMAR = """\
distinct:<k>          exactly k distinct L-eigenvalues, e.g. distinct:4
distinct-with-one:<k> exactly k distinct L-eigenvalues, one of them 1
second-least-one      second-least distinct L-eigenvalue equal to 1"""


def parse_predicate(token: str) -> SpectrumPredicate:
    """Parse a predicate token (see PREDICATE_GRAMMAR)."""
    token = token.strip()
    if token.startswith("distinct:"):
        return SpectrumPredicate(kind="distinct", k=int(token.split(":", 1)[1]))
    if token.startswith("distinct-with-one:"):
        return SpectrumPredicate(
            kind="distinct-with-value", k=int(token.split(":", 1)[1]), value=1.0
        )
    if token == "second-least-one":
        return SpectrumPredicate(kind="second-distinct-value", value=1.0)
    raise ValueError(
        f"cannot parse predicate token {token!r}; known forms:\n{PREDICATE_GRAMMAR}"
    )


# ---------------------------------------------------------------------------
# canonical forms and isomorphism classes


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Colour refinement of an ordered partition (cells are vertex bitmasks).

    Each round splits every cell by the number of neighbours its vertices
    have in each splitter, sub-cells ordered by those counts (by the first
    splitter's, then the second's, ...), until no cell splits.  The caller
    passes the cells that keep the partition from being equitable: the
    vertex set at the root, the individualized vertex at a child node.
    After a round the splitters are every part of each cell that split
    except its last.  That gives the same partition, in the same order, as
    counting neighbours in every cell: the vertices of a cell have equal
    counts in each cell that did not split and equal totals over the parts
    of each cell that did, so the first count two of them differ in belongs
    to a splitter.  Splits depend on cell positions only, never on vertex
    labels, so relabeling the graph relabels the result.

    The counts are bit-sliced: `slices` holds, for each splitter, the
    binary digits of every vertex's count as vertex masks, most significant
    first, so a cell splits by masking with one digit after another."""
    while splitters:
        slices = []
        for w in splitters:
            if w & (w - 1) == 0:  # one vertex: the counts are its row's bits
                slices.append(adj[w.bit_length() - 1])
                continue
            digits: list[int] = []  # least significant first
            while w:
                low = w & -w
                w ^= low
                carry = adj[low.bit_length() - 1]
                for j, digit in enumerate(digits):
                    digits[j] = digit ^ carry
                    carry &= digit
                    if not carry:
                        break
                else:
                    digits.append(carry)
            slices.extend(reversed(digits))
        out = []
        split = []
        for cell in cells:
            if cell & (cell - 1):
                parts = [cell]
                for digit in slices:
                    ones = cell & digit
                    if ones and ones != cell:
                        parts = [q for p in parts for q in (p & ~digit, p & digit) if q]
                if len(parts) > 1:
                    out += parts
                    split += parts[:-1]
                    continue
            out.append(cell)
        cells, splitters = out, split
    return cells


def _leaf_code(adj: tuple[int, ...], cells: list[int]) -> int:
    """Upper triangle of the adjacency matrix relabeled by a discrete
    partition (the vertex of cell i becomes vertex i), read in row order with
    the first pair most significant."""
    order = [cell.bit_length() - 1 for cell in cells]
    code = 0
    for i, v in enumerate(order):
        row = adj[v]
        for u in order[i + 1 :]:
            code = code << 1 | row >> u & 1
    return code


def _canonical_search(adj: tuple[int, ...]) -> tuple[int, int, list[tuple[int, ...]]]:
    """Canonical code, automorphism group order and generators of Aut (each
    a tuple mapping vertex v to perm[v]) of the graph with adjacency rows
    `adj`.

    Individualization-refinement with automorphism pruning (McKay &
    Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 60, 2014):
    refine, individualize each vertex of the first non-singleton cell in
    turn, refine again, and so on down to discrete partitions.  The tree
    commutes with relabeling, so the largest leaf code is an isomorphism
    invariant, and two leaves with equal codes differ by an automorphism.
    A leaf equal to the first leaf or to the best leaf so far gives one; its
    cycles are merged into the vertex orbits, and the search jumps back to
    the node the two leaves share, because the rest of that branch is the
    automorphism's image of a branch already searched.  On the first path,
    all automorphisms found so far fix the path's individualized vertices,
    so a child in the orbit of an explored child is skipped, and when a node
    is finished its first child's orbit is the whole orbit under that
    stabilizer.  |Aut| is the product of those orbit sizes down the first
    path, and the automorphisms found generate Aut."""
    n = len(adj)
    root = list(range(n))  # union-find over the orbits found so far
    size = [1] * n
    gens: list[tuple[int, ...]] = []
    first: list = []  # [code, path, order] of the first and the best leaf
    best: list = []
    aut = 1

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    def shared(path: tuple[int, ...], other: tuple[int, ...]) -> int:
        depth = 0
        while path[depth] == other[depth]:
            depth += 1
        return depth

    def search(cells: list[int], path: tuple[int, ...], on_first: bool) -> int:
        """Search below one node; returns the depth of the node to go on at."""
        nonlocal aut
        depth = len(path)
        if len(cells) == n:
            code = _leaf_code(adj, cells)
            order = [cell.bit_length() - 1 for cell in cells]
            if not first:
                first[:] = best[:] = code, path, order
                return depth - 1
            match = first if code == first[0] else best if code == best[0] else None
            if match is None:
                if code > best[0]:
                    best[:] = code, path, order
                return depth - 1
            perm = [0] * n
            for u, v in zip(match[2], order):
                perm[u] = v
                ru, rv = find(u), find(v)
                if ru != rv:
                    if size[ru] < size[rv]:
                        ru, rv = rv, ru
                    root[rv] = ru
                    size[ru] += size[rv]
            gens.append(tuple(perm))
            return shared(path, match[1])
        t = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
        explored: list[int] = []
        rest = cells[t]
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if on_first and any(find(v) == find(u) for u in explored):
                continue
            child = cells[:t] + [low, cells[t] ^ low] + cells[t + 1 :]
            resume = search(
                child if len(child) == n else _refine(adj, child, [low]),
                path + (v,),
                on_first and not explored,
            )
            if resume < depth:
                return resume
            explored.append(v)
        if on_first:
            aut *= size[find(explored[0])]
        return depth - 1

    everything = (1 << n) - 1
    search(_refine(adj, [everything], [everything]), (), True)
    return best[0], aut, gens


def canonical_form(g: Graph) -> int:
    """Canonical code of g: equal values mean isomorphic graphs.

    The code is the adjacency bitstring of a canonical relabeling: the
    upper-triangle pairs (0,1), (0,2), ..., (1,2), ... with the first pair
    most significant (`_graph_of_code` decodes it).  Guarded to n <= 8,
    the orders of the connected scan.
    """
    if g.n > 8:
        raise ValueError("canonical_form is limited to n <= 8")
    return _canonical_search(g.adj)[0] if g.n else 0


def _graph_of_code(n: int, code: int) -> Graph:
    """The graph on n vertices whose canonical code is `code`, in its
    canonical labeling."""
    pairs = list(itertools.combinations(range(n), 2))
    return from_edge_list(
        n, [pair for k, pair in enumerate(pairs) if code >> (len(pairs) - 1 - k) & 1]
    )


def connected_classes(n_max: int, bipartite: bool = False) -> dict[int, dict[int, int]]:
    """{n: {canonical code: |Aut|}} over the isomorphism classes of
    connected graphs on n = 1..n_max <= 8 vertices, or of connected
    bipartite graphs on n = 1..n_max <= 10 vertices if `bipartite`.

    Level n is each level n-1 class plus a new vertex joined to a nonempty
    subset of its vertices, deduplicated by canonical code.  That reaches
    every class, because every connected graph has a vertex whose deletion
    leaves it connected (a leaf of a spanning tree).  With `bipartite`, only
    subsets of one side are joined, since a subset meeting both sides would
    close an odd cycle; the same vertex deletion leaves a connected
    bipartite graph, so no class is lost.  Subsets in one orbit of the
    parent's automorphism group give isomorphic graphs, so only the least
    subset of each orbit is joined.  This is McKay's vertex augmentation
    ("Isomorph-free exhaustive generation", J. Algorithms 26, 1998) with
    dedup by canonical code in place of the canonical-deletion test.
    """
    cap = 10 if bipartite else 8
    if not 1 <= n_max <= cap:
        raise ValueError(f"n_max must be in 1..{cap}")
    levels = {1: {0: 1}}  # K1
    for n in range(2, n_max + 1):
        levels[n] = _extend(n - 1, levels[n - 1], bipartite)
    return levels


def _submasks(mask: int) -> list[int]:
    """The nonempty subsets of a bitmask."""
    out = []
    sub = mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return out


def _orbit_minima(subsets, gens: list[tuple[int, ...]]):
    """The least subset of each orbit of the group generated by `gens` on a
    set of vertex subsets closed under it, in the order of `subsets`, which
    must be ascending."""
    seen: set[int] = set()
    for subset in subsets:
        if subset in seen:
            continue
        yield subset
        seen.add(subset)
        stack = [subset]
        while stack:
            s = stack.pop()
            for perm in gens:
                image = 0
                for v, w in enumerate(perm):
                    if s >> v & 1:
                        image |= 1 << w
                if image not in seen:
                    seen.add(image)
                    stack.append(image)


def _extend(m: int, level: dict, bipartite: bool) -> dict:
    """The classes on m + 1 vertices reached from the classes in `level`;
    insertion order is that of the least (parent, subset) reaching each."""
    new_bit = 1 << m
    out: dict[int, int] = {}
    for code in level:
        g = _graph_of_code(m, code)
        if bipartite:
            split = bipartite_split(g)
            subsets = sorted(_submasks(split.part1) + _submasks(split.part2))
        else:
            subsets = range(1, new_bit)
        for subset in _orbit_minima(subsets, _canonical_search(g.adj)[2]):
            adj = tuple(
                row | new_bit if subset >> v & 1 else row for v, row in enumerate(g.adj)
            ) + (subset,)
            canonical, aut, _ = _canonical_search(adj)
            out.setdefault(canonical, aut)
    return out


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ScanHit:
    """One isomorphism class matching the scan predicate."""

    n: int
    canonical: int | None
    graph6: str
    spectrum: Spectrum
    distinct_count: int
    label: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "canonical": self.canonical,
            "graph6": self.graph6,
            "spectrum": self.spectrum.as_dict(),
            "distinct_count": self.distinct_count,
            "label": self.label,
        }


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one scan: deduplicated hits plus bookkeeping counts."""

    scan: str
    predicate: str
    n_range: tuple[int, int]
    hits: tuple[ScanHit, ...]
    counts: dict
    borderline: tuple[dict, ...]
    cluster_tol: float

    def __post_init__(self):
        seen = set()
        for h in self.hits:
            if h.canonical is None:
                continue
            key = (h.n, h.canonical)
            if key in seen:
                raise ValueError(f"duplicate canonical form in hits: {key}")
            seen.add(key)

    def to_json_dict(self) -> dict:
        return {
            "scan": self.scan,
            "predicate": self.predicate,
            "n_range": list(self.n_range),
            "cluster_tol": self.cluster_tol,
            "counts": self.counts,
            "hits": [h.to_json_dict() for h in self.hits],
            "borderline": list(self.borderline),
        }

    def to_csv(self) -> str:
        lines = ["n,graph6,distinct_count,spectrum"]
        for h in self.hits:
            spec = " ".join(
                f"{format_value(v)}:{mult}" for v, mult in h.spectrum.pairs
            )
            lines.append(f"{h.n},{h.graph6},{h.distinct_count},{spec}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# nomination by batched eigensolve


def _batched_l_values(graphs: list[Graph], n: int) -> np.ndarray:
    """Ascending L-eigenvalues, one row per graph on n vertices."""
    rows = np.array([g.adj for g in graphs], dtype=np.int64)
    A = ((rows[:, :, None] >> np.arange(n)[None, None, :]) & 1).astype(float)
    d = A.sum(axis=2)
    s = np.where(d > 0, 1.0 / np.sqrt(np.maximum(d, 1.0)), 0.0)
    L = -(A * s[:, :, None] * s[:, None, :])
    diag = np.arange(n)
    L[:, diag, diag] += (d > 0).astype(float)
    return np.linalg.eigvalsh(L)


def _hit(
    g: Graph, canonical: int | None, spec: Spectrum, label: str | None = None
) -> ScanHit:
    return ScanHit(
        n=g.n,
        canonical=canonical,
        graph6=to_graph6(g),
        spectrum=spec,
        distinct_count=spec.distinct_count,
        label=label,
    )


def _scan_order(
    graphs: list[Graph],
    predicate: SpectrumPredicate | None,
    cluster_tol: float,
    borderline_log: list[dict],
    labels: list[str] | None = None,
) -> tuple[list[tuple[int, Spectrum]], np.ndarray, np.ndarray]:
    """Test `graphs` (any mix of orders) against the predicate with one
    batched eigensolve per order; returns the matches as (index, spectrum)
    pairs in input order, the nominated mask and each graph's distinct
    count.  No predicate nominates every graph.

    A nominated graph's clustered eigenvalue row must also pass
    `predicate.matches`.  A graph with a neighbouring gap in the window
    [cluster_tol / 10, 10 * cluster_tol], where rounding could decide whether
    the two values cluster, is tested the same way whether or not it was
    nominated, and logged under its label if given, else with its
    nomination."""
    orders = np.array([g.n for g in graphs])
    nominated, ambiguous, distinct = (np.zeros(len(graphs), dtype=t) for t in (bool, bool, int))
    row_of: dict[int, np.ndarray] = {}
    for n in {g.n for g in graphs}:  # not np.unique: it imports numpy.ma (~1 MB)
        rows = np.flatnonzero(orders == n)
        vals = _batched_l_values([graphs[i] for i in rows], n)
        nominated[rows] = True if predicate is None else predicate.matches_batch(vals, cluster_tol)
        gaps = np.diff(vals, axis=1)
        ambiguous[rows] = ((gaps >= cluster_tol / 10) & (gaps <= cluster_tol * 10)).any(axis=1)
        distinct[rows] = 1 + (gaps > cluster_tol).sum(axis=1)
        keep = nominated[rows] | ambiguous[rows]
        row_of.update(zip(rows[keep].tolist(), vals[keep]))
    matches = []
    for i in np.flatnonzero(nominated | ambiguous).tolist():
        spec = cluster_spectrum(row_of[i], cluster_tol)
        matched = predicate is None or predicate.matches(spec)
        if ambiguous[i]:
            note = {"label": labels[i]} if labels else {"fast_route_candidate": bool(nominated[i])}
            borderline_log.append(
                {
                    "n": graphs[i].n,
                    "graph6": to_graph6(graphs[i]),
                    "distinct_count": spec.distinct_count,
                    "matched": matched,
                    **note,
                }
            )
        if matched:
            matches.append((i, spec))
    return matches, nominated, distinct


def _scan_classes(
    n: int,
    codes: list[int],
    predicate: SpectrumPredicate,
    cluster_tol: float,
    hits: dict,
    borderline_log: list[dict],
) -> dict:
    """Fold the classes with canonical codes `codes` on n vertices that
    match the predicate into `hits`; returns the counts."""
    graphs = [_graph_of_code(n, code) for code in codes]
    matches, nominated, _ = _scan_order(graphs, predicate, cluster_tol, borderline_log)
    for i, spec in matches:
        hits[(n, codes[i])] = _hit(graphs[i], codes[i], spec)
    return {"eigensolved": len(codes), "candidates": int(nominated.sum()), "hits": len(matches)}


def _finish_report(
    scan: str,
    predicate: SpectrumPredicate | None,
    n_range: tuple[int, int],
    hits: dict,
    counts: dict,
    borderline_log: list[dict],
    cluster_tol: float,
) -> ScanReport:
    ordered = tuple(
        sorted(
            hits.values(),
            key=lambda h: (h.n, h.canonical or 0, h.label or "", h.graph6),
        )
    )
    return ScanReport(
        scan=scan,
        predicate=predicate.describe() if predicate else "all members",
        n_range=n_range,
        hits=ordered,
        counts=counts,
        borderline=tuple(borderline_log),
        cluster_tol=cluster_tol,
    )


# ---------------------------------------------------------------------------
# the three scans


def scan_connected(
    n_max: int,
    predicate: SpectrumPredicate,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> ScanReport:
    """Test every connected graph on 1..n_max <= 8 vertices, one per
    isomorphism class, against the predicate.

    Each order's counts give the classes scanned and, as `connected`, the
    labeled connected graphs they stand for (the sum of n!/|Aut|).
    """
    hits: dict = {}
    borderline_log: list[dict] = []
    counts = {
        str(n): {
            "scanned": len(level),
            "connected": sum(math.factorial(n) // aut for aut in level.values()),
            **_scan_classes(n, list(level), predicate, cluster_tol, hits, borderline_log),
        }
        for n, level in connected_classes(n_max).items()
    }
    return _finish_report(
        "connected", predicate, (1, n_max), hits, counts, borderline_log, cluster_tol
    )


def scan_bipartite_pendant(
    n: int = 8,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> ScanReport:
    """Test every connected bipartite graph on exactly n <= 10 vertices that
    has a vertex of degree 1, one per isomorphism class, for four distinct
    L-eigenvalues."""
    if not 2 <= n <= 10:
        raise ValueError("n must be in 2..10")
    predicate = SpectrumPredicate(kind="distinct", k=4)
    level = connected_classes(n, bipartite=True)[n]
    pendant = [
        code
        for code in level
        if any(row.bit_count() == 1 for row in _graph_of_code(n, code).adj)
    ]
    hits: dict = {}
    borderline_log: list[dict] = []
    counts = {
        str(n): {
            "scanned": len(level),
            **_scan_classes(n, pendant, predicate, cluster_tol, hits, borderline_log),
        }
    }
    return _finish_report(
        "bipartite-pendant", predicate, (n, n), hits, counts, borderline_log, cluster_tol
    )


def scan_unicyclic(
    param_max: int,
    predicate: SpectrumPredicate | None = None,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> ScanReport:
    """Tabulate distinct-eigenvalue counts over all unicyclic family members
    with parameters up to param_max <= 20 (the bare cycles C3..C7 included).

    With a predicate, hits are the members matching it; without one, every
    member becomes a hit, so the report is the full table.  Members are
    pairwise non-isomorphic, so hits are keyed by family label; those on at
    most 8 vertices also carry canonical forms.  A member whose eigenvalues
    have a gap in the borderline window is logged under its label.
    """
    # the largest member, U4(p, p, p), has 3 + 3p vertices: at most 63 keeps
    # each adjacency row inside the int64 of the batched eigensolve
    if not 1 <= param_max <= 20:
        raise ValueError("param_max must be in 1..20")
    specs = all_unicyclic_specs(param_max)
    graphs = [unicyclic(spec) for spec in specs]
    labels = [str(spec) for spec in specs]
    borderline_log: list[dict] = []
    matches, _, distinct = _scan_order(graphs, predicate, cluster_tol, borderline_log, labels)
    hits = {}
    for i, spec in matches:
        g = graphs[i]
        hits[labels[i]] = _hit(g, canonical_form(g) if g.n <= 8 else None, spec, labels[i])
    counts = {
        "members": len(specs),
        "by_n": dict(Counter(str(g.n) for g in graphs)),
        "by_distinct": dict(Counter(str(d) for d in distinct)),
    }
    ns = [h.n for h in hits.values()] or [3, 3 + 3 * param_max]
    return _finish_report(
        "unicyclic", predicate, (min(ns), max(ns)), hits, counts, borderline_log, cluster_tol
    )
