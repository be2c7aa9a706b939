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
`connected_classes` builds them order by order by canonical augmentation:
each class on n - 1 vertices gets a new vertex joined to one subset of its
vertices per orbit of its automorphism group, and a child is kept only if
its new vertex is in the orbit of its canonical deletion vertex, so each
class comes out once, from one parent, without a dedup.  The canonical
code comes from colour refinement plus an individualization search over
bitmask adjacency rows that prunes with the automorphisms it finds.  The
refinement counts neighbours only in the cells that changed (the
individualized vertex, then all but the last part of each cell that
split), which splits the same cells in the same order as counting them in
every cell.  The search also returns |Aut|, generators of Aut and the
canonical order; each class keeps its rows and generators in that order,
so the labeled counts come out as sums of n!/|Aut|, the next order's
subsets can be taken one per orbit, and the scans solve the rows as they
are.  The unicyclic family members are pairwise
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

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nlspec
from .families import all_unicyclic_specs, unicyclic
from .graph import Graph, bipartite_split, reach, relabel, to_graph6
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
    """A property of the clustered L-spectrum used to filter scans, in the
    three forms of PREDICATE_GRAMMAR.  The target eigenvalue 1 matches an
    eigenvalue within the cluster tolerance.

    kinds:
      "distinct"          -- exactly k distinct eigenvalues
      "distinct-with-one" -- exactly k distinct, one of them 1
      "second-least-one"  -- second-least distinct eigenvalue = 1
    """

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("distinct", "distinct-with-one", "second-least-one"):
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if self.kind != "second-least-one" and (self.k is None or self.k < 1):
            raise ValueError("predicate needs a positive distinct count")

    def describe(self) -> str:
        if self.kind == "distinct":
            return f"{self.k} distinct L-eigenvalues"
        if self.kind == "distinct-with-one":
            return f"{self.k} distinct L-eigenvalues including {format_value(1.0)}"
        return f"second-least distinct L-eigenvalue = {format_value(1.0)}"

    def matches(self, spec: Spectrum) -> bool:
        """Exact-route evaluation on a clustered spectrum."""
        tol = spec.cluster_tol
        if self.kind == "distinct":
            return spec.distinct_count == self.k
        if self.kind == "distinct-with-one":
            return spec.distinct_count == self.k and any(abs(v - 1.0) <= tol for v in spec.values)
        return spec.distinct_count >= 2 and abs(spec.values[-2] - 1.0) <= tol

    def matches_batch(self, vals: np.ndarray, cluster_tol: float) -> np.ndarray:
        """Fast-route evaluation on ascending eigenvalue rows (B, n)."""
        gaps = np.diff(vals, axis=1)
        distinct = 1 + (gaps > cluster_tol).sum(axis=1)
        if self.kind == "distinct":
            return distinct == self.k
        if self.kind == "distinct-with-one":
            return (distinct == self.k) & (np.abs(vals - 1.0) <= cluster_tol).any(axis=1)
        if vals.shape[1] == 1:
            return np.zeros(len(vals), dtype=bool)
        new = gaps > cluster_tol
        has_gap = new.any(axis=1)
        first = np.argmax(new, axis=1)
        second = vals[np.arange(len(vals)), first + 1]
        return has_gap & (np.abs(second - 1.0) <= cluster_tol)


PREDICATE_GRAMMAR = """\
distinct:<k>          exactly k distinct L-eigenvalues, e.g. distinct:4
distinct-with-one:<k> exactly k distinct L-eigenvalues, one of them 1
second-least-one      second-least distinct L-eigenvalue equal to 1"""


def parse_predicate(token: str) -> SpectrumPredicate:
    """Parse a predicate token (see PREDICATE_GRAMMAR)."""
    token = token.strip()
    for kind in ("distinct", "distinct-with-one"):
        if token.startswith(kind + ":"):
            return SpectrumPredicate(kind=kind, k=int(token.split(":", 1)[1]))
    if token == "second-least-one":
        return SpectrumPredicate(kind="second-least-one")
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


def _canonical_search(
    adj: tuple[int, ...],
) -> tuple[int, int, list[tuple[int, ...]], list[int]]:
    """Canonical code, automorphism group order, generators of Aut (each a
    tuple mapping vertex v to perm[v]) and canonical order (the vertex that
    becomes vertex i, for each i) of the graph with adjacency rows `adj`.

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
    return best[0], aut, gens, best[2]


def canonical_form(g: Graph) -> int:
    """Canonical code of g: equal values mean isomorphic graphs.

    The code is the adjacency bitstring of a canonical relabeling: the
    upper-triangle pairs (0,1), (0,2), ..., (1,2), ... with the first pair
    most significant.  Guarded to n <= 8, the orders of the connected scan.
    """
    if g.n > 8:
        raise ValueError("canonical_form is limited to n <= 8")
    return _canonical_search(g.adj)[0] if g.n else 0


class _Class(NamedTuple):
    """One isomorphism class: its canonical code, |Aut|, its adjacency rows
    in the canonical labeling (the rows whose code is `code`) and generators
    of Aut in that labeling."""

    code: int
    aut: int
    rows: tuple[int, ...]
    gens: list[tuple[int, ...]]


def connected_classes(n_max: int, bipartite: bool = False) -> dict[int, dict[int, int]]:
    """{n: {canonical code: |Aut|}} over the isomorphism classes of
    connected graphs on n = 1..n_max <= 8 vertices, or of connected
    bipartite graphs on n = 1..n_max <= 10 vertices if `bipartite`, each
    level in ascending code order.

    Level n comes from level n-1 by McKay's canonical augmentation
    ("Isomorph-free exhaustive generation", J. Algorithms 26, 1998): each
    class gets a new vertex joined to the least subset of each orbit of its
    automorphism group on nonempty vertex subsets, and a child is kept only
    if the new vertex is in the orbit of its canonical deletion vertex (see
    `_extend`).
    Every connected graph has a vertex whose deletion leaves it connected (a
    leaf of a spanning tree), so every class has a canonical parent, and it
    comes out once, from that parent, with the least subset of that orbit.
    With `bipartite`, only subsets of one side are joined, since a subset
    meeting both sides would close an odd cycle; deleting a vertex keeps a
    graph bipartite, so no class is lost.
    """
    return {
        n: {c.code: c.aut for c in level}
        for n, level in _class_levels(n_max, bipartite).items()
    }


def _class_levels(n_max: int, bipartite: bool = False) -> dict[int, list[_Class]]:
    """The classes of `connected_classes`, with their canonical rows and
    automorphism generators."""
    cap = 10 if bipartite else 8
    if not 1 <= n_max <= cap:
        raise ValueError(f"n_max must be in 1..{cap}")
    levels = {1: [_Class(0, 1, (0,), [])]}  # K1
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


def _is_cut_vertex(adj: tuple[int, ...], v: int) -> bool:
    """Whether deleting v disconnects the connected graph with rows `adj`."""
    rest = ((1 << len(adj)) - 1) ^ (1 << v)
    return reach(adj, (rest & -rest).bit_length() - 1, rest) != rest


def _rivals(adj: tuple[int, ...]) -> list[int] | None:
    """None if a non-cut vertex of the connected graph with rows `adj`
    outranks its last vertex, else the other non-cut vertices that tie with
    it.  Vertices rank by degree, then by the sum of their neighbours'
    degrees; the last vertex is never a cut vertex."""
    m = len(adj) - 1
    deg = [row.bit_count() for row in adj]

    def neighbour_degrees(v: int) -> int:
        total, row = 0, adj[v]
        while row:
            low = row & -row
            row ^= low
            total += deg[low.bit_length() - 1]
        return total

    ties = []
    key = None
    for v in range(m):
        if deg[v] < deg[m]:
            continue
        if deg[v] == deg[m]:
            key = neighbour_degrees(m) if key is None else key
            other = neighbour_degrees(v)
            if other < key:
                continue
            if other == key:
                if not _is_cut_vertex(adj, v):
                    ties.append(v)
                continue
        if not _is_cut_vertex(adj, v):
            return None
    return ties


def _in_orbit(u: int, v: int, gens: list[tuple[int, ...]]) -> bool:
    """Whether the group generated by `gens` maps u to v."""
    seen = {u}
    stack = [u]
    while stack:
        w = stack.pop()
        for perm in gens:
            if perm[w] not in seen:
                seen.add(perm[w])
                stack.append(perm[w])
    return v in seen


def _extend(m: int, level: list[_Class], bipartite: bool) -> list[_Class]:
    """The classes on m + 1 vertices whose canonical parent is in `level`,
    in ascending code order.

    A child's new vertex m is never a cut vertex: deleting it leaves the
    parent.  The child is kept only if m lies in the Aut-orbit of its
    canonical deletion vertex: among the non-cut vertices of highest rank
    (see `_rivals`), the one that comes first in the canonical order.  A
    child in which another non-cut vertex outranks m is dropped before any
    search; otherwise the search that gives the child's code and
    automorphisms also settles a tie."""
    new_bit = 1 << m
    out = []
    for parent in level:
        if bipartite:
            split = bipartite_split(Graph(m, parent.rows))
            subsets = sorted(_submasks(split.part1) + _submasks(split.part2))
        else:
            subsets = range(1, new_bit)
        for subset in _orbit_minima(subsets, parent.gens):
            adj = tuple(
                row | new_bit if subset >> v & 1 else row for v, row in enumerate(parent.rows)
            ) + (subset,)
            ties = _rivals(adj)
            if ties is None:
                continue
            code, aut, gens, order = _canonical_search(adj)
            if ties:
                first = next(v for v in order if v == m or v in ties)
                if first != m and not _in_orbit(m, first, gens):
                    continue
            out.append(_Class(code, aut, *_relabel(adj, order, gens)))
    out.sort(key=lambda c: c.code)
    return out


def _relabel(
    adj: tuple[int, ...], order: list[int], gens: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Adjacency rows and permutations with vertex order[i] renamed i."""
    position = [0] * len(order)
    for i, v in enumerate(order):
        position[v] = i
    return relabel(adj, order), [tuple(position[perm[v]] for v in order) for perm in gens]


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


def _batched_l_values(adjs: list[tuple[int, ...]], n: int) -> np.ndarray:
    """Ascending L-eigenvalues, one row per graph on n vertices given by its
    adjacency rows, from the Laplacians of `nlspec.assemble`."""
    return np.linalg.eigvalsh(nlspec.assemble(adjs, n)[2])


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
    adjs: list[tuple[int, ...]],
    predicate: SpectrumPredicate | None,
    cluster_tol: float,
    borderline_log: list[dict],
    labels: list[str] | None = None,
) -> tuple[list[tuple[int, Spectrum]], np.ndarray, np.ndarray]:
    """Test the graphs with adjacency rows `adjs` (any mix of orders)
    against the predicate with one batched eigensolve per order; returns the
    matches as (index, spectrum) pairs in input order, the nominated mask
    and each graph's distinct count.  No predicate nominates every graph.

    A nominated graph's clustered eigenvalue row must also pass
    `predicate.matches`.  A graph with a neighbouring gap in the window
    [cluster_tol / 10, 10 * cluster_tol], where rounding could decide whether
    the two values cluster, is tested the same way whether or not it was
    nominated, and logged under its label if given, else with its
    nomination."""
    orders = np.array([len(adj) for adj in adjs])
    nominated, ambiguous, distinct = (np.zeros(len(adjs), dtype=t) for t in (bool, bool, int))
    row_of: dict[int, np.ndarray] = {}
    for n in set(orders.tolist()):  # not np.unique: it imports numpy.ma (~1 MB)
        rows = np.flatnonzero(orders == n)
        vals = _batched_l_values([adjs[i] for i in rows], n)
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
            g = Graph(len(adjs[i]), adjs[i])
            borderline_log.append(
                {
                    "n": g.n,
                    "graph6": to_graph6(g),
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
    classes: list[_Class],
    predicate: SpectrumPredicate,
    cluster_tol: float,
    hits: dict,
    borderline_log: list[dict],
) -> dict:
    """Fold the `classes` on n vertices that match the predicate into
    `hits`; returns the counts."""
    adjs = [c.rows for c in classes]
    matches, nominated, _ = _scan_order(adjs, predicate, cluster_tol, borderline_log)
    for i, spec in matches:
        code = classes[i].code
        hits[(n, code)] = _hit(Graph(n, adjs[i]), code, spec)
    return {"eigensolved": len(classes), "candidates": int(nominated.sum()), "hits": len(matches)}


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
            "connected": sum(math.factorial(n) // c.aut for c in level),
            **_scan_classes(n, level, predicate, cluster_tol, hits, borderline_log),
        }
        for n, level in _class_levels(n_max).items()
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
    level = _class_levels(n, bipartite=True)[n]
    pendant = [c for c in level if any(row.bit_count() == 1 for row in c.rows)]
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
    # the largest member, U4(p, p, p), has 3 + 3p vertices, 63 at the cap;
    # the uint64 rows of the batched solve would hold 64, so the cap of 20
    # bounds the scan's size, not its row width
    if not 1 <= param_max <= 20:
        raise ValueError("param_max must be in 1..20")
    specs = all_unicyclic_specs(param_max)
    graphs = [unicyclic(spec) for spec in specs]
    labels = [str(spec) for spec in specs]
    borderline_log: list[dict] = []
    matches, _, distinct = _scan_order(
        [g.adj for g in graphs], predicate, cluster_tol, borderline_log, labels
    )
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
