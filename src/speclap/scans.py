"""Exhaustive desk-scale scans over small graphs.

Three searches back the package's classification checks with brute force:

* scan_connected -- every labeled connected graph on up to 7 vertices (8
  behind an override), filtered by a spectrum predicate;
* scan_bipartite_pendant -- every labeled graph on a fixed n <= 8 that is
  connected, bipartite and has a degree-1 vertex, filtered for four
  distinct L-eigenvalues;
* scan_unicyclic -- the parametric unicyclic families up to a parameter
  bound, tabulated by distinct-eigenvalue count.

The two mask scans share one per-order driver.  The labeled-mask space is
processed in blocks with a fully vectorized pipeline (edge-bit extraction,
adjacency row masks, popcount degrees, even/odd reachability for
connectedness + bipartiteness, batched dense eigensolves) and a cheap
clustered-gap predicate.  The candidates it nominates are walked in
ascending mask order and keyed by canonical form (minimal adjacency
bitstring over all vertex permutations); the first one of each isomorphism
class is *confirmed* with the package's own Jacobi eigensolver, so each
class is solved once, not each labeled copy.

Every tolerance follows the cluster tolerance `tol` (the CLI's --tol): the
predicate compares values to within `tol`, and a graph with a neighbouring
eigenvalue gap in the window [tol/10, 10*tol], where rounding could decide
the clustering, is re-solved at tightened precision and logged as
borderline, whether or not the fast route matched it.  The unicyclic scan
applies the same window to each member's raw eigenvalues.

Blocks can be spread over worker processes; results are merged in block
order, so parallel and serial runs return identical reports.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .families import all_unicyclic_specs, unicyclic
from .graph import Graph, to_graph6
from .linalg import (
    DEFAULT_CLUSTER_TOL,
    Spectrum,
    cluster_spectrum,
    format_value,
    jacobi_eigen,
)
from .nlspec import build

__all__ = [
    "SpectrumPredicate",
    "parse_predicate",
    "PREDICATE_GRAMMAR",
    "ScanHit",
    "ScanReport",
    "canonical_form",
    "scan_connected",
    "scan_bipartite_pendant",
    "scan_unicyclic",
]

_BLOCK = 1 << 18
_EIG_CHUNK = 1 << 15

# number of labeled connected graphs on n vertices, for self-checks
LABELED_CONNECTED_COUNTS = {
    1: 1,
    2: 1,
    3: 4,
    4: 38,
    5: 728,
    6: 26704,
    7: 1866256,
    8: 251548592,
}


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
# mask <-> graph plumbing


def graph_from_mask(n: int, mask: int) -> Graph:
    """Decode a labeled graph from its edge bitmask: bit k is the k-th pair
    in (0,1), (0,2), ..., (0,n-1), (1,2), ... order, i.e. upper-triangle row
    order."""
    adj = [0] * n
    for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        if (mask >> k) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def mask_from_graph(g: Graph) -> int:
    """Inverse of graph_from_mask."""
    mask = 0
    for k, (i, j) in enumerate(itertools.combinations(range(g.n), 2)):
        if g.has_edge(i, j):
            mask |= 1 << k
    return mask


_PERMS_CACHE: dict[int, np.ndarray] = {}


def canonical_form(g: Graph) -> int:
    """Minimal adjacency bitstring over all vertex permutations.

    The bitstring reads upper-triangle pairs in row order with the first
    pair most significant, packed into an int; equal values mean isomorphic
    graphs.  Guarded to n <= 8 where the n! sweep is affordable.
    """
    n = g.n
    if n > 8:
        raise ValueError("canonical_form is limited to n <= 8")
    if n <= 1:
        return 0
    perms = _PERMS_CACHE.get(n)
    if perms is None:
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        _PERMS_CACHE[n] = perms
    A = g.adjacency_matrix().astype(np.int64)
    relabeled = A[perms[:, :, None], perms[:, None, :]]
    iu, ju = np.triu_indices(n, 1)
    bits = relabeled[:, iu, ju]
    weights = 1 << (np.arange(len(iu), dtype=np.int64)[::-1])
    return int((bits * weights).sum(axis=1).min())


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

    def hit_canonicals(self) -> set[tuple[int, int]]:
        return {(h.n, h.canonical) for h in self.hits if h.canonical is not None}

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
# the vectorized block pipeline


def _block_rows_degrees(masks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency row masks (B, n) and degrees (B, n) for a mask block."""
    P = n * (n - 1) // 2
    I, J = np.triu_indices(n, 1)  # the pairs in mask-bit order
    bits = ((masks[:, None] >> np.arange(P, dtype=np.int64)[None, :]) & 1).astype(
        np.int32
    )
    rows = np.zeros((len(masks), n), dtype=np.int32)
    for k in range(P):
        rows[:, I[k]] |= bits[:, k] << J[k]
        rows[:, J[k]] |= bits[:, k] << I[k]
    return rows, np.bitwise_count(rows)


def _reach_even_odd(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex masks reachable from vertex 0 by even / odd length walks."""
    even = np.full(len(rows), 1, dtype=np.int32)
    odd = np.zeros(len(rows), dtype=np.int32)
    for _ in range(n):
        grow_odd = np.zeros_like(odd)
        grow_even = np.zeros_like(even)
        for v in range(n):
            in_even = ((even >> v) & 1).astype(bool)
            in_odd = ((odd >> v) & 1).astype(bool)
            grow_odd |= np.where(in_even, rows[:, v], 0)
            grow_even |= np.where(in_odd, rows[:, v], 0)
        odd |= grow_odd
        even |= grow_even
    return even, odd


def _batched_l_values(rows: np.ndarray, degs: np.ndarray, n: int) -> np.ndarray:
    """Ascending L-eigenvalues for each graph of a block, given its adjacency
    row masks and degrees."""
    A = ((rows[:, :, None] >> np.arange(n)[None, None, :]) & 1).astype(float)
    d = degs.astype(float)
    s = np.where(d > 0, 1.0 / np.sqrt(np.maximum(d, 1.0)), 0.0)
    L = -(A * s[:, :, None] * s[:, None, :])
    diag = np.arange(n)
    L[:, diag, diag] += (d > 0).astype(float)
    return np.linalg.eigvalsh(L)


def _borderline(vals: np.ndarray, cluster_tol: float) -> np.ndarray:
    """Whether ascending eigenvalues (one row per graph) have a neighbouring
    gap in the window [cluster_tol / 10, 10 * cluster_tol], where rounding
    could decide whether the two values cluster."""
    gaps = np.diff(vals, axis=-1)
    return ((gaps >= cluster_tol / 10) & (gaps <= cluster_tol * 10)).any(axis=-1)


def _scan_block(task: tuple) -> dict:
    """Process one mask block; returns candidate / borderline masks and
    counters.  Pure function of its arguments (safe as a worker)."""
    n, start, stop, pendant_bipartite, predicate, cluster_tol = task
    masks = np.arange(start, stop, dtype=np.int64)
    rows, degs = _block_rows_degrees(masks, n)
    if pendant_bipartite:
        idx = np.nonzero((degs == 1).any(axis=1))[0]
    else:
        idx = np.arange(len(masks))
    even, odd = _reach_even_odd(rows[idx], n)
    connected = (even | odd) == (1 << n) - 1
    surv = idx[connected & ((even & odd) == 0)] if pendant_bipartite else idx[connected]
    candidates: list[int] = []
    borderline: list[int] = []
    for lo in range(0, len(surv), _EIG_CHUNK):
        chunk = surv[lo : lo + _EIG_CHUNK]
        vals = _batched_l_values(rows[chunk], degs[chunk], n)
        matched = predicate.matches_batch(vals, cluster_tol)
        candidates.extend(masks[chunk[matched]].tolist())
        borderline.extend(masks[chunk[_borderline(vals, cluster_tol)]].tolist())
    return {
        "scanned": len(masks),
        "connected": int(connected.sum()),
        "eigensolved": len(surv),
        "candidates": candidates,
        "borderline": borderline,
    }


def _run_blocks(tasks: list[tuple], jobs: int) -> list[dict]:
    if jobs <= 1:
        return [_scan_block(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_scan_block, tasks, chunksize=1))


# ---------------------------------------------------------------------------
# confirmation with the exact route


def _tight_spectrum(
    g: Graph,
    predicate: SpectrumPredicate | None,
    cluster_tol: float,
    borderline_log: list[dict],
    **note,
) -> Spectrum:
    """Solve a borderline graph at tightened Jacobi precision and log the
    outcome, with the scan's own `note` fields appended."""
    spec = cluster_spectrum(jacobi_eigen(build(g).L, tol=1e-14).values, cluster_tol)
    borderline_log.append(
        {
            "n": g.n,
            "graph6": to_graph6(g) if g.n <= 62 else None,
            "distinct_count": spec.distinct_count,
            "matched": predicate is None or predicate.matches(spec),
            **note,
        }
    )
    return spec


def _hit(
    g: Graph, canonical: int | None, spec: Spectrum, label: str | None = None
) -> ScanHit:
    return ScanHit(
        n=g.n,
        canonical=canonical,
        graph6=to_graph6(g) if g.n <= 62 else "",
        spectrum=spec,
        distinct_count=spec.distinct_count,
        label=label,
    )


def _scan_order(
    n: int,
    pendant_bipartite: bool,
    predicate: SpectrumPredicate,
    cluster_tol: float,
    jobs: int,
    hits: dict,
    borderline_log: list[dict],
) -> dict:
    """Sweep every labeled graph on n vertices (only the connected bipartite
    ones with a pendant vertex when `pendant_bipartite`, else the connected
    ones) and fold new isomorphism classes into `hits`; returns the counts.

    Candidate and borderline masks are walked in ascending order.  A mask is
    solved with the exact route only while its class has no hit yet, or when
    it is borderline (then at tightened precision, and logged), so each class
    is confirmed by its least matching mask."""
    total = 1 << (n * (n - 1) // 2)
    tasks = [
        (n, lo, min(lo + _BLOCK, total), pendant_bipartite, predicate, cluster_tol)
        for lo in range(0, total, _BLOCK)
    ]
    results = _run_blocks(tasks, jobs)
    candidates = {m for r in results for m in r["candidates"]}
    ambiguous = {m for r in results for m in r["borderline"]}
    counts = {"scanned": sum(r["scanned"] for r in results)}
    # after the pendant pre-filter, a connected count would cover only part
    # of the masks, so the bipartite-pendant scan does not report one
    if not pendant_bipartite:
        counts["connected"] = sum(r["connected"] for r in results)
    counts["eigensolved"] = sum(r["eigensolved"] for r in results)
    counts["candidates"] = len(candidates)
    counts["hits"] = 0
    for mask in sorted(candidates | ambiguous):
        g = graph_from_mask(n, mask)
        key = (n, canonical_form(g))
        if mask in ambiguous:
            spec = _tight_spectrum(
                g,
                predicate,
                cluster_tol,
                borderline_log,
                fast_route_candidate=mask in candidates,
            )
        elif key in hits:
            continue
        else:
            spec = cluster_spectrum(jacobi_eigen(build(g).L).values, cluster_tol)
        if key not in hits and predicate.matches(spec):
            hits[key] = _hit(g, key[1], spec)
            counts["hits"] += 1
    return counts


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
    jobs: int = 1,
    allow_n8: bool = False,
) -> ScanReport:
    """Test every labeled connected graph on 1..n_max vertices against the
    predicate; hits are isomorphism classes.

    n_max is capped at 7 (about 2·10^6 labeled graphs) unless `allow_n8`
    raises the cap to 8, which scans 2^28 masks and takes on the order of an
    hour single-threaded.
    """
    cap = 8 if allow_n8 else 7
    if not 1 <= n_max <= cap:
        raise ValueError(
            f"n_max must be in 1..{cap}"
            + ("" if allow_n8 else " (pass allow_n8=True to raise the cap to 8)")
        )
    hits: dict = {}
    borderline_log: list[dict] = []
    counts = {
        str(n): _scan_order(n, False, predicate, cluster_tol, jobs, hits, borderline_log)
        for n in range(1, n_max + 1)
    }
    return _finish_report(
        "connected", predicate, (1, n_max), hits, counts, borderline_log, cluster_tol
    )


def scan_bipartite_pendant(
    n: int = 8,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    jobs: int = 1,
) -> ScanReport:
    """Scan every labeled graph on exactly n <= 8 vertices that is
    connected, bipartite and has a vertex of degree 1, keeping those with
    four distinct L-eigenvalues."""
    if not 2 <= n <= 8:
        raise ValueError("n must be in 2..8")
    predicate = SpectrumPredicate(kind="distinct", k=4)
    hits: dict = {}
    borderline_log: list[dict] = []
    counts = {
        str(n): _scan_order(n, True, predicate, cluster_tol, jobs, hits, borderline_log)
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
    with parameters up to param_max (the bare cycles C3..C7 included).

    With a predicate, hits are the members matching it; without one, every
    member becomes a hit, so the report is the full table.  Hits on at most
    8 vertices carry canonical forms; larger ones are distinguished by their
    family label.  A member whose eigenvalues have a gap in the borderline
    window is re-solved at tightened precision and logged.
    """
    if param_max < 1:
        raise ValueError("param_max must be >= 1")
    specs = all_unicyclic_specs(param_max)
    hits: dict = {}
    borderline_log: list[dict] = []
    by_n: dict = {}
    by_distinct: dict = {}
    for spec in specs:
        g = unicyclic(spec)
        label = str(spec)
        values = jacobi_eigen(build(g).L).values
        if _borderline(np.sort(values), cluster_tol):
            lspec = _tight_spectrum(g, predicate, cluster_tol, borderline_log, label=label)
        else:
            lspec = cluster_spectrum(values, cluster_tol)
        by_n[str(g.n)] = by_n.get(str(g.n), 0) + 1
        key_d = str(lspec.distinct_count)
        by_distinct[key_d] = by_distinct.get(key_d, 0) + 1
        if predicate is not None and not predicate.matches(lspec):
            continue
        key = (g.n, canonical_form(g) if g.n <= 8 else label)
        if key not in hits:
            hits[key] = _hit(g, key[1] if g.n <= 8 else None, lspec, label)
    counts = {"members": len(specs), "by_n": by_n, "by_distinct": by_distinct}
    n_lo = min(key[0] for key in hits) if hits else 3
    n_hi = max(key[0] for key in hits) if hits else 3 + 3 * param_max
    return _finish_report(
        "unicyclic", predicate, (n_lo, n_hi), hits, counts, borderline_log, cluster_tol
    )
