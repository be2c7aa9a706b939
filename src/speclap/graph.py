"""Simple undirected graphs on at most 64 vertices.

Adjacency is a tuple of integer bitmasks, one per vertex (`Graph.adj`), which
keeps neighbourhood comparisons (duplicate-vertex detection) and BFS loops
cheap.  Vertices are always 0..n-1; no loops, no multi-edges, no weights.

The rows are the one internal format.  Every conversion of it lives here and
reads or writes rows directly: graph6 in both directions, `reach` (the one
BFS), `relabel` (rows induced on a vertex order) and the queries built on
them.  The only route from rows to a matrix is `nlspec.assemble`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "check_vertex_count",
    "VertexCountError",
    "Graph",
    "BipartiteSplit",
    "DuplicateClass",
    "from_edge_list",
    "components",
    "is_connected",
    "bipartite_split",
    "duplicate_classes",
    "induced_subgraph",
    "reach",
    "relabel",
    "is_complete_multipartite",
    "complement_graph",
    "to_graph6",
    "from_graph6",
    "to_json_dict",
]

MAX_VERTICES = 64


class VertexCountError(ValueError):
    """A vertex count outside [0, MAX_VERTICES]."""


def check_vertex_count(n: int) -> None:
    """Raise VertexCountError unless 0 <= n <= MAX_VERTICES.  Constructors
    call it before allocating anything sized by n."""
    if not 0 <= n <= MAX_VERTICES:
        raise VertexCountError(f"vertex count must be in [0, {MAX_VERTICES}]")


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; `adj[v]` is the neighbour bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        check_vertex_count(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"vertex {v} has neighbours outside 0..{self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(self.n):
            for u in range(v + 1, self.n):
                if (self.adj[v] >> u & 1) != (self.adj[u] >> v & 1):
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")

    # -- basic queries -------------------------------------------------

    def degrees(self) -> np.ndarray:
        return np.array([int(r).bit_count() for r in self.adj], dtype=np.int64)

    @property
    def m(self) -> int:
        """Edge count."""
        return sum(int(r).bit_count() for r in self.adj) // 2

    def neighbors(self, v: int) -> Iterator[int]:
        row = self.adj[v]
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            while row:
                low = row & -row
                yield (u, low.bit_length() - 1)
                row ^= low


@dataclass(frozen=True)
class BipartiteSplit:
    """Vertex bipartition as two disjoint covering bitmasks."""

    part1: int
    part2: int

    def sides(self) -> tuple[list[int], list[int]]:
        return (_mask_vertices(self.part1), _mask_vertices(self.part2))


@dataclass(frozen=True)
class DuplicateClass:
    """Maximal set of >= 2 vertices sharing a neighbourhood.

    kind "independent": identical open neighbourhoods (members pairwise
    non-adjacent); kind "clique": identical closed neighbourhoods (members
    pairwise adjacent).  `outside_degree` is the number of neighbours each
    member has outside the class; it is required to be >= 1, so classes never
    form an isolated component on their own.
    """

    vertices: tuple[int, ...]
    kind: str
    outside_degree: int

    def __post_init__(self):
        if self.kind not in ("independent", "clique"):
            raise ValueError(f"unknown duplicate-class kind {self.kind!r}")
        if len(self.vertices) < 2:
            raise ValueError("duplicate class needs at least two vertices")
        if self.outside_degree < 1:
            raise ValueError("duplicate class must have outside neighbours")

    @property
    def size(self) -> int:
        return len(self.vertices)


def _mask_vertices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def from_edge_list(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a graph from vertex count and an iterable of (u, v) pairs.

    Repeated edges collapse; loops and out-of-range endpoints raise.
    """
    rows = [0] * n
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def reach(adj: Sequence[int], start: int, within: int) -> int:
    """Bitmask of the vertices reachable from vertex `start` along paths
    whose vertices all lie in the bitmask `within` (`start` included)."""
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def relabel(adj: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """Rows of the graph induced on the vertices `order`, with order[i]
    renamed i."""
    return tuple(sum(1 << i for i, u in enumerate(order) if adj[v] >> u & 1) for v in order)


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    remaining = (1 << g.n) - 1
    out = []
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        mask = reach(g.adj, start, remaining)
        out.append(_mask_vertices(mask))
        remaining &= ~mask
    return out


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    full = (1 << g.n) - 1
    return reach(g.adj, 0, full) == full


def bipartite_split(g: Graph) -> BipartiteSplit | None:
    """Two-colouring as a BipartiteSplit, or None if an odd cycle exists.

    For disconnected graphs every component is coloured independently; the
    returned split puts each component's colour-0 side (the side containing
    its least vertex) into part1.
    """
    color = [-1] * g.n
    part = [0, 0]
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        part[0] |= 1 << s
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                cv = color[v]
                for u in g.neighbors(v):
                    if color[u] == -1:
                        color[u] = 1 - cv
                        part[1 - cv] |= 1 << u
                        nxt.append(u)
                    elif color[u] == cv:
                        return None
            frontier = nxt
    return BipartiteSplit(part1=part[0], part2=part[1])


def duplicate_classes(g: Graph) -> list[DuplicateClass]:
    """All maximal duplicate-vertex classes of both kinds.

    Vertices u, v land in the same independent class when adj[u] == adj[v]
    (which forces u !~ v), and in the same clique class when their closed
    neighbourhoods adj[v] | 1<<v coincide (forcing u ~ v).  Classes of size
    one are dropped, as are classes with no neighbours outside themselves.
    """
    out: list[DuplicateClass] = []
    open_groups: dict[int, list[int]] = {}
    for v in range(g.n):
        open_groups.setdefault(g.adj[v], []).append(v)
    for mask, verts in open_groups.items():
        if len(verts) < 2:
            continue
        outside = int(mask).bit_count()  # open neighbourhood excludes the class
        if outside < 1:
            continue
        out.append(DuplicateClass(tuple(verts), "independent", outside))

    closed_groups: dict[int, list[int]] = {}
    for v in range(g.n):
        closed_groups.setdefault(g.adj[v] | (1 << v), []).append(v)
    for mask, verts in closed_groups.items():
        if len(verts) < 2:
            continue
        class_mask = 0
        for v in verts:
            class_mask |= 1 << v
        outside = int(mask & ~class_mask).bit_count()
        if outside < 1:
            continue
        out.append(DuplicateClass(tuple(verts), "clique", outside))
    out.sort(key=lambda c: (c.vertices[0], c.kind))
    return out


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Induced subgraph; vertex i of the result is vertices[i]."""
    verts = [int(v) for v in vertices]
    if len(set(verts)) != len(verts):
        raise ValueError("duplicate vertices")
    if not all(0 <= v < g.n for v in verts):
        raise ValueError(f"vertices out of range for n={g.n}")
    return Graph(len(verts), relabel(g.adj, verts))


def complement_graph(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple((full & ~g.adj[v]) & ~(1 << v) for v in range(g.n))
    return Graph(g.n, rows)


def is_complete_multipartite(g: Graph) -> tuple[int, ...] | None:
    """Part sizes (ascending) if g is complete multipartite, else None.

    A graph is complete multipartite exactly when its complement is a
    disjoint union of cliques; the parts are the complement's components.
    Works for r = 1 (edgeless) through r = n (complete).
    """
    if g.n == 0:
        return None
    comp = complement_graph(g)
    parts = []
    for verts in components(comp):
        k = len(verts)
        for v in verts:
            if int(comp.adj[v]).bit_count() != k - 1:
                return None
        parts.append(k)
    return tuple(sorted(parts))


# -- serialization -----------------------------------------------------


def to_graph6(g: Graph) -> str:
    """Encode in graph6 (printable-ASCII) form.

    The order header is one byte n + 63 for n <= 62, else '~' followed by n
    as three 6-bit bytes, each + 63, high bits first; see
    https://users.cecs.anu.edu.au/~bdm/data/formats.txt
    """
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~"] + [chr((n >> shift & 63) + 63) for shift in (12, 6, 0)]
    # the upper triangle column by column, bit (i, j) for i < j, six to a byte
    val = count = 0
    for j in range(1, n):
        row = g.adj[j]
        for i in range(j):
            val = val << 1 | row >> i & 1
            count += 1
            if count == 6:
                out.append(chr(val + 63))
                val = count = 0
    if count:
        out.append(chr((val << 6 - count) + 63))
    return "".join(out)


def from_graph6(s: str) -> Graph:
    """Decode a graph6 string (optionally prefixed with '>>graph6<<')."""
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if not 0 <= data[0] <= 63:
        raise ValueError("unsupported graph6 order byte")
    n, body = data[0], data[1:]
    if n == 63:  # '~': n in the next three bytes, six bits each
        if len(body) < 3 or not all(0 <= b <= 63 for b in body[:3]):
            raise ValueError("graph6 '~' needs three order bytes")
        n, body = body[0] << 12 | body[1] << 6 | body[2], body[3:]
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 order {n} exceeds {MAX_VERTICES} vertices")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(
            f"graph6 body length {len(body)} does not match order {n} (need {need})"
        )
    if any(b < 0 or b > 63 for b in body):
        raise ValueError("graph6 characters out of range")
    rows = [0] * n
    i, j = 0, 1  # the pair the next bit describes, in to_graph6's order
    for val in body:
        for shift in range(5, -1, -1):
            if j == n:  # padding
                break
            if val >> shift & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, tuple(rows))


def to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
