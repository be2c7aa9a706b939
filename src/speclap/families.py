"""Constructors for the graph families the checker suites run on.

Covers the standard families (complete, complete multipartite, cycles,
paths), the fourteen unicyclic families U1..U14 built from a triangle, C4 or
C5 core with pendant vertices attached in every admissible pattern (plus the
bare C6 and C7), and the degree-one bipartite family behind the `thm41`
suite: incidence graph of a Hadamard-derived design with an apex-plus-pendant
attachment.

Closed-form spectra live here too, as PredictedSpectrum values, so tests can
compare eigensolver output against exact targets.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import designs
from .graph import (
    MAX_VERTICES,
    BipartiteSplit,
    Graph,
    bipartite_split,
    check_vertex_count,
    from_edge_list,
)
from .linalg import PredictedSpectrum

__all__ = [
    "complete",
    "complete_bipartite",
    "complete_multipartite",
    "cycle",
    "path",
    "add_pendants",
    "UNICYCLIC_ARITY",
    "UnicyclicSpec",
    "unicyclic",
    "all_unicyclic_specs",
    "pendant_join",
    "pendant_join_family",
    "predicted_pendant_join_spectrum",
    "predicted_complete_bipartite_spectrum",
    "predicted_regular_multipartite_spectrum",
    "u4_symmetric_factors",
    "parse_family",
    "UnknownFamilyError",
    "FAMILY_GRAMMAR",
]


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    check_vertex_count(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def complete_multipartite(sizes: "tuple[int, ...] | list[int]") -> Graph:
    """Complete multipartite graph; parts are consecutive vertex ranges."""
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    n = sum(sizes)
    check_vertex_count(n)
    part_masks = []
    start = 0
    for s in sizes:
        part_masks.append(((1 << s) - 1) << start)
        start += s
    full = (1 << n) - 1
    rows = []
    for mask in part_masks:
        for v in range(mask.bit_length()):
            if mask >> v & 1:
                rows.append((v, full & ~mask))
    rows.sort()
    return Graph(n, tuple(r for _, r in rows))


def complete_bipartite(s: int, t: int) -> Graph:
    return complete_multipartite((s, t))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    check_vertex_count(n)
    return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    check_vertex_count(n)
    return from_edge_list(n, [(v, v + 1) for v in range(n - 1)])


def add_pendants(g: Graph, attach: "dict[int, int] | list[tuple[int, int]]") -> Graph:
    """Attach `count` new degree-1 vertices to each listed vertex.

    `attach` maps existing vertex -> pendant count; new vertices are numbered
    consecutively after g's, grouped by attachment vertex in the given order.
    """
    items = list(attach.items()) if isinstance(attach, dict) else list(attach)
    if any(count < 0 for _, count in items):
        raise ValueError("pendant count must be >= 0")
    check_vertex_count(g.n + sum(count for _, count in items))
    n = g.n
    edges = list(g.edges())
    for v, count in items:
        if not 0 <= v < g.n:
            raise ValueError(f"attachment vertex {v} out of range")
        for _ in range(count):
            edges.append((v, n))
            n += 1
    return from_edge_list(n, edges)


#: parameter count for each unicyclic family
UNICYCLIC_ARITY = {
    "U1": 0,
    "U2": 1,
    "U3": 2,
    "U4": 3,
    "U5": 1,
    "U6": 2,
    "U7": 0,
    "U8": 1,
    "U9": 2,
    "U10": 0,
    "U11": 1,
    "U12": 2,
    "U13": 0,
    "U14": 0,
}


@dataclass(frozen=True)
class UnicyclicSpec:
    """Family label U1..U14 plus its pendant-count parameters (each >= 1)."""

    family: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        fam = self.family.upper()
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        if fam not in UNICYCLIC_ARITY:
            raise ValueError(f"unknown unicyclic family {self.family!r}")
        arity = UNICYCLIC_ARITY[fam]
        if len(self.params) != arity:
            raise ValueError(f"{fam} takes {arity} parameter(s), got {len(self.params)}")
        if any(p < 1 for p in self.params):
            raise ValueError("pendant counts must be >= 1")

    def __str__(self) -> str:
        if self.params:
            return f"{self.family}:{','.join(map(str, self.params))}"
        return self.family


def unicyclic(spec: "UnicyclicSpec | str", params: "tuple[int, ...] | list[int]" = ()) -> Graph:
    """Build a unicyclic family member from a UnicyclicSpec (or family name
    plus pendant counts).

    Cores and attachment patterns (all pendant counts must be >= 1):

    * U1: triangle.  U2(a): a pendants on one triangle vertex.  U3(a, b):
      pendants on two triangle vertices.  U4(a, b, c): pendants on all three.
    * U5(a): triangle plus a subdivision vertex u hanging off one triangle
      vertex, with a pendants on u.  U6(a, b): U5(a) with b extra pendants on
      the triangle vertex that carries u.
    * U7: C4.  U8(a): pendants on one C4 vertex.  U9(a, b): pendants on two
      adjacent C4 vertices.
    * U10: C5.  U11(a): pendants on one C5 vertex.  U12(a, b): pendants on
      two adjacent C5 vertices.
    * U13: C6.  U14: C7.
    """
    if not isinstance(spec, UnicyclicSpec):
        spec = UnicyclicSpec(spec, params)
    family, params = spec.family, spec.params

    if family == "U1":
        return cycle(3)
    if family == "U2":
        return add_pendants(cycle(3), {0: params[0]})
    if family == "U3":
        return add_pendants(cycle(3), [(0, params[0]), (1, params[1])])
    if family == "U4":
        return add_pendants(cycle(3), [(0, params[0]), (1, params[1]), (2, params[2])])
    if family == "U5":
        g = add_pendants(cycle(3), {0: 1})  # vertex 3 hangs off vertex 0
        return add_pendants(g, {3: params[0]})
    if family == "U6":
        g = add_pendants(cycle(3), {0: 1})
        return add_pendants(g, [(3, params[0]), (0, params[1])])
    if family == "U7":
        return cycle(4)
    if family == "U8":
        return add_pendants(cycle(4), {0: params[0]})
    if family == "U9":
        return add_pendants(cycle(4), [(0, params[0]), (1, params[1])])
    if family == "U10":
        return cycle(5)
    if family == "U11":
        return add_pendants(cycle(5), {0: params[0]})
    if family == "U12":
        return add_pendants(cycle(5), [(0, params[0]), (1, params[1])])
    if family == "U13":
        return cycle(6)
    return cycle(7)  # U14


def all_unicyclic_specs(param_max: int) -> list[UnicyclicSpec]:
    """Every UnicyclicSpec with parameters in 1..param_max, one representative
    per isomorphism class.

    Parameter symmetries are quotiented out: U3/U9/U12 are symmetric in
    (a, b) and U4 in (a, b, c), so only sorted tuples are emitted.  U6's two
    parameters play different roles and both orders appear.
    """
    if param_max < 1:
        raise ValueError("param_max must be >= 1")
    rng = range(1, param_max + 1)
    out: list[UnicyclicSpec] = []
    for fam in ("U1", "U7", "U10", "U13", "U14"):
        out.append(UnicyclicSpec(fam))
    for fam in ("U2", "U5", "U8", "U11"):
        out.extend(UnicyclicSpec(fam, (a,)) for a in rng)
    for fam in ("U3", "U9", "U12"):
        out.extend(UnicyclicSpec(fam, (a, b)) for a in rng for b in rng if a <= b)
    out.extend(UnicyclicSpec("U6", (a, b)) for a in rng for b in rng)
    out.extend(
        UnicyclicSpec("U4", (a, b, c))
        for a in rng
        for b in rng
        for c in rng
        if a <= b <= c
    )
    return out


def pendant_join(gprime: Graph, side: int = 0, split: BipartiteSplit | None = None) -> Graph:
    """Attach an apex joined to one side of a bipartite graph, plus a pendant.

    Adds two vertices: the apex (index gprime.n) adjacent to every vertex of
    the chosen side (0 -> part1, 1 -> part2), and a pendant (index
    gprime.n + 1) adjacent only to the apex.  The split is computed when not
    supplied; non-bipartite input raises ValueError.
    """
    if split is None:
        split = bipartite_split(gprime)
        if split is None:
            raise ValueError("pendant_join needs a bipartite graph")
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    attach = split.part1 if side == 0 else split.part2
    if attach <= 0 or attach >> gprime.n:
        raise ValueError("chosen side is empty or not a subset of the vertices")
    apex = gprime.n
    edges = list(gprime.edges())
    v = attach
    while v:
        low = v & -v
        edges.append((low.bit_length() - 1, apex))
        v ^= low
    edges.append((apex, apex + 1))
    return from_edge_list(gprime.n + 2, edges)


def pendant_join_family(t: int) -> tuple[Graph, BipartiteSplit]:
    """Connected bipartite graph on 8t vertices with a degree-1 vertex and
    exactly four distinct L-eigenvalues.

    Pipeline: Hadamard matrix of order 4t -> symmetric design with parameters
    (4t-1, 2t-1, t-1) -> complement, giving (4t-1, 2t, t) -> bipartite
    incidence graph -> apex joined to the whole point side, pendant on the
    apex.  For t = 1 the result is the unique such graph on 8 vertices.

    Returns the graph and its bipartition (pendant on the point side, apex
    on the block side).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    check_vertex_count(8 * t)
    h = designs.hadamard_of_order(4 * t)
    d = designs.complement(designs.hadamard_to_design(h))
    g, split = designs.incidence_graph(d)
    joined = pendant_join(g, side=0, split=split)
    apex = g.n
    return joined, BipartiteSplit(
        part1=split.part1 | 1 << (apex + 1), part2=split.part2 | 1 << apex
    )


def predicted_pendant_join_spectrum(t: int) -> PredictedSpectrum:
    """Exact L-spectrum of pendant_join_family(t):
    {2, (1 +/- sqrt(1/(4t+2)))^(4t-1), 0}."""
    if t < 1:
        raise ValueError("t must be >= 1")
    s = math.sqrt(1.0 / (4 * t + 2))
    return PredictedSpectrum(
        pairs=((2.0, 1), (1.0 + s, 4 * t - 1), (1.0 - s, 4 * t - 1), (0.0, 1))
    )


def predicted_complete_bipartite_spectrum(s: int, t: int) -> PredictedSpectrum:
    """L-spectrum of K_{s,t}: {2, 1^(s+t-2), 0}."""
    if s < 1 or t < 1:
        raise ValueError("sides must be >= 1")
    pairs: list[tuple[float, int]] = [(2.0, 1)]
    if s + t > 2:
        pairs.append((1.0, s + t - 2))
    pairs.append((0.0, 1))
    return PredictedSpectrum(pairs=tuple(pairs))


def predicted_regular_multipartite_spectrum(r: int, n: int) -> PredictedSpectrum:
    """L-spectrum of the complete r-partite graph with equal parts n/r:
    {(n/(n - n/r))^(r-1), 1^(n-r), 0}.

    Needs r >= 3 and r | n (the two-part case is
    predicted_complete_bipartite_spectrum's job).  r = n is allowed and gives
    the complete graph (the middle eigenvalue block is then empty).
    """
    if r < 3:
        raise ValueError("need r >= 3; use the bipartite form for two parts")
    if n % r:
        raise ValueError("n must be divisible by r")
    if r > n:
        raise ValueError("need r <= n")
    part = n // r
    top = n / (n - part)
    pairs: list[tuple[float, int]] = [(top, r - 1)]
    if n > r:
        pairs.append((1.0, n - r))
    pairs.append((0.0, 1))
    return PredictedSpectrum(pairs=tuple(pairs))


def u4_symmetric_factors(a: int) -> tuple[tuple[int, int], tuple[int, int, int], int, int]:
    """Characteristic-polynomial factorization data for U4(a, a, a).

    The L-characteristic polynomial factors as

        x * (x - 1)^(3a-3) * p1(x) * p2(x)^2

    with p1(x) = (a+2) x - 2(a+1) and p2(x) = (a+2) x^2 - (2a+5) x + 3.
    Returns (p1 coefficients, p2 coefficients, multiplicity of eigenvalue 1,
    multiplicity of eigenvalue 0), polynomial coefficients highest degree
    first.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    return ((a + 2, -2 * (a + 1)), (a + 2, -(2 * a + 5), 3), 3 * a - 3, 1)


FAMILY_GRAMMAR = """\
K<n>                 complete graph, e.g. K5
Kmulti:<s1>,<s2>,... complete multipartite with the given part sizes, e.g. Kmulti:3,4
C<n>                 cycle, e.g. C6
P<n>                 path, e.g. P4
U<k>[:<params>]      unicyclic family U1..U14, e.g. U4:1,2,1
thm41:<t>            degree-one bipartite family on 8t vertices, e.g. thm41:2"""


class UnknownFamilyError(ValueError):
    """A token of none of FAMILY_GRAMMAR's forms."""


def _count(digits: str) -> int:
    """A vertex or pendant count of a family token.  A count with more
    significant digits than MAX_VERTICES is over the cap whatever its value,
    so it reads as 10**len(str(MAX_VERTICES)), also over the cap: the family
    refuses it with the errors, in the order, that the true value would get,
    and int() never reads a string of thousands of digits."""
    width = len(str(MAX_VERTICES))
    digits = digits.lstrip("0") or "0"
    return 10**width if len(digits) > width else int(digits)


def parse_family(token: str) -> Graph:
    """Parse a family token (see FAMILY_GRAMMAR) into a graph.  A token of
    no known form raises UnknownFamilyError; one of a known form that the
    family cannot build raises that family's ValueError."""
    token = token.strip()
    m = re.fullmatch(r"[Kk](\d+)", token)
    if m:
        return complete(_count(m.group(1)))
    m = re.fullmatch(r"[Kk]multi:(\d+(?:,\d+)*)", token)
    if m:
        return complete_multipartite(tuple(_count(x) for x in m.group(1).split(",")))
    m = re.fullmatch(r"[Cc](\d+)", token)
    if m:
        return cycle(_count(m.group(1)))
    m = re.fullmatch(r"[Pp](\d+)", token)
    if m:
        return path(_count(m.group(1)))
    m = re.fullmatch(r"[Uu](\d+)(?::(\d+(?:,\d+)*))?", token)
    if m:
        params = tuple(_count(x) for x in m.group(2).split(",")) if m.group(2) else ()
        return unicyclic(f"U{m.group(1)}", params)
    m = re.fullmatch(r"thm41:(\d+)", token)
    if m:
        return pendant_join_family(_count(m.group(1)))[0]
    raise UnknownFamilyError(f"cannot parse family token {token!r}; known forms:\n{FAMILY_GRAMMAR}")
