"""Normalized-Laplacian spectra and the identity / classification checks.

Everything verification-shaped lives here: building L = I - D^{-1/2}AD^{-1/2}
(diagonal 0 at isolated vertices) with one assembly, `assemble`, for a stack
of graphs (`build` is its one-graph case and the scans' batched solve calls
it too; it is the only place bitmask rows become a matrix, so the adjacency
spectrum reads A from `build`), computing clustered L-spectra, and the check
suites behind the CLI `verify` command:

* fundamental eigenvalue properties (trace, bounds, component structure,
  bipartite symmetry) -- suite "lemma22";
* the rank-one product identity prod(L - lambda_i I) = +/- (prod lambda_i)
  sqrt(d) sqrt(d)^T / 2m for connected graphs -- suite "eq1";
* for connected graphs with three distinct eigenvalues {alpha, beta, 0},
  the rank-one identity (L - alpha I)(L - beta I) = (alpha beta / 2m)
  sqrt(d) sqrt(d)^T and its entrywise degree identities, plus the
  degree-gap bound -- suites "three-ev", "lemma24";
* for four distinct eigenvalues {alpha, beta, gamma, 0}, the diagonal of
  (L - alpha I)(L - beta I)(L - gamma I) and its bipartite refinement --
  suite "four-ev";
* duplicate-vertex eigenvectors with predicted eigenvalues -- suite
  "lemma23";
* classification of connected graphs with three distinct eigenvalues one of
  which is 1 -- suites "thm21", "cor20" -- and the odd-distinct-count parity
  consequence for bipartite graphs with duplicate vertices -- suite "cor21";
* the bipartite half-matrix factorization of the spectrum -- suite
  "bipartite-factorization" -- and the apex-plus-pendant family with four
  distinct eigenvalues -- suite "thm41".

Every check reads its graph through a SpectralContext, which assembles A
and L, solves L and clusters the spectrum at most once however many checks
share it.  The degree sums of the entrywise identities are entries of
products of A and D^{-1}: with P = A D^{-1}, sum_{w ~ u} 1/d_w is (P 1)_u,
the common-neighbour sum sum_{w in N(u) cap N(v)} 1/d_w is (P A)_{uv}, and
the sum of 1/(d_v d_w) over ordered adjacent neighbour pairs (v, w) of u is
(P P A)_{uu}.  `SUITES` maps each graph-input suite name to a function of
one context; "thm41" is not in it because it builds its own graph.

The body of a graph-input suite returns only its CheckResults; the `_suite`
decorator names the suite once, runs the shared connectivity and
distinct-count preconditions, and builds the CheckReport.  Each check
compares against the fixed tolerance ladder below; the cluster tolerance of
the context is the only tolerance a caller sets.

Check functions never hide failures: every numeric claim lands in a
CheckResult with its residual, and violated *mathematical* preconditions are
reported as non-applicable results rather than raised, so batch runs can
flag them.  Misuse (disconnected input where connectivity is structural)
raises ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph import (
    BipartiteSplit,
    DuplicateClass,
    Graph,
    bipartite_split,
    components,
    duplicate_classes,
    induced_subgraph,
    is_complete_multipartite,
    is_connected,
)
from .linalg import (
    DEFAULT_CLUSTER_TOL,
    Spectrum,
    cluster_spectrum,
    jacobi_eigen,
    spectra_match,
)

__all__ = [
    "LaplacianBundle",
    "SpectralContext",
    "SUITES",
    "BipartiteFactorization",
    "Classification",
    "CheckResult",
    "CheckReport",
    "assemble",
    "build",
    "l_spectrum",
    "adjacency_spectrum",
    "check_spectrum_fundamentals",
    "check_eigenvalue_product",
    "check_three_ev_identities",
    "check_three_ev_degree_bounds",
    "check_four_ev_diagonal",
    "check_bipartite_four_ev",
    "duplicate_class_eigenvector",
    "check_duplicate_classes",
    "classify_three_with_one",
    "check_classification",
    "check_second_least_one",
    "check_bipartite_duplicate_parity",
    "bipartite_factorization",
    "check_bipartite_factorization",
    "check_pendant_join_family",
    "IDENTITY_TOL",
    "FUNDAMENTAL_TOL",
    "FACTORIZATION_TOL",
    "PENDANT_JOIN_TOL",
    "EIGENVECTOR_TOL",
]

# Tolerance ladder; fixed, because only the cluster tolerance of a context
# is set by callers.  Identity checks run at 1e-6, the fundamental-property
# suite at 1e-7, the bipartite factorization at 1e-8, the closed form of the
# pendant-join family at 1e-9 and signed-indicator eigenvector residuals at
# 1e-12.
IDENTITY_TOL = 1e-6
FUNDAMENTAL_TOL = 1e-7
FACTORIZATION_TOL = 1e-8
PENDANT_JOIN_TOL = 1e-9
EIGENVECTOR_TOL = 1e-12

_ZERO_TOL = 1e-8  # how close the smallest cluster must sit to 0
_MERGE_TOL = 1e-8  # the widest eigenvalue gap a cluster may close
_BRANCH_TOL = 1e-9  # deciding beta == 1 vs beta < 1


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class LaplacianBundle:
    """Adjacency matrix, degree vector and normalized Laplacian of one graph.

    A is the 0/1 adjacency matrix as floats, D the degree vector (the
    diagonal of the degree matrix) and
    L = diag(d > 0) - D^{-1/2} A D^{-1/2}, with isolated vertices
    contributing zero rows to the second term, i.e. the diagonal entry is 1
    at vertices of positive degree and 0 at isolated ones.
    """

    A: np.ndarray
    D: np.ndarray
    L: np.ndarray


def assemble(adjs: Sequence[Sequence[int]], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjacency matrices, degree vectors and normalized Laplacians of a
    stack of graphs on n vertices, one per tuple of bitmask adjacency rows.

    The rows unpack as uint64, so graphs on 64 vertices fit.
    D^{-1/2} A D^{-1/2} is formed as A * (s_u s_v) with s_v = 1/sqrt(d_v)
    (0 for isolated v), which keeps it bitwise symmetric in floating point.
    L is diag(d > 0) - A * (s_u s_v), so a non-edge holds 0.0 - 0.0 = +0.0;
    LAPACK reads that sign, and one assembly keeps every caller's eigenvalues
    equal bit for bit.
    """
    rows = np.array(adjs, dtype=np.uint64).reshape(len(adjs), n)
    A = ((rows[:, :, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(float)
    d = A.sum(axis=2)
    nz = d > 0
    s = 1.0 / np.sqrt(np.maximum(d, 1.0)) * nz
    L = np.eye(n) * nz[:, :, None] - A * (s[:, :, None] * s[:, None, :])
    return A, d, L


def build(g: Graph) -> LaplacianBundle:
    """Assemble the normalized Laplacian of g: `assemble` on one graph."""
    A, d, L = assemble([g.adj], g.n)
    return LaplacianBundle(A=A[0], D=d[0], L=L[0])


def l_spectrum(g: Graph, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> Spectrum:
    """Clustered L-spectrum of g."""
    return SpectralContext(g, cluster_tol).spectrum


def adjacency_spectrum(g: Graph, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> Spectrum:
    """Clustered adjacency-matrix spectrum of g."""
    return cluster_spectrum(jacobi_eigen(build(g).A), cluster_tol)


@dataclass
class SpectralContext:
    """One graph, its cluster tolerance, and the spectral data the checks
    read: the LaplacianBundle (A, D and L), the eigenvalues of L and its
    clustered spectrum.  Each is computed on first use and then kept, so the
    checks run on one context share a single assembly and a single solve of
    L."""

    graph: Graph
    cluster_tol: float = DEFAULT_CLUSTER_TOL

    @functools.cached_property
    def bundle(self) -> LaplacianBundle:
        return build(self.graph)

    @functools.cached_property
    def values(self) -> np.ndarray:
        """Eigenvalues of L, descending."""
        return jacobi_eigen(self.bundle.L)

    @functools.cached_property
    def spectrum(self) -> Spectrum:
        return cluster_spectrum(self.values, self.cluster_tol)


def _context(g: "Graph | SpectralContext") -> SpectralContext:
    return g if isinstance(g, SpectralContext) else SpectralContext(g)


# ---------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single named sub-check.

    `residual` is the numeric slack (max-abs deviation) where one is
    meaningful.  `applicable` is False when a mathematical precondition of
    the sub-check does not hold for the input; such results are reported but
    do not count as failures.
    """

    check: str
    passed: bool
    residual: float | None = None
    witness: object = None
    applicable: bool = True

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "pass": self.passed,
            "residual": self.residual,
            "witness": self.witness,
            "applicable": self.applicable,
        }


@dataclass(frozen=True)
class CheckReport:
    """All sub-check results of one verification suite."""

    suite: str
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results if r.applicable)

    @property
    def applicable(self) -> bool:
        return any(r.applicable for r in self.results)

    def result(self, check: str) -> CheckResult:
        for r in self.results:
            if r.check == check:
                return r
        raise KeyError(f"no sub-check named {check!r} in suite {self.suite!r}")

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "pass": self.passed,
            "applicable": self.applicable,
            "results": [r.to_json_dict() for r in self.results],
        }


def _precondition(reason: str, detail: object = None) -> tuple[CheckResult]:
    """The one result of a suite whose mathematical precondition fails."""
    return (
        CheckResult(
            check="precondition",
            passed=False,
            witness={"reason": reason, "detail": detail},
            applicable=False,
        ),
    )


def _ends_at_zero(spec: Spectrum) -> bool:
    """Whether the smallest cluster of `spec` sits at 0."""
    return abs(spec.values[-1]) <= _ZERO_TOL


def _spectrum_detail(spec: Spectrum) -> dict:
    return {"distinct": spec.distinct_count, "values": list(spec.values)}


def _merged(ctx: SpectralContext) -> tuple[CheckResult] | None:
    """The precondition result of a context whose cluster tolerance merges
    distinct L-eigenvalues (closes a gap between neighbouring eigenvalues
    wider than _MERGE_TOL), else None.  An identity over the distinct
    eigenvalues says nothing about merged clusters."""
    gaps = -np.diff(ctx.values)
    merged = gaps[(gaps > _MERGE_TOL) & (gaps <= ctx.cluster_tol)]
    if not merged.size:
        return None
    return _precondition(
        "need the cluster tolerance to keep distinct L-eigenvalues apart",
        {**_spectrum_detail(ctx.spectrum), "merged_gap": float(merged.max())},
    )


def _suite(name: str, connected: bool = False, distinct: int | None = None):
    """Turn `fn(ctx)`, which returns the CheckResults of suite `name`, into
    the check of that suite: it takes a Graph (wrapped in a default
    SpectralContext) or a context and returns the CheckReport.

    With `connected`, disconnected input raises ValueError: the suite's
    identities are stated for connected graphs only.  With `distinct`, a
    spectrum without exactly that many distinct values, smallest 0, or one
    whose clusters merge distinct eigenvalues, yields a precondition report
    instead of running `fn`.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def check(g: "Graph | SpectralContext") -> CheckReport:
            ctx = _context(g)
            if connected and not is_connected(ctx.graph):
                raise ValueError(f"suite {name!r} needs a connected graph")
            if distinct is None:
                results = fn(ctx)
            elif not (ctx.spectrum.distinct_count == distinct and _ends_at_zero(ctx.spectrum)):
                results = _precondition(
                    f"need exactly {distinct} distinct L-eigenvalues with smallest 0",
                    _spectrum_detail(ctx.spectrum),
                )
            else:
                results = _merged(ctx) or fn(ctx)
            return CheckReport(suite=name, results=tuple(results))

        return check

    return decorate


# ---------------------------------------------------------------------------
# fundamental spectrum properties


@_suite("lemma22")
def check_spectrum_fundamentals(ctx: SpectralContext) -> Sequence[CheckResult]:
    """The nine basic L-eigenvalue properties, suite "lemma22".

    With lambda_1 >= ... >= lambda_n the L-eigenvalues: (i) lambda_n = 0;
    (ii) sum <= n with equality iff no isolated vertices; (iii)
    lambda_{n-1} <= n/(n-1) with equality iff complete; (iv)
    lambda_{n-1} <= 1 for non-complete graphs; (v) lambda_1 >= n/(n-1) when
    no isolated vertices; (vi) multiplicity of 0 = number of components;
    (vii) spectrum = union of component spectra; (viii) lambda_i <= 2 with
    lambda_1 = 2 iff some component is nontrivial bipartite; (ix) the
    spectrum is symmetric under x -> 2 - x iff the graph is bipartite *and*
    has no isolated vertices (an isolated vertex adds a 0 without a matching
    2, so the classical bipartite symmetry needs the extra hypothesis).
    A graph on fewer than 2 vertices has no lambda_{n-1} and gets a
    precondition report.
    """
    g = ctx.graph
    n = g.n
    if n < 2:
        return _precondition("needs at least 2 vertices")
    tol = FUNDAMENTAL_TOL
    vals = ctx.values  # descending
    iso = int(np.sum(g.degrees() == 0))
    comps = components(g)
    complete = g.m == n * (n - 1) // 2
    results = []

    results.append(
        CheckResult(
            check="zero-eigenvalue",
            passed=abs(vals[-1]) <= tol,
            residual=abs(float(vals[-1])),
        )
    )

    total = float(np.sum(vals))
    target = float(n - iso)
    eq_holds = abs(total - n) <= tol
    results.append(
        CheckResult(
            check="trace-bound",
            passed=(total <= n + tol)
            and abs(total - target) <= tol
            and eq_holds == (iso == 0),
            residual=abs(total - target),
            witness={"sum": total, "n": n, "isolated": iso},
        )
    )

    second_least = float(vals[-2])
    bound = n / (n - 1)
    at_bound = abs(second_least - bound) <= tol
    results.append(
        CheckResult(
            check="second-least-bound",
            passed=(second_least <= bound + tol) and at_bound == complete,
            residual=max(0.0, second_least - bound) if not complete else abs(second_least - bound),
            witness={"second_least": second_least, "bound": bound, "complete": complete},
        )
    )

    results.append(
        CheckResult(
            check="second-least-noncomplete",
            passed=complete or second_least <= 1 + tol,
            residual=None if complete else max(0.0, second_least - 1.0),
            witness={"second_least": second_least},
            applicable=not complete,
        )
    )

    results.append(
        CheckResult(
            check="largest-lower-bound",
            passed=iso > 0 or float(vals[0]) >= bound - tol,
            residual=None if iso else max(0.0, bound - float(vals[0])),
            witness={"largest": float(vals[0]), "bound": bound},
            applicable=iso == 0,
        )
    )

    zero_mult = int(np.sum(np.abs(vals) <= tol))
    results.append(
        CheckResult(
            check="zero-multiplicity-components",
            passed=zero_mult == len(comps),
            residual=float(abs(zero_mult - len(comps))),
            witness={"zero_multiplicity": zero_mult, "components": len(comps)},
        )
    )

    # a connected graph is its own only component: reuse its solve
    parts = [vals] if len(comps) == 1 else [
        SpectralContext(induced_subgraph(g, c)).values for c in comps
    ]
    union = np.sort(np.concatenate(parts))[::-1]
    union_dev = float(np.max(np.abs(union - vals)))
    results.append(
        CheckResult(
            check="component-union",
            passed=union_dev <= tol,
            residual=union_dev,
            witness={"components": len(comps)},
        )
    )

    has_two = abs(float(vals[0]) - 2.0) <= tol
    # a connected graph is its own only component: 2-colour it once
    bipartite = bipartite_split(g) is not None
    bip_comp = (g.n >= 2 and bipartite) if len(comps) == 1 else any(
        len(c) >= 2 and bipartite_split(induced_subgraph(g, c)) is not None
        for c in comps
    )
    results.append(
        CheckResult(
            check="upper-bound-two",
            passed=(float(vals[0]) <= 2 + tol) and has_two == bip_comp,
            residual=max(0.0, float(vals[0]) - 2.0),
            witness={"largest": float(vals[0]), "nontrivial_bipartite_component": bip_comp},
        )
    )

    sym_dev = float(np.max(np.abs(vals + vals[::-1] - 2.0)))
    symmetric = sym_dev <= tol
    expect_sym = bipartite and iso == 0
    results.append(
        CheckResult(
            check="bipartite-symmetry",
            passed=symmetric == expect_sym,
            residual=sym_dev if expect_sym else None,
            witness={
                "bipartite": bipartite,
                "isolated": iso,
                "symmetric": symmetric,
                "symmetry_defect": sym_dev,
            },
        )
    )

    return results


# ---------------------------------------------------------------------------
# rank-one product identity


@_suite("eq1", connected=True)
def check_eigenvalue_product(ctx: SpectralContext) -> Sequence[CheckResult]:
    """Product identity over distinct nonzero eigenvalues, suite "eq1".

    For a connected graph with distinct eigenvalues lambda_1..lambda_{s-1}, 0:

        prod_i (L - lambda_i I)
            = (-1)^{s-1} (prod_i lambda_i) sqrt(d) sqrt(d)^T / (2m).

    The lambda_i are the nonzero clusters of the context's spectrum; a
    spectrum with wrong values makes the residual blow up, which is the
    converse direction of the identity.  A graph without edges (K1) has no
    2m to divide by, a smallest cluster away from 0 (a cluster tolerance
    too wide to separate it) leaves no zero to drop, and clusters that merge
    distinct eigenvalues are not the lambda_i; each gets a precondition
    report.
    """
    g = ctx.graph
    if g.m == 0:
        return _precondition("needs at least one edge")
    spec = ctx.spectrum
    if not _ends_at_zero(spec):
        return _precondition(
            "need the smallest L-eigenvalue cluster to be 0", _spectrum_detail(spec)
        )
    if merged := _merged(ctx):
        return merged
    nonzero = list(spec.values[:-1])
    s = len(nonzero) + 1
    bundle = ctx.bundle
    n = g.n
    lhs = np.eye(n)
    for lam in nonzero:
        lhs = lhs @ (bundle.L - lam * np.eye(n))
    sqrt_d = np.sqrt(bundle.D)
    sign = -1.0 if (s - 1) % 2 else 1.0
    rhs = sign * math.prod(nonzero) * np.outer(sqrt_d, sqrt_d) / (2 * g.m)
    residual = float(np.max(np.abs(lhs - rhs)))
    return (
        CheckResult(
            check="product-identity",
            passed=residual < IDENTITY_TOL,
            residual=residual,
            witness={"distinct": s, "nonzero_values": list(nonzero)},
        ),
    )


# ---------------------------------------------------------------------------
# three distinct eigenvalues


@_suite("three-ev", connected=True, distinct=3)
def check_three_ev_identities(ctx: SpectralContext) -> Sequence[CheckResult]:
    """Entrywise degree identities for spectra {alpha, beta, 0}, suite
    "three-ev".

    For a connected graph with exactly these three distinct eigenvalues the
    quadratic (L - alpha I)(L - beta I) is the rank-one matrix
    (alpha beta / 2m) sqrt(d) sqrt(d)^T, which entrywise says

        sum_{w ~ u} 1/d_w = (alpha beta / 2m) d_u^2 - (alpha-1)(beta-1) d_u

    per vertex, and per pair u != v with common-neighbor sum
    S(u,v) = sum_{w in N(u) cap N(v)} 1/d_w:

        S(u,v) = (alpha beta / 2m) d_u d_v - (alpha + beta - 2)   (u ~ v)
        S(u,v) = (alpha beta / 2m) d_u d_v                        (u !~ v)

    In matrix form the vertex sums are A D^{-1} 1 and S(u,v) is entry (u,v)
    of W = A D^{-1} A, so W = (alpha beta / 2m) d d^T - (alpha + beta - 2) A
    off the diagonal; the pairs u < v are split by whether A is 1 or 0.
    """
    g = ctx.graph
    alpha, beta = ctx.spectrum.values[:-1]

    A, d, L = ctx.bundle.A, ctx.bundle.D, ctx.bundle.L
    n, m = g.n, g.m
    coef = alpha * beta / (2 * m)

    sqrt_d = np.sqrt(d)
    quad = (L - alpha * np.eye(n)) @ (L - beta * np.eye(n))
    quad_res = float(np.max(np.abs(quad - coef * np.outer(sqrt_d, sqrt_d))))

    P = A / d  # A D^{-1}
    vertex_rhs = coef * d**2 - (alpha - 1) * (beta - 1) * d
    vertex_res = float(np.max(np.abs(P.sum(axis=1) - vertex_rhs)))

    pair_dev = np.abs(P @ A - (coef * np.outer(d, d) - (alpha + beta - 2) * A))
    adjacent = np.triu(A == 1, 1)
    non_adjacent = np.triu(A == 0, 1)
    adj_pairs = int(np.count_nonzero(adjacent))
    non_pairs = int(np.count_nonzero(non_adjacent))
    adj_res = float(pair_dev[adjacent].max(initial=0.0))
    non_res = float(pair_dev[non_adjacent].max(initial=0.0))

    return [
        CheckResult(
            check="quadratic-identity",
            passed=quad_res < IDENTITY_TOL,
            residual=quad_res,
            witness={"alpha": alpha, "beta": beta},
        ),
        CheckResult(
            check="vertex-inverse-degree-sum",
            passed=vertex_res < IDENTITY_TOL,
            residual=vertex_res,
            witness={"vertices": n},
        ),
        CheckResult(
            check="common-neighbors-adjacent",
            passed=adj_res < IDENTITY_TOL,
            residual=adj_res if adj_pairs else None,
            witness={"pairs": adj_pairs},
            applicable=adj_pairs > 0,
        ),
        CheckResult(
            check="common-neighbors-nonadjacent",
            passed=non_res < IDENTITY_TOL,
            residual=non_res if non_pairs else None,
            witness={"pairs": non_pairs},
            applicable=non_pairs > 0,
        ),
    ]


@_suite("lemma24", connected=True, distinct=3)
def check_three_ev_degree_bounds(ctx: SpectralContext) -> Sequence[CheckResult]:
    """Degree constraints on non-adjacent pairs for spectra {alpha, beta, 0},
    suite "lemma24".

    beta <= 1 always holds.  When beta = 1, every pair of non-adjacent
    vertices must share the same neighborhood; when beta < 1 their degree
    gap obeys |d_u - d_v| <= -2m (alpha-1)(beta-1) / (alpha beta).

    The non-adjacent pairs u < v are the upper triangle of A == 0.  Rows u
    and v of A agree exactly when d_u + d_v = 2 (A^2)_{uv}, the number of
    common neighbours counted twice.
    """
    g = ctx.graph
    alpha, beta = ctx.spectrum.values[:-1]
    A, d = ctx.bundle.A, ctx.bundle.D
    results = [
        CheckResult(
            check="beta-at-most-one",
            passed=beta <= 1 + IDENTITY_TOL,
            residual=max(0.0, beta - 1.0),
            witness={"beta": beta},
        )
    ]

    non_adjacent = np.triu(A == 0, 1)
    pairs = int(np.count_nonzero(non_adjacent))
    if abs(beta - 1.0) <= _BRANCH_TOL:
        # row-major (u, v), u < v
        mismatches = np.argwhere(non_adjacent & (np.add.outer(d, d) != 2 * (A @ A)))
        results.append(
            CheckResult(
                check="shared-neighborhoods",
                passed=len(mismatches) == 0,
                residual=float(len(mismatches)),
                witness={"pairs": pairs, "mismatches": mismatches[:5].tolist()},
                applicable=pairs > 0,
            )
        )
    else:
        bound = -2 * g.m * (alpha - 1) * (beta - 1) / (alpha * beta)
        worst = int(np.abs(np.subtract.outer(d, d))[non_adjacent].max(initial=0))
        results.append(
            CheckResult(
                check="degree-gap-bound",
                passed=worst <= bound + IDENTITY_TOL,
                residual=max(0.0, worst - bound),
                witness={"bound": bound, "max_gap": worst, "pairs": pairs},
                applicable=pairs > 0,
            )
        )
    return results


# ---------------------------------------------------------------------------
# four distinct eigenvalues


@_suite("four-ev", connected=True, distinct=4)
def check_four_ev_diagonal(ctx: SpectralContext) -> Sequence[CheckResult]:
    """Per-vertex diagonal identity for spectra {alpha, beta, gamma, 0},
    suite "four-ev".

    The diagonal of (L - alpha I)(L - beta I)(L - gamma I) yields, per
    vertex u,

        T_u + (alpha+beta+gamma-3) S_u + (alpha-1)(beta-1)(gamma-1) d_u
            = (alpha beta gamma / 2m) d_u^2

    where S_u = sum_{v ~ u} 1/d_v and T_u sums 1/(d_v d_w) over *ordered*
    pairs (v, w) of adjacent neighbors of u, so each triangle through u
    contributes twice.  In matrix form S = A D^{-1} 1 and T is the diagonal
    of A D^{-1} A D^{-1} A.
    """
    g = ctx.graph
    alpha, beta, gamma = ctx.spectrum.values[:-1]
    A, d = ctx.bundle.A, ctx.bundle.D
    coef = alpha * beta * gamma / (2 * g.m)

    P = A / d  # A D^{-1}
    s = P.sum(axis=1)
    t = np.sum((P @ P) * A, axis=1)  # diag(P P A), as A is symmetric
    lhs = t + (alpha + beta + gamma - 3) * s + (alpha - 1) * (beta - 1) * (gamma - 1) * d
    worst = float(np.max(np.abs(lhs - coef * d**2)))

    return (
        CheckResult(
            check="vertex-diagonal-identity",
            passed=worst < IDENTITY_TOL,
            residual=worst,
            witness={"alpha": alpha, "beta": beta, "gamma": gamma},
        ),
    )


@_suite("four-ev", connected=True)
def check_bipartite_four_ev(ctx: SpectralContext) -> Sequence[CheckResult]:
    """Refined identities for connected bipartite graphs with spectrum
    {2, 2-alpha, alpha, 0}, 0 < alpha < 1; suite "four-ev".

    Per vertex:   sum_{w ~ u} 1/d_w = (1-alpha)^2 d_u + (alpha(2-alpha)/m) d_u^2
    Per same-side pair u != v:
                  sum_{w in N(u) cap N(v)} 1/d_w = (alpha(2-alpha)/m) d_u d_v

    (note the denominator m, not 2m).  In matrix form the vertex sums are
    A D^{-1} 1 and the pair sums are the same-side entries of A D^{-1} A.
    """
    g = ctx.graph
    split = bipartite_split(g)
    spec = ctx.spectrum
    shape_ok = (
        split is not None
        and spec.distinct_count == 4
        and abs(spec.values[0] - 2.0) <= IDENTITY_TOL
        and _ends_at_zero(spec)
        and abs(spec.values[1] + spec.values[2] - 2.0) <= IDENTITY_TOL
        and 0 < spec.values[2] < 1
    )
    if not shape_ok:
        return _precondition(
            "need a connected bipartite graph with spectrum {2, 2-a, a, 0}",
            {"bipartite": split is not None, **_spectrum_detail(spec)},
        )
    alpha = float(spec.values[2])

    A, d = ctx.bundle.A, ctx.bundle.D
    coef = alpha * (2 - alpha) / g.m

    P = A / d  # A D^{-1}
    vertex_rhs = (1 - alpha) ** 2 * d + coef * d**2
    vertex_res = float(np.max(np.abs(P.sum(axis=1) - vertex_rhs)))

    in_part1 = np.zeros(g.n, dtype=bool)
    in_part1[split.sides()[0]] = True
    same_side = np.triu(np.equal.outer(in_part1, in_part1), 1)
    pairs = int(np.count_nonzero(same_side))
    pair_dev = np.abs(P @ A - coef * np.outer(d, d))
    pair_res = float(pair_dev[same_side].max(initial=0.0))

    return (
        CheckResult(
            check="bipartite-vertex-identity",
            passed=vertex_res < IDENTITY_TOL,
            residual=vertex_res,
            witness={"alpha": alpha},
        ),
        CheckResult(
            check="bipartite-same-side-pairs",
            passed=pair_res < IDENTITY_TOL,
            residual=pair_res if pairs else None,
            witness={"pairs": pairs},
            applicable=pairs > 0,
        ),
    )


# ---------------------------------------------------------------------------
# duplicate-vertex eigenvectors


def duplicate_class_eigenvector(
    g: Graph, cls: DuplicateClass, i: int
) -> tuple[np.ndarray, float]:
    """The i-th signed-indicator eigenvector of a duplicate class.

    For class vertices v_1 < ... < v_p the vector x_i (1 <= i <= p-1) is +1
    at v_i, -1 at v_p and 0 elsewhere.  The predicted eigenvalue is 1 for an
    independent class and (p+q)/(p+q-1) for a clique class with q outside
    neighbors.  Returns (x_i, predicted eigenvalue).
    """
    p = cls.size
    if not 1 <= i <= p - 1:
        raise IndexError(f"index must be in 1..{p - 1}, got {i}")
    x = np.zeros(g.n)
    x[cls.vertices[i - 1]] = 1.0
    x[cls.vertices[-1]] = -1.0
    if cls.kind == "independent":
        predicted = 1.0
    else:
        pq = p + cls.outside_degree
        predicted = pq / (pq - 1)
    return x, predicted


@_suite("lemma23")
def check_duplicate_classes(ctx: SpectralContext) -> Sequence[CheckResult]:
    """Verify every duplicate class's predicted eigenvectors, suite "lemma23".

    Each class of p vertices with shared neighborhoods contributes p-1
    signed-indicator eigenvectors; the check confirms the eigen-equation
    residual ||L x - lambda x||_inf < EIGENVECTOR_TOL for each, and that the
    predicted eigenvalue appears with multiplicity >= p-1.
    """
    g = ctx.graph
    classes = duplicate_classes(g)
    if not classes:
        return _precondition("no duplicate classes in the graph")
    bundle = ctx.bundle
    vals = ctx.values
    results = []
    for idx, cls in enumerate(classes):
        worst = 0.0
        predicted = 0.0
        for i in range(1, cls.size):
            x, predicted = duplicate_class_eigenvector(g, cls, i)
            worst = max(worst, float(np.max(np.abs(bundle.L @ x - predicted * x))))
        mult = int(np.sum(np.abs(vals - predicted) <= FUNDAMENTAL_TOL))
        results.append(
            CheckResult(
                check=f"duplicate-class-{idx}",
                passed=worst < EIGENVECTOR_TOL and mult >= cls.size - 1,
                residual=worst,
                witness={
                    "vertices": list(cls.vertices),
                    "kind": cls.kind,
                    "outside_degree": cls.outside_degree,
                    "predicted": predicted,
                    "multiplicity": mult,
                    "multiplicity_needed": cls.size - 1,
                },
            )
        )
    return results


# ---------------------------------------------------------------------------
# classification: three distinct eigenvalues, one equal to 1


@dataclass(frozen=True)
class Classification:
    """Verdict for the 3-distinct-eigenvalues-including-1 classification.

    verdict is "CompleteBipartite" with params (s, n-s), or
    "RegularMultipartite" with params (r, n/r), or "NotInClass" with params
    None.  `distinct_count` / `has_one` record the spectral condition and
    `parts` the complete-multipartite part sizes when the graph has them.
    """

    verdict: str
    params: tuple[int, int] | None
    distinct_count: int
    has_one: bool
    parts: tuple[int, ...] | None
    spectrum: Spectrum

    @property
    def in_class(self) -> bool:
        return self.verdict != "NotInClass"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "params": list(self.params) if self.params else None,
            "distinct_count": self.distinct_count,
            "has_one": self.has_one,
            "parts": list(self.parts) if self.parts else None,
            "spectrum": self.spectrum.as_dict(),
        }


def classify_three_with_one(g: "Graph | SpectralContext") -> Classification:
    """Classify a connected graph whose spectrum has exactly three distinct
    values, one of which is 1; `g` may be a Graph or a SpectralContext.

    Such graphs are exactly the complete bipartite graphs K_{s,n-s} and the
    complete multipartite graphs with r >= 3 equal parts.  The verdict is
    NotInClass precisely when the spectral condition fails.
    """
    ctx = _context(g)
    g = ctx.graph
    if not is_connected(g):
        raise ValueError("classification needs a connected graph")
    if g.n < 3:
        raise ValueError("classification needs at least 3 vertices")
    spec = ctx.spectrum
    has_one = any(abs(v - 1.0) <= IDENTITY_TOL for v in spec.values)
    condition = spec.distinct_count == 3 and has_one
    parts = is_complete_multipartite(g)
    verdict = "NotInClass"
    params = None
    if condition and parts is not None:
        if len(parts) == 2:
            verdict = "CompleteBipartite"
            params = (parts[0], parts[1])
        elif len(parts) >= 3 and len(set(parts)) == 1:
            verdict = "RegularMultipartite"
            params = (len(parts), parts[0])
    return Classification(
        verdict=verdict,
        params=params,
        distinct_count=spec.distinct_count,
        has_one=has_one,
        parts=parts,
        spectrum=spec,
    )


@_suite("thm21")
def check_classification(ctx: SpectralContext) -> Sequence[CheckResult]:
    """Cross-check the 3-eigenvalue classification, suite "thm21".

    Asserts the if-and-only-if between the spectral condition (3 distinct
    values, one equal to 1) and membership in the two structural families;
    matches the closed-form spectrum for members; and checks the refinement
    that a multiplicity pattern (1, n-2, 1) occurs exactly for the complete
    bipartite members (whose eigenvalues are then 2 and 1).  A connected
    graph on fewer than 3 vertices, where the classification is not stated,
    gets a precondition report; disconnected input raises ValueError.
    """
    from . import families

    g = ctx.graph
    if g.n < 3 and is_connected(g):
        return _precondition("needs at least 3 vertices")
    cls = classify_three_with_one(ctx)
    spec = cls.spectrum
    condition = cls.distinct_count == 3 and cls.has_one
    results = [
        CheckResult(
            check="classification-iff",
            passed=cls.in_class == condition,
            witness=cls.to_json_dict(),
        )
    ]
    if cls.in_class:
        if cls.verdict == "CompleteBipartite":
            pred = families.predicted_complete_bipartite_spectrum(*cls.params)
        else:
            r, size = cls.params
            pred = families.predicted_regular_multipartite_spectrum(r, r * size)
        ok, dev = spectra_match(spec, pred, FUNDAMENTAL_TOL)
        results.append(
            CheckResult(
                check="closed-form-spectrum",
                passed=ok,
                residual=dev,
                witness={"verdict": cls.verdict, "params": list(cls.params)},
            )
        )

    pattern = (
        cls.distinct_count == 3
        and spec.multiplicities[0] == 1
        and spec.multiplicities[1] == g.n - 2
    )
    is_cb = cls.verdict == "CompleteBipartite"
    shape_values_ok = (
        abs(spec.values[0] - 2.0) <= IDENTITY_TOL
        and abs(spec.values[1] - 1.0) <= IDENTITY_TOL
        if pattern
        else True
    )
    results.append(
        CheckResult(
            check="two-simple-shape",
            passed=(pattern == is_cb) and shape_values_ok,
            witness={"pattern": pattern, "complete_bipartite": is_cb},
            applicable=cls.distinct_count == 3,
        )
    )
    return results


@_suite("cor20", connected=True)
def check_second_least_one(ctx: SpectralContext) -> Sequence[CheckResult]:
    """Second-least eigenvalue criterion, suite "cor20".

    For a connected non-complete graph the second-least L-eigenvalue is at
    most 1, with equality precisely when the graph is complete multipartite.
    Complete input, K1 among it, is reported as not applicable.
    """
    g = ctx.graph
    if g.m == g.n * (g.n - 1) // 2:
        return _precondition("complete graphs are excluded")
    vals = ctx.values
    second_least = float(vals[-2])
    parts = is_complete_multipartite(g)
    at_one = abs(second_least - 1.0) <= IDENTITY_TOL
    return (
        CheckResult(
            check="second-least-at-most-one",
            passed=second_least <= 1 + IDENTITY_TOL,
            residual=max(0.0, second_least - 1.0),
            witness={"second_least": second_least},
        ),
        CheckResult(
            check="equality-iff-multipartite",
            passed=at_one == (parts is not None),
            residual=abs(second_least - 1.0) if parts is not None else None,
            witness={
                "second_least": second_least,
                "parts": list(parts) if parts else None,
            },
        ),
    )


@_suite("cor21")
def check_bipartite_duplicate_parity(ctx: SpectralContext) -> Sequence[CheckResult]:
    """Distinct-eigenvalue parity for bipartite graphs with duplicate
    vertices, suite "cor21".

    A bipartite graph containing an independent duplicate class has 1 as an
    eigenvalue and a spectrum closed under x -> 2 - x, so its number of
    distinct eigenvalues is odd.  Non-bipartite input or absence of a
    duplicate class is reported as not applicable.
    """
    g = ctx.graph
    if bipartite_split(g) is None:
        return _precondition("graph is not bipartite")
    indep = [c for c in duplicate_classes(g) if c.kind == "independent"]
    if not indep:
        return _precondition("no independent duplicate class")
    spec = ctx.spectrum
    return (
        CheckResult(
            check="odd-distinct-count",
            passed=spec.distinct_count % 2 == 1,
            witness={**_spectrum_detail(spec), "classes": [list(c.vertices) for c in indep]},
        ),
    )


# ---------------------------------------------------------------------------
# bipartite factorization


@dataclass(frozen=True)
class BipartiteFactorization:
    """Half-matrix factorization of a bipartite graph's L-spectrum.

    B is the n1 x n2 biadjacency block (n1 <= n2) over the stored vertex
    orders and xi holds the descending eigenvalues of Bstar Bstar^T, where
    Bstar = D1^{-1/2} B D2^{-1/2}.  The L-spectrum equals
    {1 +/- sqrt(xi_i)} together with 1 repeated n2 - n1 times.
    """

    split: BipartiteSplit
    B: np.ndarray
    xi: np.ndarray
    part1_vertices: tuple[int, ...]
    part2_vertices: tuple[int, ...]

    def predicted_signed_squares(self) -> np.ndarray:
        """(lambda - 1)|lambda - 1| over the implied L-eigenvalues lambda,
        descending: each xi_i, each -xi_i, and n2 - n1 zeros.  No square
        root is taken, which would turn a rounding error of 1e-16 in a zero
        xi_i into 1e-8."""
        zeros = np.zeros(len(self.part2_vertices) - len(self.part1_vertices))
        return np.sort(np.concatenate([self.xi, -self.xi, zeros]))[::-1]


def bipartite_factorization(g: "Graph | SpectralContext") -> BipartiteFactorization:
    """Factor the spectrum of a bipartite graph through its biadjacency
    block; `g` may be a Graph or a SpectralContext, whose A and D it reads.

    Requires a bipartite graph without isolated vertices (their zero degree
    has no normalized block row).  The smaller side is always part 1.
    """
    ctx = _context(g)
    g = ctx.graph
    split = bipartite_split(g)
    if split is None:
        raise ValueError("graph is not bipartite")
    A, d = ctx.bundle.A, ctx.bundle.D
    if np.any(d == 0):
        raise ValueError("isolated vertices have no normalized biadjacency row")
    side1, side2 = split.sides()
    if len(side1) > len(side2):
        side1, side2 = side2, side1
        split = BipartiteSplit(part1=split.part2, part2=split.part1)
    B = A[np.ix_(side1, side2)]
    Bstar = B / np.sqrt(np.outer(d[side1], d[side2]))
    gram = Bstar @ Bstar.T
    xi = jacobi_eigen((gram + gram.T) / 2.0)
    return BipartiteFactorization(
        split=split,
        B=B,
        xi=xi,
        part1_vertices=tuple(side1),
        part2_vertices=tuple(side2),
    )


@_suite("bipartite-factorization")
def check_bipartite_factorization(ctx: SpectralContext) -> Sequence[CheckResult]:
    """Compare the factorized eigenvalues against the direct L-spectrum,
    suite "bipartite-factorization".

    The residual is the largest deviation of (lambda - 1)|lambda - 1| over
    the direct eigenvalues lambda from the factorization's +/- xi_i and
    zeros, both sorted; this map is increasing, so it pairs the same
    eigenvalues as comparing lambda with 1 +/- sqrt(xi_i) would.
    """
    g = ctx.graph
    if g.n == 0:
        return _precondition("graph has no vertices")
    if bipartite_split(g) is None:
        return _precondition("graph is not bipartite")
    if np.any(g.degrees() == 0):
        return _precondition("graph has isolated vertices")
    fact = bipartite_factorization(ctx)
    shifted = ctx.values - 1.0
    dev = float(np.max(np.abs(shifted * np.abs(shifted) - fact.predicted_signed_squares())))
    return (
        CheckResult(
            check="eigenvalue-multiset",
            passed=dev < FACTORIZATION_TOL,
            residual=dev,
            witness={
                "n1": len(fact.part1_vertices),
                "n2": len(fact.part2_vertices),
            },
        ),
    )


# ---------------------------------------------------------------------------
# apex-plus-pendant family


def check_pendant_join_family(t: int) -> CheckReport:
    """Build the order-8t apex-plus-pendant bipartite family member and
    verify its structure and exact four-value spectrum, suite "thm41".

    The closed form is {2, (1 + s)^(4t-1), (1 - s)^(4t-1), 0} with
    s = sqrt(1/(4t+2)); multiplicities must match exactly.
    """
    from . import families

    g, split = families.pendant_join_family(t)
    pred = families.predicted_pendant_join_spectrum(t)
    spec = l_spectrum(g)
    ok, dev = spectra_match(spec, pred, PENDANT_JOIN_TOL)
    degs = g.degrees()
    structure_ok = (
        g.n == 8 * t
        and is_connected(g)
        and bipartite_split(g) is not None
        and int(np.min(degs)) == 1
    )
    return CheckReport(
        suite="thm41",
        results=(
            CheckResult(
                check="structure",
                passed=structure_ok,
                witness={
                    "n": g.n,
                    "m": g.m,
                    "degree_counts": {
                        int(k): int(v)
                        for k, v in zip(*np.unique(degs, return_counts=True))
                    },
                },
            ),
            CheckResult(
                check="closed-form-spectrum",
                passed=ok,
                residual=dev,
                witness={
                    "t": t,
                    "predicted": [[v, mu] for v, mu in pred.pairs],
                    "computed": [[v, mu] for v, mu in spec.pairs],
                },
            ),
        ),
    )


# ---------------------------------------------------------------------------
# suite registry


def _four_ev(ctx: SpectralContext) -> CheckReport:
    """Both four-value checks on one context, as one report."""
    diag = check_four_ev_diagonal(ctx)
    bip = check_bipartite_four_ev(ctx)
    return CheckReport(suite="four-ev", results=diag.results + bip.results)


#: graph-input suite name -> check of one SpectralContext.  The lambdas look
#: each check up by name when called, so a wrapper later installed on a
#: module attribute (to time or count it) sees every suite call.
SUITES: dict[str, Callable[[SpectralContext], CheckReport]] = {
    "lemma22": lambda ctx: check_spectrum_fundamentals(ctx),
    "eq1": lambda ctx: check_eigenvalue_product(ctx),
    "three-ev": lambda ctx: check_three_ev_identities(ctx),
    "four-ev": _four_ev,
    "lemma23": lambda ctx: check_duplicate_classes(ctx),
    "lemma24": lambda ctx: check_three_ev_degree_bounds(ctx),
    "thm21": lambda ctx: check_classification(ctx),
    "cor21": lambda ctx: check_bipartite_duplicate_parity(ctx),
    "cor20": lambda ctx: check_second_least_one(ctx),
    "bipartite-factorization": lambda ctx: check_bipartite_factorization(ctx),
}
