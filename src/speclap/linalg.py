"""Dense symmetric eigensolver and spectrum bookkeeping.

The eigensolver is a cyclic Jacobi iteration: it rotates away off-diagonal
mass one (p, q) plane at a time until the largest off-diagonal entry drops
below DEFAULT_JACOBI_TOL.  It produces an orthogonal eigenvector matrix by
construction.  Its callers are all in `nlspec`: the one L solve of
`SpectralContext.eigen`, `adjacency_spectrum` and the Gram-matrix solve of
the bipartite factorization.  The exhaustive scans do not use it; they take
their spectra from one batched `numpy.linalg.eigvalsh` call per order.

Spectra are stored clustered: a sorted run of eigenvalues is merged into
(value, multiplicity) pairs by single linkage with a fixed tolerance, and the
stored value is the mean of each cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "JacobiConvergenceError",
    "EigenDecomposition",
    "Spectrum",
    "PredictedSpectrum",
    "as_symmetric",
    "jacobi_eigen",
    "cluster_spectrum",
    "quadratic_roots",
    "spectra_match",
    "format_value",
]

#: default threshold for declaring two eigenvalues equal when clustering
DEFAULT_CLUSTER_TOL = 1e-6

#: off-diagonal sweep threshold for the Jacobi iteration
DEFAULT_JACOBI_TOL = 1e-12

_MAX_SWEEPS = 60


class JacobiConvergenceError(RuntimeError):
    """Raised when the sweep budget is exhausted before convergence."""

    def __init__(self, order: int, sweeps: int, off: float):
        self.order = order
        self.sweeps = sweeps
        self.off = off
        super().__init__(
            f"Jacobi failed to converge for order {order} after {sweeps} sweeps "
            f"(max off-diagonal {off:.3e})"
        )


def as_symmetric(m: "np.ndarray | Sequence", name: str = "matrix") -> np.ndarray:
    """Validate and return `m` as a square, exactly symmetric float array.

    Exact bitwise symmetry is required, not symmetry up to rounding: callers
    that build matrices from products are expected to symmetrize explicitly
    so that downstream checks never chase phantom asymmetry.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    if not np.array_equal(a, a.T):
        raise ValueError(f"{name} is not exactly symmetric")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending) with matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def jacobi_eigen(m: "np.ndarray | Sequence") -> EigenDecomposition:
    """Diagonalize a symmetric matrix by cyclic Jacobi rotations.

    Sweeps stop once every off-diagonal entry is <= DEFAULT_JACOBI_TOL in
    absolute value; more than _MAX_SWEEPS sweeps raise
    JacobiConvergenceError.  Returns eigenvalues sorted descending together
    with the accumulated rotation matrix, whose columns are the
    corresponding eigenvectors.
    """
    a = as_symmetric(m).copy()
    n = a.shape[0]
    v = np.eye(n)
    if n < 2:
        return EigenDecomposition(values=np.diag(a).copy(), vectors=v)

    # rotations smaller than this are skipped inside a sweep; anything the
    # sweep skips is already far below the stopping threshold
    skip = DEFAULT_JACOBI_TOL * 1e-2
    sweeps = 0
    while True:
        off = _max_offdiag(a)
        if off <= DEFAULT_JACOBI_TOL:
            break
        if sweeps >= _MAX_SWEEPS:
            raise JacobiConvergenceError(n, sweeps, off)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                _rotate(a, v, p, q, apq)
        sweeps += 1

    values = np.diag(a).copy()
    order = np.argsort(values)[::-1]
    return EigenDecomposition(values=values[order], vectors=v[:, order])


def _max_offdiag(a: np.ndarray) -> float:
    b = np.abs(a.copy())
    np.fill_diagonal(b, 0.0)
    return float(b.max())


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int, apq: float) -> None:
    # classical 2x2 annihilation: pick tan(theta) of smaller magnitude
    tau = (a[q, q] - a[p, p]) / (2.0 * apq)
    if tau >= 0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c

    ap = a[:, p].copy()
    aq = a[:, q].copy()
    a[:, p] = c * ap - s * aq
    a[:, q] = s * ap + c * aq
    ap = a[p, :].copy()
    aq = a[q, :].copy()
    a[p, :] = c * ap - s * aq
    a[q, :] = s * ap + c * aq
    a[p, q] = 0.0
    a[q, p] = 0.0

    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp - s * vq
    v[:, q] = s * vp + c * vq


@dataclass(frozen=True)
class Spectrum:
    """Clustered spectrum: (value, multiplicity) pairs, values descending.

    Values are cluster means; consecutive stored values differ by more than
    `cluster_tol`, so re-clustering a Spectrum is a no-op.
    """

    pairs: tuple[tuple[float, int], ...]
    cluster_tol: float

    def __post_init__(self):
        if not (math.isfinite(self.cluster_tol) and self.cluster_tol > 0):
            raise ValueError("cluster_tol must be positive and finite")
        vals = [v for v, _ in self.pairs]
        mults = [m for _, m in self.pairs]
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be >= 1")
        for hi, lo in zip(vals, vals[1:]):
            if not hi - lo > self.cluster_tol:
                raise ValueError(
                    "cluster values must be strictly descending with gaps "
                    f"wider than cluster_tol={self.cluster_tol}"
                )

    @property
    def order(self) -> int:
        """Total eigenvalue count (with multiplicity)."""
        return sum(m for _, m in self.pairs)

    @property
    def distinct_count(self) -> int:
        return len(self.pairs)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.pairs)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.pairs)

    def expand(self) -> np.ndarray:
        """Full eigenvalue list (descending, with multiplicity)."""
        return np.repeat([v for v, _ in self.pairs], [m for _, m in self.pairs])

    def round_to(self, ndigits: int) -> tuple[tuple[float, int], ...]:
        return tuple((round(v, ndigits), m) for v, m in self.pairs)

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "cluster_tol": self.cluster_tol,
            "pairs": [[v, m] for v, m in self.pairs],
        }


def cluster_spectrum(
    values: "Iterable[float] | np.ndarray",
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> Spectrum:
    """Merge a raw eigenvalue list into (mean, multiplicity) clusters.

    Single linkage on the sorted list: a new cluster starts wherever the gap
    between neighbours exceeds `cluster_tol`.  Idempotent on already-clustered
    data because surviving gaps exceed the tolerance by construction.
    """
    if not (math.isfinite(cluster_tol) and cluster_tol > 0):
        raise ValueError("cluster_tol must be positive and finite")
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        return Spectrum(pairs=(), cluster_tol=cluster_tol)
    pairs: list[tuple[float, int]] = []
    start = 0
    for i in range(1, arr.size + 1):
        if i == arr.size or arr[i] - arr[i - 1] > cluster_tol:
            chunk = arr[start:i]
            pairs.append((float(chunk.mean()), int(chunk.size)))
            start = i
    pairs.reverse()
    return Spectrum(pairs=tuple(pairs), cluster_tol=cluster_tol)


@dataclass(frozen=True)
class PredictedSpectrum:
    """Closed-form spectrum: exact (value, multiplicity) pairs, descending."""

    pairs: tuple[tuple[float, int], ...]

    def __post_init__(self):
        vals = [v for v, _ in self.pairs]
        if any(m < 1 for _, m in self.pairs):
            raise ValueError("multiplicities must be >= 1")
        if any(hi <= lo for hi, lo in zip(vals, vals[1:])):
            raise ValueError("values must be strictly descending")

    @property
    def order(self) -> int:
        return sum(m for _, m in self.pairs)

    @property
    def distinct_count(self) -> int:
        return len(self.pairs)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.pairs)

    def expand(self) -> np.ndarray:
        return np.repeat([v for v, _ in self.pairs], [m for _, m in self.pairs])

    def as_dict(self) -> dict:
        return {"order": self.order, "pairs": [[v, m] for v, m in self.pairs]}


def spectra_match(
    computed: Spectrum,
    predicted: "PredictedSpectrum | Spectrum",
    value_tol: float,
) -> tuple[bool, float]:
    """Compare a computed spectrum against a prediction.

    Returns (ok, max_value_deviation).  Multiplicities must agree pairwise;
    value deviation is the max absolute difference over paired clusters (inf
    when the shapes disagree).
    """
    if computed.order != predicted.order:
        return False, math.inf
    if len(computed.pairs) != len(predicted.pairs):
        # shapes disagree; report the best full-list deviation for diagnosis
        dev = float(np.abs(computed.expand() - predicted.expand()).max())
        return False, dev
    dev = 0.0
    ok = True
    for (cv, cm), (pv, pm) in zip(computed.pairs, predicted.pairs):
        dev = max(dev, abs(cv - pv))
        if cm != pm:
            ok = False
    return (ok and dev <= value_tol), dev


def quadratic_roots(a2: float, a1: float, a0: float) -> tuple[float, float]:
    """Real roots of a2*x^2 + a1*x + a0, larger first.

    Uses the sign-safe form to avoid cancellation; raises ValueError when the
    discriminant is negative or the leading coefficient vanishes.
    """
    if a2 == 0:
        raise ValueError("leading coefficient must be nonzero")
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0:
        raise ValueError(f"negative discriminant {disc}")
    sq = math.sqrt(disc)
    if a1 >= 0:
        qq = -0.5 * (a1 + sq)
    else:
        qq = -0.5 * (a1 - sq)
    # roots: qq / a2 and a0 / qq (when qq == 0 both roots are 0)
    if qq == 0.0:
        return 0.0, 0.0
    r1 = qq / a2
    r2 = a0 / qq
    return (r1, r2) if r1 >= r2 else (r2, r1)


def format_value(x: float, paper_precision: bool = False) -> str:
    """Render a float at the package's reporting precision.

    Default is 10 significant digits; paper_precision switches to 4 decimal
    places (the precision used by the reference tables this package checks
    itself against).  A value that rounds to 0 at 10 decimal places prints
    as 0, so rounding noise on a zero eigenvalue does not show.  (Rounding
    every value that way before the 10-digit format would round twice and
    could change the last digit.)
    """
    if round(x, 10) == 0:
        x = 0.0  # never print -0 or noise
    out = f"{x:.4f}" if paper_precision else f"{x:.10g}"
    if out.startswith("-") and float(out) == 0:
        out = out[1:]  # -1e-17 rounds to -0.0000; drop the sign
    return out
