"""Dense symmetric eigensolver and spectrum bookkeeping.

`jacobi_eigen` validates a symmetric matrix and returns its eigenvalues from
LAPACK, through `numpy.linalg.eigvalsh`.  Its callers are all in `nlspec`:
the one L solve of `SpectralContext.values`, `adjacency_spectrum` and the
Gram-matrix solve of the bipartite factorization.  The exhaustive scans
take their spectra from one batched `eigvalsh` call per order.

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


def jacobi_eigen(m: "np.ndarray | Sequence") -> np.ndarray:
    """Eigenvalues of a symmetric matrix, as a descending 1-D array.

    `m` is checked by `as_symmetric` and solved by LAPACK through
    `numpy.linalg.eigvalsh`.  The name is kept from the Jacobi iteration
    this replaced, because the benchmark's tracing binds it by name.
    """
    return np.linalg.eigvalsh(as_symmetric(m))[::-1]


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
    data because surviving gaps exceed the tolerance by construction, and
    because a mean is clamped to its cluster's range: the float mean of m
    copies of v need not be v.
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
            pairs.append((float(np.clip(chunk.mean(), chunk[0], chunk[-1])), int(chunk.size)))
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
