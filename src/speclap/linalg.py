"""Dense symmetric eigensolver and spectrum bookkeeping.

The eigensolver is a Jacobi iteration in the round-robin order of Brent and
Luk: each round rotates away the off-diagonal mass of n/2 disjoint (p, q)
planes in one matrix product, until the largest off-diagonal entry drops
below DEFAULT_JACOBI_TOL, and returns the eigenvalues only.  Its callers are
all in `nlspec`: the one L solve of `SpectralContext.values`,
`adjacency_spectrum` and the Gram-matrix solve of the bipartite
factorization.  The exhaustive scans do not use it; they take
their spectra from one batched `numpy.linalg.eigvalsh` call per order.

Spectra are stored clustered: a sorted run of eigenvalues is merged into
(value, multiplicity) pairs by single linkage with a fixed tolerance, and the
stored value is the mean of each cluster.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "JacobiConvergenceError",
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


def jacobi_eigen(m: "np.ndarray | Sequence") -> np.ndarray:
    """Eigenvalues of a symmetric matrix by round-robin Jacobi rotations.

    A sweep visits every (p, q) plane once, in the n - 1 rounds of the
    parallel ordering of Brent & Luk (SIAM J. Sci. Stat. Comput. 6, 1985).
    A round's planes are disjoint, so its rotations commute and are applied
    as one orthogonal matrix.  Sweeps stop once every off-diagonal entry is
    <= DEFAULT_JACOBI_TOL in absolute value; more than _MAX_SWEEPS sweeps
    raise JacobiConvergenceError.  Returns the eigenvalues as a descending
    1-D array.
    """
    a0 = as_symmetric(m)
    n = a0.shape[0]
    if n < 2:
        return np.diag(a0).copy()

    # an odd order gets one dummy index; its row and column stay exactly
    # zero, so none of its planes is ever rotated, and it is sliced off below
    size = n + n % 2
    a = np.zeros((size, size))
    a[:n, :n] = a0
    # rotations smaller than this are skipped inside a sweep; anything the
    # sweep skips is already far below the stopping threshold
    skip = DEFAULT_JACOBI_TOL * 1e-2
    sweeps = 0
    while True:
        off = float(np.abs(a - np.diag(np.diag(a))).max())
        if off <= DEFAULT_JACOBI_TOL:
            break
        if sweeps >= _MAX_SWEEPS:
            raise JacobiConvergenceError(n, sweeps, off)
        for p, q, at in _round_robin(size):
            apq = a[p, q]
            live = np.abs(apq) > skip
            if not live.any():
                continue
            # classical 2x2 annihilation, tan(theta) of smaller magnitude:
            # t = b / (d + sign(d) hypot(d, b)) with b = 2 a_pq, d = a_qq - a_pp
            b = 2.0 * apq
            d = a[q, q] - a[p, p]
            t = np.divide(b, d + np.copysign(np.hypot(d, b), d), out=np.zeros_like(b), where=live)
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            j = np.zeros((size, size))
            j.ravel()[at] = np.concatenate((c, c, s, -s))
            a = j.T @ a @ j
            a = (a + a.T) * 0.5
            a[p, q] = a[q, p] = np.where(live, 0.0, apq)
        sweeps += 1

    values = np.diag(a)[:n]
    return values[np.argsort(values)[::-1]]


@functools.lru_cache(maxsize=32)
def _round_robin(size: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    # even order: size - 1 rounds of disjoint planes (p, q), p < q, and the
    # flat positions of (p, p), (q, q), (p, q), (q, p); 0 stays, the rest cycle
    rounds = []
    for r in range(size - 1):
        slots = np.r_[0, np.roll(np.arange(1, size), r)]
        p, q = np.sort([slots[: size // 2], slots[: size // 2 - 1 : -1]], axis=0)
        rounds.append((p, q, np.r_[p * size + p, q * size + q, p * size + q, q * size + p]))
    return tuple(rounds)


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
