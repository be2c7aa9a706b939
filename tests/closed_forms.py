"""Closed-form spectra that the tests compare eigensolver output against.

Each function returns exact targets from the structure of a graph or design,
never from an eigensolver.
"""

import math

import numpy as np

from speclap.designs import Design
from speclap.families import u4_symmetric_factors
from speclap.linalg import PredictedSpectrum, quadratic_roots


def complete_l_values(n: int) -> np.ndarray:
    """L-eigenvalues of K_n, descending: n/(n-1) with multiplicity n-1, then 0."""
    return np.array([n / (n - 1)] * (n - 1) + [0.0])


def cycle_l_values(n: int) -> np.ndarray:
    """L-eigenvalues of C_n, descending: 1 - cos(2 pi k / n), k = 0..n-1."""
    return np.sort([1 - math.cos(2 * math.pi * k / n) for k in range(n)])[::-1]


def complete_bipartite_l_values(s: int, t: int) -> np.ndarray:
    """L-eigenvalues of K_{s,t}, descending: 2, 1 with multiplicity s+t-2, 0."""
    return np.array([2.0] + [1.0] * (s + t - 2) + [0.0])


def incidence_l_values(d: Design) -> np.ndarray:
    """L-eigenvalues of the incidence graph of a 2-design, descending.

    D^(-1/2) A D^(-1/2) has eigenvalues +/- sigma / sqrt(rk) for the singular
    values sigma of the incidence matrix N, whose Gram matrix N N^T is
    (r - lam) I + lam J: sqrt(rk) once and sqrt(r - lam) with multiplicity
    v - 1.  The other b - v eigenvalues are 0, so L has 1 there.
    """
    root = math.sqrt((d.r - d.lam) / (d.r * d.k))
    middle = [1 + root] * (d.v - 1) + [1.0] * (d.b - d.v) + [1 - root] * (d.v - 1)
    return np.array([2.0] + middle + [0.0])


def predicted_incidence_adjacency_spectrum(d: Design) -> PredictedSpectrum:
    """Closed-form adjacency spectrum of the incidence graph:
    +/- sqrt(rk) simple, +/- sqrt(r - lam) with multiplicity v-1 each,
    and 0 with multiplicity b - v.  Coincident values merge."""
    top = float(np.sqrt(d.r * d.k))
    mid = float(np.sqrt(d.r - d.lam))
    raw = [(top, 1), (mid, d.v - 1), (0.0, d.b - d.v), (-mid, d.v - 1), (-top, 1)]
    merged: dict[float, int] = {}
    for val, mult in raw:
        if mult > 0:
            merged[val] = merged.get(val, 0) + mult
    pairs = tuple(sorted(merged.items(), reverse=True))
    return PredictedSpectrum(pairs=pairs)


def u4_symmetric_spectrum(a: int) -> PredictedSpectrum:
    """Exact L-spectrum of U4(a, a, a), assembled from u4_symmetric_factors.

    The p2 roots straddle both 1 and the p1 root, so the descending order is
    fixed for every a >= 1: p2_hi^2, p1_root^1, 1^(3a-3), p2_lo^2, 0^1.
    """
    (l1, l0), (q2, q1, q0), mult_one, mult_zero = u4_symmetric_factors(a)
    lin = -l0 / l1
    hi, lo = quadratic_roots(q2, q1, q0)
    pairs: list[tuple[float, int]] = [(hi, 2), (lin, 1)]
    if mult_one:
        pairs.append((1.0, mult_one))
    pairs.extend([(lo, 2), (0.0, mult_zero)])
    return PredictedSpectrum(pairs=tuple(pairs))
