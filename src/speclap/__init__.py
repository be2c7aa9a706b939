"""speclap: normalized-Laplacian spectra of graphs.

Compute clustered L-spectra, build the graph families and Hadamard-matrix
designs whose spectra have closed forms, verify the spectral identities and
classification criteria those closed forms rest on, and exhaustively scan
small graphs for prescribed spectral shapes.
"""

from . import designs, families, graph, linalg, nlspec, scans
from .graph import Graph, from_edge_list, from_graph6, to_graph6
from .linalg import (
    PredictedSpectrum,
    Spectrum,
    cluster_spectrum,
    jacobi_eigen,
    spectra_match,
)
from .nlspec import adjacency_spectrum, build, l_spectrum

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "PredictedSpectrum",
    "Spectrum",
    "adjacency_spectrum",
    "build",
    "cluster_spectrum",
    "designs",
    "families",
    "from_edge_list",
    "from_graph6",
    "graph",
    "jacobi_eigen",
    "l_spectrum",
    "linalg",
    "nlspec",
    "scans",
    "spectra_match",
    "to_graph6",
    "__version__",
]
