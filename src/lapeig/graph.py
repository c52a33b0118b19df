"""Epsilon-neighborhood graph: kernel matrix K, degrees D, Laplacian L = D - K.

Edges carry weight eta(dist/eps) and vanish beyond ambient distance eps.
The diagonal K_ii = eta(0) is kept; it cancels in L but enters D, and the
normalized eigenproblem uses that D.

Candidate pairs i < j come from a k-d tree (scipy's cKDTree) queried at a
radius a hair above eps.  They are tested in blocks of PAIR_BLOCK pairs:
the exact chord test `|x_i - x_j| <= eps` decides, so a pair at exactly
eps is an edge, and the block's weights are computed from the chord or the
intrinsic distance.  Only pairs with a positive weight are stored, as int32
indices, so every stored off-diagonal entry of K is positive.  K is
assembled in canonical CSR (sorted columns, no duplicates) as the sum of
two CSR matrices: the upper triangle with the diagonal, and the transpose
of the strict upper triangle.  So the chord test and the weights make no
temporaries longer than a block, and K's entries are never held in an
int64 or two-sided COO layout; a build peaks near twice K's bytes.

Components are counted on K itself with scipy's csgraph: K is symmetric and
its off-diagonal entries are positive, so its strongly connected components
are the graph's components.  A graph read from elsewhere must keep that
rule (see `cli._graph_from_json`, which drops stored zeros).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import DimensionMismatch, EmptyCloud
from .kernels import KernelProfile
from .manifolds import PointCloud

METRIC_AMBIENT = "ambient"
METRIC_INTRINSIC = "intrinsic"
# candidate pairs per block of the exact edge test and the weights
PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class NeighborhoodGraph:
    n: int
    eps: float
    kernel_id: str
    metric: str
    kernel_matrix: sparse.csr_matrix
    degrees: np.ndarray

    def laplacian(self) -> sparse.csr_matrix:
        return (sparse.diags(self.degrees) - self.kernel_matrix).tocsr()

    def triplets(self) -> np.ndarray:
        """Stored entries of K as (row, col, value) sorted by (row, col)."""
        coo = self.kernel_matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return np.stack([coo.row[order], coo.col[order], coo.data[order]], axis=-1)


def build_graph(cloud: PointCloud, kernel: KernelProfile, eps: float,
                metric: str = METRIC_AMBIENT) -> NeighborhoodGraph:
    """Assemble K, D for the cloud at scale eps.

    The edge test is always the ambient distance (weights vanish beyond
    eps); with metric="intrinsic" surviving edges are weighted by the
    Riemannian distance instead, which never increases the weight.
    """
    if cloud.n < 2:
        raise EmptyCloud("graph construction needs at least two points")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if metric not in (METRIC_AMBIENT, METRIC_INTRINSIC):
        raise ValueError(f"unknown metric {metric!r}")
    if metric == METRIC_INTRINSIC and cloud.model is None:
        raise ValueError("intrinsic metric needs a cloud with a manifold model")

    eta0 = float(kernel.eta(0.0))
    if not eta0 > 0.0:
        raise ValueError(f"kernel must be positive at 0, got eta(0) = {eta0!r}")

    pts = cloud.ambient
    n = cloud.n
    # the tree rounds distances its own way and can drop a pair whose chord,
    # as computed below, is exactly eps: query a hair wider, the chord decides
    pairs = cKDTree(pts).query_pairs(eps * (1.0 + 1e-12), output_type="ndarray")
    # the stored entries of the upper triangle: the diagonal, then the pairs
    # i < j with a positive weight, filled block by block
    rows = np.empty(n + len(pairs), dtype=np.int32)
    cols = np.empty_like(rows)
    vals = np.empty(len(rows))
    rows[:n] = cols[:n] = np.arange(n)
    vals[:n] = eta0
    end = n
    for lo in range(0, len(pairs), PAIR_BLOCK):
        ii, jj = pairs[lo:lo + PAIR_BLOCK].T
        chord = np.linalg.norm(pts[ii] - pts[jj], axis=-1)
        keep = chord <= eps
        ii, jj, chord = ii[keep], jj[keep], chord[keep]
        if metric == METRIC_AMBIENT:
            dist = chord
        else:
            dist = cloud.model.pair_distances(cloud.params[ii], cloud.params[jj])
        w = np.asarray(kernel.eta(dist / eps), dtype=float)
        pos = w > 0.0
        stop = end + int(np.count_nonzero(pos))
        rows[end:stop], cols[end:stop], vals[end:stop] = ii[pos], jj[pos], w[pos]
        end = stop
    del pairs  # freed before the merge below, which sets the peak
    # K = (upper triangle with the diagonal) + (strict upper triangle)^T: two
    # canonical CSR matrices merged into a canonical CSR, entry for entry
    upper = sparse.csr_matrix((vals[:end], (rows[:end], cols[:end])), shape=(n, n))
    lower = sparse.csr_matrix((vals[n:end], (cols[n:end], rows[n:end])), shape=(n, n))
    del rows, cols, vals
    kmat = upper + lower
    degrees = np.asarray(kmat.sum(axis=1)).ravel()
    return NeighborhoodGraph(n=n, eps=float(eps), kernel_id=kernel.label or kernel.kind,
                             metric=metric, kernel_matrix=kmat, degrees=degrees)


def quadratic_form(graph: NeighborhoodGraph, u) -> float:
    """(1/2) sum_ij K_ij (u_i - u_j)^2, identical to u^T L u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (graph.n,):
        raise DimensionMismatch(f"vector length {u.shape} does not match n={graph.n}")
    coo = graph.kernel_matrix.tocoo()
    diffs = u[coo.row] - u[coo.col]
    return 0.5 * float(np.sum(coo.data * diffs * diffs))


def epsilon_schedule(n, m: int, scale_c: float = 1.0) -> float:
    """The connectivity-scale schedule c * (log n / n)^(1/(m+2))."""
    return scale_c * (math.log(n) / n) ** (1.0 / (m + 2))


def eps_from_rule(rule: str, n: int, m: int) -> float:
    """Resolve an eps rule: auto, auto:<c> (the schedule times c), fixed:<x> or <x>."""
    if rule == "auto":
        return epsilon_schedule(n, m)
    head, sep, value = rule.partition(":")
    try:
        x = float(value if head in ("auto", "fixed") and sep else rule)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"bad eps rule {rule!r}; use auto, auto:<c>, fixed:<x> or <x>"
                         " with a positive finite number")
    return epsilon_schedule(n, m, x) if head == "auto" else x


@dataclass(frozen=True)
class ConnectivityReport:
    components: int


def connectivity_report(graph: NeighborhoodGraph) -> ConnectivityReport:
    """Number of components of the graph, counted on K itself (one csgraph call).

    K is symmetric and each stored off-diagonal entry is positive, so the
    strongly connected components of K, read as a directed graph, are the
    components of the graph; the diagonal self-loops change nothing.
    """
    comps = connected_components(graph.kernel_matrix, directed=True, connection="strong")[0]
    return ConnectivityReport(components=int(comps))
