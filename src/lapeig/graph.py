"""Epsilon-neighborhood graph: kernel matrix K, degrees D, Laplacian L = D - K.

Edges carry weight eta(dist/eps) and vanish beyond ambient distance
support * eps, the reach of the kernel's support.
The diagonal K_ii = eta(0) is kept; it cancels in L but enters D, and the
normalized eigenproblem uses that D.

Candidate pairs i < j come from a k-d tree (scipy's cKDTree, with
sliding-midpoint splits and full-width node boxes) queried at a radius a
hair above the reach.  They are tested in blocks of PAIR_BLOCK pairs: the
exact chord test `|x_i - x_j| <= support * eps` decides, so a pair at
exactly the reach is an edge.  The chord sums the squared coordinate
differences in coordinate order, one contiguous column at a time; for up
to 7 ambient coordinates that is the sum np.linalg.norm forms, bit for bit
(from 8 on, numpy sums pairwise and may differ in the last ulp).  The
block's weights come from the chord or from the model's intrinsic
distance, taken through `pair_distance_fn`, which lets a model do its
per-point work once per sample.  Only pairs with a positive weight are
stored, as int32 indices, so every stored off-diagonal entry of K is
positive.

K is assembled in canonical CSR (sorted columns, no duplicates) with no
sort: the upper triangle with the diagonal goes from COO to CSR by one
counting pass, its rows in pair order.  scipy's CSR transpose emits sorted
rows, so one O(nnz) transpose gives the canonical lower triangle, and a
second, written back into the upper triangle's own arrays, sorts it.  K is
their canonical CSR sum, whose doubled diagonal is set back to eta(0).  The
pair list and block temporaries are freed before the sum, so a build peaks
near twice K's bytes.

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
# private to scipy: the kernels of coo_matrix.tocsr and of the CSR transpose,
# called directly by _unsorted_csr and _sorted_halves alone
from scipy.sparse._sparsetools import coo_tocsr, csr_tocsc
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import DimensionMismatch, EmptyCloud, GraphTooLarge, NonFiniteCloud
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
        """Stored entries of K as (row, col, value) sorted by (row, col).

        K is canonical CSR (sorted columns, no duplicates), so its COO form
        is already in that order.
        """
        coo = self.kernel_matrix.tocoo()
        return np.stack([coo.row, coo.col, coo.data], axis=-1)


def _unsorted_csr(rows, cols, vals, n: int) -> sparse.csr_matrix:
    """n x n CSR of triplets without duplicates, each row in input order.

    This is the counting pass of scipy's `coo_matrix.tocsr` (its private
    `coo_tocsr`, with the index dtype `tocsr` picks), without the per-row
    sort of the `sum_duplicates` that follows it there.
    """
    nnz = len(vals)
    idx = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.empty(n + 1, dtype=idx)
    indices = np.empty(nnz, dtype=idx)
    data = np.empty(nnz)
    coo_tocsr(n, n, nnz, rows.astype(idx, copy=False), cols.astype(idx, copy=False), vals,
              indptr, indices, data)
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def _sorted_halves(u: sparse.csr_matrix) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """u with its rows sorted in place, and its transpose, both canonical CSR,
    with no sort.

    scipy's CSR transpose (`csr_tocsc`) emits every row sorted, so `u.T.tocsr()`
    is canonical, and transposing it back into u's own arrays sorts u.  Reusing
    those arrays allocates no third half: one more raised the resident peak
    of a sphere and square sweep at n = 8192 from 234 to 251 MB (2-core x86
    VM, glibc).
    """
    n = u.shape[0]
    lower = u.T.tocsr()
    csr_tocsc(n, n, lower.indptr, lower.indices, lower.data, u.indptr, u.indices, u.data)
    return sparse.csr_matrix((u.data, u.indices, u.indptr), shape=u.shape), lower


def _upper_triangle(cloud: PointCloud, kernel: KernelProfile, eps: float,
                    metric: str, eta0: float) -> sparse.csr_matrix:
    """The diagonal eta(0) and the pairs i < j within chord support * eps that
    carry a positive weight, as CSR with unsorted rows.

    The tree's pair list is freed before the COO-to-CSR pass, and the block
    temporaries die with this frame, before K is assembled.
    """
    n = cloud.n
    # contiguous coordinate columns, their squared differences summed in order
    coords = [np.ascontiguousarray(c) for c in cloud.ambient.T]
    if metric == METRIC_INTRINSIC:
        pair_distance = cloud.model.pair_distance_fn(cloud.params)
    reach = kernel.support * eps
    # the tree rounds distances its own way and can drop a pair whose chord,
    # as computed below, is exactly the reach: query a hair wider, the chord
    # decides.  Sliding-midpoint splits and full-width node boxes build and
    # query faster here than the median splits; the pair set is the same
    pairs = cKDTree(cloud.ambient, balanced_tree=False, compact_nodes=False).query_pairs(
        reach * (1.0 + 1e-12), output_type="ndarray")
    # the diagonal, then the kept pairs, filled block by block
    rows = np.empty(n + len(pairs), dtype=np.int32)
    cols = np.empty_like(rows)
    vals = np.empty(len(rows))
    rows[:n] = cols[:n] = np.arange(n)
    vals[:n] = eta0
    end = n
    for lo in range(0, len(pairs), PAIR_BLOCK):
        ii, jj = pairs[lo:lo + PAIR_BLOCK].T
        sq = (coords[0][ii] - coords[0][jj]) ** 2
        for c in coords[1:]:
            sq += (c[ii] - c[jj]) ** 2
        chord = np.sqrt(sq)
        keep = chord <= reach
        ii, jj, chord = ii[keep], jj[keep], chord[keep]
        dist = chord if metric == METRIC_AMBIENT else pair_distance(ii, jj)
        w = np.asarray(kernel.eta(dist / eps), dtype=float)
        pos = w > 0.0
        stop = end + int(np.count_nonzero(pos))
        rows[end:stop], cols[end:stop], vals[end:stop] = ii[pos], jj[pos], w[pos]
        end = stop
    del pairs
    return _unsorted_csr(rows[:end], cols[:end], vals[:end], n)


def build_graph(cloud: PointCloud, kernel: KernelProfile, eps: float,
                metric: str = METRIC_AMBIENT) -> NeighborhoodGraph:
    """Assemble K, D for the cloud at scale eps.

    The edge test is always the ambient distance (weights vanish beyond
    support * eps); with metric="intrinsic" surviving edges are weighted by
    the Riemannian distance instead, which never increases the weight.  A
    graph that does not fit in memory raises GraphTooLarge.
    """
    if cloud.n < 2:
        raise EmptyCloud("graph construction needs at least two points")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if metric not in (METRIC_AMBIENT, METRIC_INTRINSIC):
        raise ValueError(f"unknown metric {metric!r}")
    if metric == METRIC_INTRINSIC and cloud.model is None:
        raise ValueError("intrinsic metric needs a cloud with a manifold model")
    # the tree refuses a NaN point untyped, and a NaN parameter gives every
    # intrinsic distance from its point NaN, so weight 0: a lone self-loop
    if not np.isfinite(cloud.ambient).all():
        raise NonFiniteCloud("the cloud's ambient coordinates must be finite")
    if metric == METRIC_INTRINSIC and not np.isfinite(cloud.params).all():
        raise NonFiniteCloud("the cloud's intrinsic coordinates must be finite"
                             " for the intrinsic metric")

    eta0 = float(kernel.eta(0.0))
    if not eta0 > 0.0:
        raise ValueError(f"kernel must be positive at 0, got eta(0) = {eta0!r}")

    n = cloud.n
    # K = upper + lower entry for entry, except that the sum doubles the
    # diagonal: row i of lower holds row i's entries at columns <= i, so K_ii
    # is the last of them in row i of K, and is set back to eta(0).  Two
    # full-size summands and no third matrix for the diagonal leave the
    # allocator less resident heap for the solve that follows
    try:
        upper, lower = _sorted_halves(_upper_triangle(cloud, kernel, eps, metric, eta0))
        kmat = upper + lower
        del upper
        kmat.data[kmat.indptr[:-1] + np.diff(lower.indptr) - 1] = eta0
        del lower
        degrees = np.asarray(kmat.sum(axis=1)).ravel()
    # numpy's and the k-d tree's failed allocations (std::bad_alloc) alike
    except MemoryError as exc:
        raise GraphTooLarge(f"the graph of {n} points at eps={eps!r} does not fit"
                            f" in memory: {exc}") from exc
    return NeighborhoodGraph(n=n, eps=float(eps), kernel_id=kernel.label,
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
