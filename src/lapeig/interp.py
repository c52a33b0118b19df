"""Discrete-to-continuous maps and one-dimensional energy quadrature.

The interpolation operator averages sample values with the tail-integral
weights psi(d/eps), using the intrinsic distance (the graph deliberately
uses the ambient one; the mismatch is part of the method).  The weights
are sparse: a k-d tree on the embedded points finds the pairs whose chord
is within the kernel's support times eps, and only their intrinsic
distances are computed.  They are built and reduced block by block: the
queries are cut into contiguous blocks of at most PSI_BLOCK_PAIRS
candidate pairs (one query at least), and each block's rows are summed
and dropped before the next is built.  Memory is thus bounded by that
constant, not by queries times neighbours, and every row sum is the one
the whole matrix gives.  Where the local mass vanishes the operator is
undefined and raises, rather than inventing a default value.

The transport map sends each quadrature node to its intrinsically nearest
sample.  It too searches a k-d tree, built on the distinct samples: the
chord never exceeds the intrinsic distance, so the nearest sample lies
within chord radius d(node, j_c) of the node, where j_c is its
chord-nearest sample.  That radius, widened by a relative and an absolute
margin for rounding, bounds the candidates whose intrinsic distances are
compared, and the answer equals the dense argmin over all samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .errors import CoverageGap, UndefinedAtPoint, UnsupportedDimension
from .kernels import KernelProfile
from .manifolds import PointCloud

# node-by-candidate entries per slice of the transport search
TRANSPORT_BLOCK_ELEMENTS = 2_000_000
# candidate (query, sample) pairs per block of interpolation weights
PSI_BLOCK_PAIRS = 2 ** 14


@dataclass(frozen=True)
class InterpolationContext:
    """A cloud with the kernel and scale fixing the interpolation operator."""

    cloud: PointCloud
    kernel: KernelProfile
    eps: float

    def __post_init__(self):
        if self.cloud.model is None:
            raise ValueError("interpolation needs a cloud with a manifold model")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and positive, got {self.eps!r}")


def restrict(f, cloud: PointCloud) -> np.ndarray:
    """Evaluate f on the sample chart points: the vector (f(x_1), ..., f(x_n))."""
    vals = np.asarray(f(cloud.params), dtype=float)
    if vals.shape != (cloud.n,):
        raise ValueError("f must map the params array to one value per point")
    return vals


def _psi_weights(ctx: InterpolationContext, x):
    """psi(d(x, x_i)/eps) for each query (row) and sample (column), yielded
    as CSR blocks of contiguous query rows, in order.

    Candidates are the pairs whose chord is within support * eps; the chord
    never exceeds the intrinsic distance, so no nonzero weight is missed.
    Only the nonzero weights are stored.  A ball count per query cuts the
    queries into blocks of at most PSI_BLOCK_PAIRS candidates (one query
    at least); the counts only place the cuts, and each block finds its own
    pairs, so a block holds exactly the rows the whole matrix would.
    """
    model, params, n = ctx.cloud.model, ctx.cloud.params, ctx.cloud.n
    if model.m == 1:
        queries = np.atleast_1d(np.asarray(x, dtype=float))
    else:
        queries = np.atleast_2d(np.asarray(x, dtype=float))
    # the margin keeps pairs whose chord equals their intrinsic distance
    # (along a face of the square, say) but rounds a few ulps above it
    radius = ctx.kernel.support * ctx.eps * (1.0 + 1e-12)
    points = model.embed(queries)
    samples = cKDTree(model.embed(params))
    ends = np.cumsum(samples.query_ball_point(points, radius, return_length=True))
    lo = 0
    while lo < len(queries):
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + PSI_BLOCK_PAIRS, side="right")))
        pairs = cKDTree(points[lo:hi]).sparse_distance_matrix(
            samples, radius, output_type="ndarray")
        # row-major order: the kept pairs are then the block's CSR entries,
        # columns ascending in each row, with no COO sort
        order = np.argsort(pairs["i"] * n + pairs["j"])
        rows, cols = pairs["i"][order], pairs["j"][order]
        dists = model.pair_distances(queries[lo:hi][rows], params[cols])
        w = ctx.kernel.psi(dists / ctx.eps)
        keep = w > 0.0
        indptr = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[keep], minlength=hi - lo), out=indptr[1:])
        yield sparse.csr_matrix((w[keep], cols[keep], indptr), shape=(hi - lo, n))
        lo = hi


def _row_sums(ctx: InterpolationContext, x, vectors) -> list[np.ndarray]:
    """w @ v for each v in vectors, where w holds the psi weights of the
    queries x; reduced block by block, so w is never whole."""
    sums = [[] for _ in vectors]
    for w in _psi_weights(ctx, x):
        for out, v in zip(sums, vectors):
            out.append(w @ v)
    return [np.concatenate(out) if out else np.empty(0) for out in sums]


def theta_eps(ctx: InterpolationContext, x) -> np.ndarray:
    """Local interpolation mass (1/n) sum_i psi(d(x, x_i)/eps), one entry per
    query point (a single point gives one entry); zero is legal."""
    (mass,) = _row_sums(ctx, x, [np.ones(ctx.cloud.n)])
    return mass / ctx.cloud.n


def lambda_eps(ctx: InterpolationContext, u, x) -> np.ndarray:
    """Interpolated value sum_i psi(d(x, x_i)/eps) u_i / (n theta_eps(x)),
    one entry per query point (a single point gives one entry).

    A convex combination of the u_i carried by the eps-neighbors of x;
    reproduces constants exactly.  Raises UndefinedAtPoint where the local
    mass is zero.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (ctx.cloud.n,):
        raise ValueError("u must have one entry per sample point")
    if not np.all(np.isfinite(u)):
        raise ValueError("every entry of u must be finite")
    total, mass = _row_sums(ctx, x, [u, np.ones(ctx.cloud.n)])
    if np.any(mass <= 0.0):
        bad = int(np.nonzero(mass <= 0.0)[0][0])
        raise UndefinedAtPoint(
            f"no sample within eps of query point index {bad}; theta_eps = 0")
    return total / mass


@dataclass(frozen=True)
class TransportReport:
    """Nearest-sample transport of a quadrature discretization of rho Vol.

    ``masses[i]`` is the weight carried to sample i; the relative
    deviations compare against the ideal 1/n per sample.
    """

    assignment: np.ndarray
    masses: np.ndarray
    max_distance: float
    max_relative_deviation: float
    median_relative_deviation: float


def transport_map(model, cloud: PointCloud, eps_tilde: float,
                  quad_points: int) -> TransportReport:
    """Assign quadrature mass to nearest samples (ties to the lowest index).

    Discretizes the weighted volume by a uniform chart grid, sends every
    node to its intrinsically nearest sample, and reports the transported
    distance and per-sample masses.  Raises CoverageGap when a node is
    farther than eps_tilde from every sample.

    The search is exact without a dense node-by-sample distance block.  It
    runs over the distinct samples only, each standing for its copies by
    its lowest index, so ties still go to the lowest index.  A k-d tree on
    the embedded samples gives each node its chord-nearest sample j_c.  The
    chord never exceeds the intrinsic distance, so the intrinsically
    nearest sample lies within chord radius d(node, j_c), widened by
    r * (1 + 1e-12) + 1e-12 for rounding.  Most nodes' second chord-nearest
    sample lies outside that radius, so j_c and it are the only candidates.
    The others, whose samples tie within rounding, have every sample within
    the radius counted by one ball query and taken as the k chord-nearest at
    that count; only the candidates' intrinsic distances are computed.  The
    result is the argmin over all samples, bit for bit.  Those nodes are
    searched in slices of at most TRANSPORT_BLOCK_ELEMENTS candidates, so
    samples a few ulps apart, which put up to n samples in a radius, keep
    the candidate arrays bounded.
    """
    if not eps_tilde > 0:
        raise ValueError(f"eps_tilde must be positive, got {eps_tilde!r}")
    if (isinstance(quad_points, bool) or not isinstance(quad_points, (int, np.integer))
            or quad_points < 1):
        raise ValueError(f"quad_points must be an integer >= 1, got {quad_points!r}")
    nodes, weights = model.chart_grid(quad_points)
    weights = weights / weights.sum()
    n = cloud.n
    # coincident samples are searched once, as their lowest index: copies of
    # one point would otherwise all be candidates of every node near it
    first = np.unique(cloud.params.reshape(n, -1), axis=0, return_index=True)[1]
    first.sort()
    params = cloud.params[first]
    count = len(first)
    x = model.embed(nodes)
    tree = cKDTree(cloud.ambient[first])
    k = min(2, count)
    chord, cand = (a.reshape(len(x), k) for a in tree.query(x, k=k))
    # the absolute margin is needed: for a nearly coincident pair the chord
    # can round above the intrinsic distance by more than a relative 1e-12
    radius = model.pair_distances(nodes, params[cand[:, 0]])
    radius = radius * (1.0 + 1e-12) + 1e-12
    nearest = np.empty(len(x), dtype=np.int64)
    dist = np.empty(len(x))

    def settle(rows, cand):
        """The nearest of each row's candidates, ties to the lowest index."""
        d = model.pair_distances(nodes[rows, None], params[cand])
        dist[rows] = d.min(axis=1)
        nearest[rows] = np.where(d == dist[rows, None], cand, count).min(axis=1)

    # resolved: the second chord exceeds the radius, so the nearest sample is
    # one of the two chord-nearest
    done = (chord[:, -1] > radius) | (k == count)
    settle(done, cand[done])
    # the rest (near-ties) are searched at k = the number of samples within
    # their radius, in slices of at most TRANSPORT_BLOCK_ELEMENTS candidates
    # (one node at least), sorted by that number so a slice's k fits each node
    todo = np.flatnonzero(~done)
    sizes = tree.query_ball_point(x[todo], radius[todo], return_length=True)
    order = np.argsort(sizes, kind="stable")
    todo, sizes = todo[order], sizes[order]
    lo = 0
    while lo < todo.size:
        span = np.arange(1, todo.size - lo + 1) * sizes[lo:]
        hi = lo + max(1, int(np.searchsorted(span, TRANSPORT_BLOCK_ELEMENTS, side="right")))
        part, k = todo[lo:hi], int(sizes[hi - 1])
        settle(part, tree.query(x[part], k=k)[1].reshape(part.size, k))
        lo = hi
    max_dist = float(dist.max())
    if max_dist > eps_tilde:
        raise CoverageGap(
            f"a quadrature node is {max_dist:.4g} away from every sample "
            f"(allowed {eps_tilde:.4g})")
    assignment = first[nearest]
    masses = np.bincount(assignment, weights=weights, minlength=n)
    with np.errstate(divide="ignore"):
        rel = np.abs(1.0 / n - masses) / np.where(masses > 0, masses, np.nan)
    rel = np.where(np.isnan(rel), np.inf, rel)
    return TransportReport(assignment=assignment, masses=masses,
                           max_distance=max_dist,
                           max_relative_deviation=float(np.max(rel)),
                           median_relative_deviation=float(np.median(rel)))


def dirichlet_energy_1d(model, f, quad_points: int = 4096) -> float:
    """int |f'|^2 rho^2 along arc length, by central differences on a periodic grid."""
    if model.m != 1:
        raise UnsupportedDimension("energy quadrature supports 1-D chart models only")
    if quad_points < 16:
        raise ValueError("need at least 16 quadrature points")
    two_pi = 2.0 * math.pi
    theta = (np.arange(quad_points) + 0.5) * two_pi / quad_points
    h_arc = (two_pi / quad_points) * model.chart_speed
    vals = np.asarray(f(theta), dtype=float)
    deriv = (np.roll(vals, -1) - np.roll(vals, 1)) / (2.0 * h_arc)
    rho = model.rho(theta)
    return float(np.sum(deriv ** 2 * rho ** 2) * h_arc)
