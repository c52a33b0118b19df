"""Eigen-solvers for L and (L, D), eigenvalue rescalings, and subspace comparison.

Both solve A = diag(a) - diag(s) K diag(s) on the graph's own K, building no
matrix: L for (a, s) = (D, 1), D^(-1/2) L D^(-1/2) for (a, s) = (1, D^(-1/2)).
Since a = s^2 d, w = 1/s is A's exact null vector in both modes (1 for L,
sqrt(d) for the normalized matrix), so Lanczos never searches for it: it
solves A + sigma u u^T, u = w/||w||, for the other pairs and stops at
LANCZOS_TOL, and the null pair is prepended as (w^T A w / w^T w, u).  With
sigma = 4 max diag(A), twice the bound of A's spectrum, the null direction
sits above every other eigenvalue, so this one path solves every count <= n.

The comparison half works on finite-dimensional inner-product spaces given
as matrices: an SPD Gram matrix for the inner product and a symmetric PSD
matrix for the quadratic form.  The eigenvector comparison covers the one
block (2, 2), so its E3 and E4 are single Rayleigh quotients at u_2 and
exact.  E1, E2 and the eigenvalue transfer check are differences of two
quotients; their suprema are estimated by a dense sphere grid with two
local refinement passes and carry an explicit slack term derived from the
grid modulus, since the grid can only underestimate a supremum.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import (DegenerateBasis, DisconnectedGraph, FExceedsOne, GapViolation,
                     KTooLarge, SolverFailure, SpanTooLarge)
from .graph import NeighborhoodGraph, connectivity_report
from .kernels import KernelProfile, sigma_eta, sigma_tilde_eta

RESIDUAL_TOL = 1e-8
# ARPACK's stopping tolerance on the deflated operator, relative to each Ritz value
LANCZOS_TOL = 1e-10
# Lanczos basis vectors, twice as many where K stores at least 4 LANCZOS_NCV
# entries per row: there one K product (2 nnz flops) costs as much as a
# Gram-Schmidt pass against the whole longer basis (4 n j flops at step j)
LANCZOS_NCV = 40
LANCZOS_MAXITER = 500
# stored entries per row block of a split Lanczos matvec, at least; on a
# 2-core Xeon two blocks lost to one at 305k entries and won 1.2-1.9x from 340k
MATVEC_BLOCK_NNZ = 200_000
# points per half-turn of the sphere grid that estimates a comparison supremum
GRID_DENSITY = 256

MODE_UNNORMALIZED = "unnormalized"
MODE_NORMALIZED = "normalized"


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with eigenvectors orthonormal in the inner product
    that ``weights`` names.

    ``weights`` is None for the plain (1/n) mean inner product, else the
    per-vertex weight vector entering (1/n) sum u_i v_i w_i.  ``residual``
    is the pairs' largest residual max_j ||A v_j - lambda_j v_j|| relative
    to 2 max diag(A), an upper bound of the spectrum of the solved symmetric
    matrix A.  ``matvecs`` counts the operator products ARPACK asked for, 0
    only for k = 0, which makes no ARPACK call.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float
    matvecs: int
    weights: np.ndarray | None = None


_CORES = len(os.sched_getaffinity(0))
_lock = threading.Lock()
# the block-product workers; an executor starts its threads on its first submit
_pool = ThreadPoolExecutor(max_workers=_CORES, thread_name_prefix="lapeig-matvec")
_solves_in_flight = 0


@contextmanager
def _counted_solve():
    """Count a Lanczos solve in _solves_in_flight while it runs."""
    global _solves_in_flight
    with _lock:
        _solves_in_flight += 1
    try:
        yield
    finally:
        with _lock:
            _solves_in_flight -= 1


def _row_blocks(mat: sparse.csr_matrix, count: int) -> list[sparse.csr_matrix]:
    """At most ``count`` contiguous row blocks of about equal nnz, as CSR views
    of mat's data and indices.

    The views are set on empty matrices: a ``mat[lo:hi]`` slice copies the
    block, and so does the (data, indices, indptr) constructor for a view
    under half the size of its base.
    """
    rows, cols = mat.shape
    cuts = np.searchsorted(mat.indptr, np.arange(1, count) * (mat.nnz / count))
    bounds = np.unique(np.concatenate(([0], cuts, [rows])))
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        a, b = mat.indptr[lo], mat.indptr[hi]
        block = sparse.csr_matrix((hi - lo, cols), dtype=mat.dtype)
        block.data, block.indices = mat.data[a:b], mat.indices[a:b]
        block.indptr = mat.indptr[lo:hi + 1] - a
        blocks.append(block)
    return blocks


def _blocks_matvec(blocks: list[sparse.csr_matrix], x: np.ndarray) -> np.ndarray:
    """The products of the row blocks with x, stacked; the caller takes the first
    block, the pool the others.  Each row is summed by the same CSR loop in the
    same order as in the whole matrix, so the result is mat @ x bit for bit."""
    futures = [_pool.submit(block.dot, x) for block in blocks[1:]]
    first = blocks[0].dot(x)
    return np.concatenate([first] + [f.result() for f in futures]) if futures else first


def _scaled_product(kdot, a: np.ndarray, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a*x - s*(K (s*x)) with K x taken by kdot; a and s are columns for a matrix x."""
    y = kdot(s * x)
    y *= s
    return np.subtract(a * x, y, out=y)


class _LanczosOperator(LinearOperator):
    """diag(a) - diag(s) K diag(s) + sigma u u^T as an operator whose K products
    spread K's rows over the cores that the other solves in flight leave idle.

    Each matvec uses min(cores // solves in flight, nnz // MATVEC_BLOCK_NNZ)
    blocks, at least one, read afresh each time: solves running side by side
    (the harness's threads) share the cores, and a lone solve takes them all.
    ``matvecs`` counts the products.  A subclass, not a closure over itself,
    so that no reference cycle keeps K's blocks alive after the solve.
    """

    def __init__(self, kmat: sparse.csr_matrix, a: np.ndarray, s: np.ndarray,
                 sigma: float, u: np.ndarray):
        super().__init__(kmat.dtype, kmat.shape)
        self._most = max(1, min(_CORES, kmat.nnz // MATVEC_BLOCK_NNZ))
        self._split = {count: _row_blocks(kmat, count) for count in range(1, self._most + 1)}
        self._a, self._s, self._sigma, self._u = a, s, sigma, u
        self.matvecs = 0

    def _kdot(self, x):
        return _blocks_matvec(self._split[max(1, min(_CORES // _solves_in_flight, self._most))], x)

    def _matvec(self, x):
        self.matvecs += 1
        y = _scaled_product(self._kdot, self._a, self._s, x)
        y += (self._sigma * (self._u @ x)) * self._u
        return y


def _smallest_eigenpairs(kmat: sparse.csr_matrix, a: np.ndarray, s: np.ndarray,
                         count: int) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Smallest eigenpairs of A = diag(a) - diag(s) K diag(s), PSD and diagonally dominant.

    The null pair is known, since a = s^2 d makes w = 1/s an exact null
    vector of A: ARPACK's regular-mode Lanczos (one product with K per step,
    split over the idle cores by _LanczosOperator) finds the count - 1
    smallest values of A + sigma u u^T, u = w/||w||, from a seeded start
    vector, with LANCZOS_NCV basis vectors (2 LANCZOS_NCV on a dense K:
    ARPACK checks convergence only on a full basis, so a short one restarts
    and spends products it did not need), at most LANCZOS_MAXITER restarts
    and tolerance LANCZOS_TOL, and (w^T A w / w^T w, u) is prepended;
    count = 1 makes no ARPACK call.  lambda_0 is taken from the unnormalized
    w, which rounds less than u.  beta = 2 max diag(A) bounds A's spectrum,
    since x^T A x <= 2 sum_i A_ii x_i^2, and a bipartite graph reaches it;
    sigma = 2 beta puts the null direction strictly above every other
    eigenvalue, so every count <= n is a Lanczos solve, and a deflated value
    at or above sigma is a SolverFailure.  Zero's multiplicity is not read
    from these values (a Krylov solve finds one copy of a repeated
    eigenvalue): graph_spectrum counts components first.  Returns (values,
    unit vectors, residual, matvecs); a failed solve, or a residual of any
    pair, the null pair included, above RESIDUAL_TOL relative to beta, is a
    SolverFailure.
    """
    n = kmat.shape[0]
    if count > n:
        raise KTooLarge(f"requested {count} eigenpairs of a {n}x{n} matrix")
    beta = 2.0 * float(np.max(a - s * s * kmat.diagonal()))
    sigma = 2.0 * beta
    w = 1.0 / s
    u = w / np.linalg.norm(w)
    vals, vecs, matvecs = np.empty(0), np.empty((n, 0)), 0
    if count > 1:
        v0 = np.random.default_rng(np.uint64(0xC0FFEE ^ n)).standard_normal(n)
        basis = 2 * LANCZOS_NCV if kmat.nnz >= 4 * LANCZOS_NCV * n else LANCZOS_NCV
        try:
            op = _LanczosOperator(kmat, a, s, sigma, u)
            with _counted_solve():
                vals, vecs = eigsh(op, k=count - 1, which="SA", tol=LANCZOS_TOL, v0=v0,
                                   ncv=min(n, max(basis, 2 * count - 1)),
                                   maxiter=LANCZOS_MAXITER)
        # ARPACK's errors are RuntimeErrors
        except (RuntimeError, MemoryError) as exc:
            raise SolverFailure(f"Lanczos solve of a {n}x{n} matrix failed: {exc!r}") from exc
        matvecs = op.matvecs
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    if not np.all(vals < sigma):
        raise SolverFailure(f"deflated eigenvalues of a {n}x{n} matrix reach the shift "
                            f"{sigma:.4g}: {vals.max():.4g}")
    null = float(w @ _scaled_product(kmat.dot, a, s, w) / (w @ w))
    vals, vecs = np.concatenate(([null], vals)), np.column_stack((u, vecs))
    resid = _scaled_product(kmat.dot, a[:, None], s[:, None], vecs) - vecs * vals
    worst = float(np.linalg.norm(resid, axis=0).max())
    if not worst <= RESIDUAL_TOL * beta:
        raise SolverFailure(f"eigenpairs of a {n}x{n} matrix have residual "
                            f"{worst:.3g}, above {RESIDUAL_TOL:g} x {beta:.4g}")
    return vals, vecs, (worst / beta if beta > 0 else 0.0), matvecs


def unnormalized_spectrum(graph: NeighborhoodGraph, k: int) -> Spectrum:
    """Smallest k+1 eigenpairs of L = D - K, eigenvectors of mean-square norm one."""
    vals, vecs, residual, matvecs = _smallest_eigenpairs(
        graph.kernel_matrix, graph.degrees, np.ones(graph.n), k + 1)
    return Spectrum(values=vals, vectors=vecs * math.sqrt(graph.n), residual=residual,
                    matvecs=matvecs)


def normalized_spectrum(graph: NeighborhoodGraph, k: int, kernel: KernelProfile,
                        m: int) -> Spectrum:
    """Eigenpairs of L v = lambda D v via D^(-1/2) L D^(-1/2) = I - D^(-1/2) K D^(-1/2).

    Eigenvectors are back-transformed and normalized in the degree-weighted
    inner product (1/n) sum u_i v_i w_i, whose weights are the scale-free
    degrees D_ii / (n eps^m sigma_tilde) of ``kernel`` in dimension ``m``.
    """
    d = graph.degrees
    vals, vecs, residual, matvecs = _smallest_eigenpairs(
        graph.kernel_matrix, np.ones(graph.n), 1.0 / np.sqrt(d), k + 1)
    back = vecs / np.sqrt(d)[:, None]
    weights = d / (graph.n * graph.eps ** m * sigma_tilde_eta(kernel, m))
    norms = np.sqrt(np.einsum("ij,ij->j", back * weights[:, None], back) / graph.n)
    return Spectrum(values=vals, vectors=back / norms, residual=residual, matvecs=matvecs,
                    weights=weights)


def rescale_unnormalized(lam, n: int, eps: float, sigma_eta: float, m: int):
    """2 lambda / (sigma_eta n eps^(m+2)): graph eigenvalue to operator scale."""
    return 2.0 * np.asarray(lam) / (sigma_eta * n * eps ** (m + 2))


def rescale_normalized(lam, eps: float, sigma_eta: float, sigma_tilde: float):
    """2 sigma_tilde lambda / (sigma_eta eps^2) for the (L, D) eigenvalues.

    The scale-free form (no sample-size factor) is the dimensionally
    consistent one.
    """
    return 2.0 * sigma_tilde * np.asarray(lam) / (sigma_eta * eps ** 2)


def graph_spectrum(graph: NeighborhoodGraph, k: int, mode: str, kernel: KernelProfile,
                   m: int) -> tuple[Spectrum, np.ndarray]:
    """Smallest k+1 eigenpairs of L (plain mode) or (L, D), and their rescaled values.

    Raises DisconnectedGraph, before any eigensolve, when the graph has more
    than one component over the positive entries of K.  The eigenvalues
    cannot tell: a Krylov solver started from one vector finds a single
    copy of the repeated eigenvalue zero.
    """
    if mode not in (MODE_UNNORMALIZED, MODE_NORMALIZED):
        raise ValueError(f"unknown mode {mode!r}")
    components = connectivity_report(graph).components
    if components > 1:
        raise DisconnectedGraph(f"the graph has {components} components (n={graph.n}, "
                                f"eps={graph.eps:.4g})")
    sig = sigma_eta(kernel, m)
    if mode == MODE_UNNORMALIZED:
        spec = unnormalized_spectrum(graph, k)
        rescaled = rescale_unnormalized(spec.values, graph.n, graph.eps, sig, m)
    else:
        spec = normalized_spectrum(graph, k, kernel, m)
        rescaled = rescale_normalized(spec.values, graph.eps, sig, sigma_tilde_eta(kernel, m))
    return spec, rescaled


# ---------------------------------------------------------------------------
# Subspace alignment on R^n with (1/n)-weighted inner products
# ---------------------------------------------------------------------------

@dataclass
class AlignmentReport:
    principal_angles: np.ndarray
    residuals: np.ndarray
    e1: float | None = None
    e2: float | None = None
    e3: float | None = None
    e4: float | None = None
    f_bound: float | None = None
    f_slack: float | None = None
    gap: float | None = None
    conclusion_ok: bool | None = None


def _orthonormalize(basis: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    n = basis.shape[0]
    wb = basis if weights is None else basis * weights[:, None]
    gram = basis.T @ wb / n
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise DegenerateBasis("basis Gram matrix is not positive definite") from exc
    if np.linalg.cond(chol) > 1e8:
        raise DegenerateBasis("basis is numerically dependent")
    return basis @ np.linalg.inv(chol).T


def subspace_alignment(basis_a, basis_b, weights=None) -> AlignmentReport:
    """Principal angles between two spans and per-vector projection residuals.

    Bases are columns; both are orthonormalized in the (optionally
    weighted) mean inner product first, so the angles are invariant to any
    rotation or rescaling inside either span.
    """
    a = np.atleast_2d(np.asarray(basis_a, dtype=float))
    b = np.atleast_2d(np.asarray(basis_b, dtype=float))
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DegenerateBasis("bases must be column matrices over the same vertex set")
    n = a.shape[0]
    qa = _orthonormalize(a, weights)
    qb = _orthonormalize(b, weights)
    wqb = qb if weights is None else qb * weights[:, None]
    cross = qa.T @ wqb / n
    svals = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
    angles = np.sort(np.arccos(svals))
    wa = a if weights is None else a * weights[:, None]
    norms = np.einsum("ij,ij->j", a, wa) / n
    coeffs = qb.T @ wa / n
    proj_sq = np.einsum("ij,ij->j", coeffs, coeffs)
    residuals = np.clip(1.0 - proj_sq / norms, 0.0, 1.0)
    return AlignmentReport(principal_angles=angles, residuals=residuals)


# ---------------------------------------------------------------------------
# Quadratic-form comparison on matrix-described inner-product spaces
# ---------------------------------------------------------------------------

def form_eigensystem(form: np.ndarray, inner: np.ndarray):
    """Eigenvalues (ascending) and inner-orthonormal eigenvectors of the pencil."""
    vals, vecs = sla.eigh(np.asarray(form, dtype=float), np.asarray(inner, dtype=float))
    return vals, vecs


def clamped_form(form: np.ndarray, inner: np.ndarray, lam: float,
                 cutoff: float) -> np.ndarray:
    """Replace the form above ``cutoff`` by ``lam`` times the inner product.

    In the eigenbasis the new form is diag(value if value <= cutoff else
    lam); it never exceeds the original, and restricted to any subspace its
    j-th eigenvalue is at least min(lam, j-th eigenvalue of the original).
    """
    vals, vecs = form_eigensystem(form, inner)
    clamped = np.where(vals <= cutoff, vals, lam)
    mid = vecs @ np.diag(clamped) @ vecs.T
    return inner @ mid @ inner


def _sphere_grid(dim: int, density: int) -> np.ndarray:
    """Coefficient grid on the unit sphere S^(dim-1); Rayleigh objectives are even."""
    if dim == 2:
        phi = np.linspace(0.0, math.pi, density, endpoint=False)
        return np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    if dim == 3:
        u = np.linspace(0.0, math.pi, density)
        v = np.linspace(0.0, math.pi, density, endpoint=False)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        return np.stack([np.cos(uu), np.sin(uu) * np.cos(vv),
                         np.sin(uu) * np.sin(vv)], axis=-1).reshape(-1, 3)
    raise SpanTooLarge("sphere grids support spans of dimension at most 3")


def _local_sphere_grid(center: np.ndarray, radius: float, density: int) -> np.ndarray:
    """Renormalized box grid around a sphere point, for refinement passes."""
    dim = center.size
    steps = [np.linspace(-radius, radius, density)] * dim
    mesh = np.stack(np.meshgrid(*steps, indexing="ij"), axis=-1).reshape(-1, dim)
    pts = center[None, :] + mesh
    norms = np.linalg.norm(pts, axis=1)
    pts = pts[norms > 1e-12] / norms[norms > 1e-12, None]
    return pts


def _grid_supremum(objective, dim: int, density: int):
    """Gridded supremum over the unit sphere plus a modulus-based slack estimate.

    ``objective(C)`` maps coefficient rows to values.  The slack is the
    largest change of the objective between neighboring samples of the
    coarse grid, an explicit stand-in for the unknown grid gap.  On a 1-D
    span the sphere is one direction up to sign, so the value is exact.
    """
    if dim == 1:
        return float(objective(np.ones((1, 1)))[0]), 0.0
    grid = _sphere_grid(dim, density)
    vals = objective(grid)
    best = int(np.nanargmax(vals))
    sup = float(vals[best])
    center = grid[best]
    finite = vals[np.isfinite(vals)]
    modulus = float(np.max(np.abs(np.diff(finite)))) if finite.size > 1 else 0.0
    radius = math.pi / density
    for _ in range(2):
        local = _local_sphere_grid(center, radius, max(9, density // 8))
        lv = objective(local)
        j = int(np.nanargmax(lv))
        if lv[j] > sup:
            sup = float(lv[j])
            center = local[j]
        radius *= 0.25
    return sup, modulus


def _quad(c: np.ndarray, m: np.ndarray) -> np.ndarray:
    return np.einsum("nd,de,ne->n", c, m, c)


def _rayleigh_gap_objective(num_a, den_a, num_b, den_b):
    """c -> (c num_a c)/(c den_a c) - (c num_b c)/(c den_b c), guarding 0/0."""
    def obj(coefs):
        da = _quad(coefs, den_a)
        db = _quad(coefs, den_b)
        first = np.where(da > 1e-300, _quad(coefs, num_a) / np.maximum(da, 1e-300), np.inf)
        second = np.where(db > 1e-300, _quad(coefs, num_b) / np.maximum(db, 1e-300), np.inf)
        out = first - second
        out[~np.isfinite(first) & ~np.isfinite(second)] = np.nan
        return out
    return obj


def _excess_supremum(basis, mapping, form_a, inner_a, form_b, inner_b):
    """Gridded sup over unit c of R_a(mapping basis c) - R_b(basis c), and its slack.

    R_a and R_b are the Rayleigh quotients of (form_a, inner_a) and
    (form_b, inner_b); the slack is the grid modulus of _grid_supremum.
    """
    mapped = mapping @ basis
    objective = _rayleigh_gap_objective(mapped.T @ form_a @ mapped, mapped.T @ inner_a @ mapped,
                                        basis.T @ form_b @ basis, basis.T @ inner_b @ basis)
    return _grid_supremum(objective, basis.shape[1], GRID_DENSITY)


@dataclass(frozen=True)
class ComparisonCheck:
    e_sup: float
    slack: float
    values_domain: np.ndarray
    values_target: np.ndarray
    margins: np.ndarray
    passed: bool


def eigenvalue_comparison_check(d1, inner1, d2, inner2, q1, k: int) -> ComparisonCheck:
    """Check the minimax transfer bound between two quadratic forms.

    With E the gridded supremum, over the unit sphere of the span of the
    first k eigenvectors of (d1, inner1), of the Rayleigh-quotient excess
    of d2 after mapping by q1, the first k eigenvalues must satisfy
    values2[j] <= values1[j] + E + slack.
    """
    if k > 3:
        raise SpanTooLarge("tested span must have dimension at most 3")
    d1, inner1, d2, inner2, q1 = (np.asarray(a, dtype=float)
                                  for a in (d1, inner1, d2, inner2, q1))
    vals1, vecs1 = form_eigensystem(d1, inner1)
    vals2, _ = form_eigensystem(d2, inner2)
    e_sup, modulus = _excess_supremum(vecs1[:, :k], q1, d2, inner2, d1, inner1)
    slack = modulus + 1e-9 * max(1.0, abs(e_sup))
    margins = vals1[:k] + e_sup + slack - vals2[:k]
    return ComparisonCheck(e_sup=e_sup, slack=slack, values_domain=vals1[:k],
                           values_target=vals2[:k], margins=margins,
                           passed=bool(np.all(margins >= 0.0)))


def eigenvector_comparison(d1, inner1, d2, inner2, q1, q2) -> AlignmentReport:
    """Quantities controlling how the second eigenvector u_2 transfers to f_2.

    u_j and f_j are the inner-orthonormal eigenvectors of (d1, inner1) and
    (d2, inner2), ascending; both spaces need dimension at least 3
    (ValueError otherwise).  (2, 2) is the only block compared, since any
    larger one needs E1 and E2 over spans above dimension 3, which are not
    gridded.  E1 and E2 are gridded over span{f_1, f_2, f_3} (and q1 u_2)
    and span{u_1, u_2, u_3}; E3 (roundtrip defect) and E4 (norm distortion)
    are exact quotients at u_2.  The combined bound F must cover the
    projection residual of q1 u_2 against f_2.  Raises GapViolation when
    the half-gap does not dominate the Rayleigh errors and FExceedsOne when
    the bound is vacuous.
    """
    d1, inner1, d2, inner2, q1, q2 = (np.asarray(a, dtype=float)
                                      for a in (d1, inner1, d2, inner2, q1, q2))
    if min(d1.shape[0], d2.shape[0]) < 3:
        raise ValueError("the (2, 2) comparison needs spaces of dimension at least 3")

    vals1, vecs1 = form_eigensystem(d1, inner1)
    vals2, vecs2 = form_eigensystem(d2, inner2)
    u2 = vecs1[:, 1]
    mapped = q1 @ u2

    # E1 over span{f_1, f_2, f_3} and over q1 u_2; E2 over span{u_1, u_2, u_3}
    e1_a, mod1_a = _excess_supremum(vecs2[:, :3], q2, d1, inner1, d2, inner2)
    e1_b, mod1_b = _excess_supremum(mapped[:, None], q2, d1, inner1, d2, inner2)
    e1, mod1 = max(e1_a, e1_b), max(mod1_a, mod1_b)
    e2, mod2 = _excess_supremum(vecs1[:, :3], q1, d2, inner2, d1, inner1)

    # E3: relative roundtrip defect; E4: relative norm distortion, both at u_2
    norm_sq = u2 @ inner1 @ u2
    defect = u2 - q2 @ mapped
    e3 = math.sqrt(max(float(defect @ inner1 @ defect / norm_sq), 0.0))
    e4 = abs(math.sqrt(max(float(mapped @ inner2 @ mapped / norm_sq), 0.0)) - 1.0)

    gamma = 0.5 * min(vals1[1] - vals1[0], vals1[2] - vals1[1])
    if gamma <= max(e1, e2):
        raise GapViolation(
            f"half-gap {gamma:.3g} does not exceed the Rayleigh errors "
            f"E1={e1:.3g}, E2={e2:.3g}")
    lam = vals1[1]
    coeff = (lam / gamma + 2.0) * 2.0 + 1.0
    f_bound = (coeff * (max(e1, 0.0) + max(e2, 0.0)) + 4.0 * lam * e3) / gamma
    f_slack = coeff * (mod1 + mod2) / gamma
    if f_bound >= 1.0:
        raise FExceedsOne(f"combined bound F={f_bound:.3g} is not below one")

    # conclusion (i): projection residual of q1 u_2 against f_2, in inner2
    cos_sq = (vecs2[:, 1] @ inner2 @ mapped) ** 2 / max(mapped @ inner2 @ mapped, 1e-300)
    residual = float(np.clip(1.0 - cos_sq, 0.0, 1.0))
    return AlignmentReport(
        principal_angles=np.array([math.acos(min(math.sqrt(cos_sq), 1.0))]),
        residuals=np.array([residual]),
        e1=e1, e2=e2, e3=e3, e4=e4,
        f_bound=f_bound, f_slack=f_slack, gap=gamma,
        conclusion_ok=bool(residual <= f_bound + f_slack + 1e-9),
    )
