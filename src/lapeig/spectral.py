"""Eigen-solvers for L and (L, D), eigenvalue rescalings, and subspace comparison.

The comparison half works on finite-dimensional inner-product spaces given
as matrices: an SPD Gram matrix for the inner product and a symmetric PSD
matrix for the quadratic form.  E3 and E4 of the eigenvector comparison
are single Rayleigh quotients, so their suprema are exact pencil
eigenvalues.  E1, E2 and the eigenvalue transfer check are differences of
two quotients; their suprema are estimated by a dense sphere grid with two
local refinement passes and carry an explicit slack term derived from the
grid modulus, since the grid can only underestimate a supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy import sparse
from scipy.sparse.linalg import eigsh

from .errors import (DegenerateBasis, DisconnectedGraph, FExceedsOne, GapViolation,
                     KTooLarge, SolverFailure, SpanTooLarge)
from .graph import NeighborhoodGraph, connectivity_report
from .kernels import KernelProfile, sigma_eta, sigma_tilde_eta

DENSE_SOLVER_MAX_N = 1024
RESIDUAL_TOL = 1e-8
LANCZOS_NCV = 40
LANCZOS_MAXITER = 500

SOLVER_DENSE = "dense"
SOLVER_LANCZOS = "lanczos"

MODE_UNNORMALIZED = "unnormalized"
MODE_NORMALIZED = "normalized"


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with eigenvectors orthonormal in the inner product
    that ``weights`` names.

    ``weights`` is None for the plain (1/n) mean inner product, else the
    per-vertex weight vector entering (1/n) sum u_i v_i w_i.  ``solver`` is
    the path that found the pairs (``"dense"`` or ``"lanczos"``) and
    ``residual`` their largest residual max_j ||A v_j - lambda_j v_j||
    relative to 2 max diag(A), an upper bound of the spectrum of the solved
    symmetric matrix A.
    """

    values: np.ndarray
    vectors: np.ndarray
    solver: str
    residual: float
    weights: np.ndarray | None = None


def _smallest_eigenpairs(mat: sparse.spmatrix,
                         count: int) -> tuple[np.ndarray, np.ndarray, str, float]:
    """Smallest eigenpairs of a symmetric PSD, diagonally dominant matrix.

    Dense ``eigh`` up to DENSE_SOLVER_MAX_N; above it ARPACK's regular-mode
    Lanczos for the smallest algebraic values (one SpMV per step, no
    factorization), from a seeded start vector and with LANCZOS_NCV basis
    vectors and at most LANCZOS_MAXITER restarts.  A single Krylov start
    vector finds one copy of an exactly repeated eigenvalue only, so the
    multiplicity of zero is not read from these values: graph_spectrum
    counts components first.  Returns (values, unit vectors, solver,
    residual); a failed ARPACK run, or a residual above RESIDUAL_TOL, is a
    SolverFailure.
    """
    n = mat.shape[0]
    if count > n:
        raise KTooLarge(f"requested {count} eigenpairs of a {n}x{n} matrix")
    if n <= DENSE_SOLVER_MAX_N or count >= n - 1:
        solver = SOLVER_DENSE
        vals, vecs = sla.eigh(mat.toarray(), subset_by_index=[0, count - 1])
    else:
        solver = SOLVER_LANCZOS
        v0 = np.random.default_rng(np.uint64(0xC0FFEE ^ n)).standard_normal(n)
        try:
            vals, vecs = eigsh(mat, k=count, which="SA", tol=0, v0=v0,
                               ncv=min(n, max(LANCZOS_NCV, 2 * count + 1)),
                               maxiter=LANCZOS_MAXITER)
        except (RuntimeError, MemoryError) as exc:  # ARPACK errors are RuntimeErrors
            raise SolverFailure(str(exc)) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    bound = 2.0 * float(mat.diagonal().max())
    worst = float(np.linalg.norm(mat @ vecs - vecs * vals, axis=0).max())
    if not worst <= RESIDUAL_TOL * bound:
        raise SolverFailure(f"{solver} eigenpairs of a {n}x{n} matrix have residual "
                            f"{worst:.3g}, above {RESIDUAL_TOL:g} x {bound:.4g}")
    return vals, vecs, solver, (worst / bound if bound > 0 else 0.0)


def unnormalized_spectrum(graph: NeighborhoodGraph, k: int) -> Spectrum:
    """Smallest k+1 eigenpairs of L, eigenvectors of mean-square norm one."""
    vals, vecs, solver, residual = _smallest_eigenpairs(graph.laplacian(), k + 1)
    return Spectrum(values=vals, vectors=vecs * math.sqrt(graph.n), solver=solver,
                    residual=residual)


def normalized_spectrum(graph: NeighborhoodGraph, k: int,
                        kernel: KernelProfile | None = None,
                        m: int | None = None) -> Spectrum:
    """Eigenpairs of L v = lambda D v via the symmetric D^(-1/2) L D^(-1/2).

    Eigenvectors are back-transformed and normalized in the degree-weighted
    inner product (1/n) sum u_i v_i w_i.  With ``kernel`` and ``m`` given,
    the weights are the scale-free degrees D_ii / (n eps^m sigma_tilde);
    otherwise the raw degrees are used (same vectors up to a global factor).
    """
    d = graph.degrees
    inv_sqrt = sparse.diags(1.0 / np.sqrt(d))
    sym = (inv_sqrt @ graph.laplacian() @ inv_sqrt).tocsr()
    vals, vecs, solver, residual = _smallest_eigenpairs(sym, k + 1)
    back = vecs / np.sqrt(d)[:, None]
    if kernel is not None and m is not None:
        weights = d / (graph.n * graph.eps ** m * sigma_tilde_eta(kernel, m))
    else:
        weights = d.copy()
    norms = np.sqrt(np.einsum("ij,ij->j", back * weights[:, None], back) / graph.n)
    return Spectrum(values=vals, vectors=back / norms, solver=solver, residual=residual,
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
        spec = normalized_spectrum(graph, k, kernel=kernel, m=m)
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
    spread: float | None = None
    max_grid_residual: float | None = None
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
    if dim == 1:
        return np.array([[1.0]])
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
    coarse grid, an explicit stand-in for the unknown grid gap.
    """
    grid = _sphere_grid(dim, density)
    vals = objective(grid)
    best = int(np.nanargmax(vals))
    sup = float(vals[best])
    center = grid[best]
    if dim == 1:
        return sup, 0.0
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


def _ratio_pair(form: np.ndarray, inner: np.ndarray, basis: np.ndarray):
    """Small matrices (A, B) with R(span coef c) = (c A c) / (c B c)."""
    a = basis.T @ form @ basis
    b = basis.T @ inner @ basis
    return a, b


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


@dataclass(frozen=True)
class ComparisonCheck:
    e_sup: float
    slack: float
    values_domain: np.ndarray
    values_target: np.ndarray
    margins: np.ndarray
    passed: bool


def eigenvalue_comparison_check(d1, inner1, d2, inner2, q1, k: int,
                                grid_density: int = 256) -> ComparisonCheck:
    """Check the minimax transfer bound between two quadratic forms.

    With E the gridded supremum, over the unit sphere of the span of the
    first k eigenvectors of (d1, inner1), of the Rayleigh-quotient excess
    of d2 after mapping by q1, the first k eigenvalues must satisfy
    values2[j] <= values1[j] + E + slack.
    """
    if k > 3:
        raise SpanTooLarge("tested span must have dimension at most 3")
    vals1, vecs1 = form_eigensystem(d1, inner1)
    vals2, _ = form_eigensystem(d2, inner2)
    basis = vecs1[:, :k]
    mapped = np.asarray(q1) @ basis
    num_a, den_a = _ratio_pair(np.asarray(d2), np.asarray(inner2), mapped)
    num_b, den_b = _ratio_pair(np.asarray(d1), np.asarray(inner1), basis)
    e_sup, modulus = _grid_supremum(
        _rayleigh_gap_objective(num_a, den_a, num_b, den_b), k, grid_density)
    slack = modulus + 1e-9 * max(1.0, abs(e_sup))
    margins = vals1[:k] + e_sup + slack - vals2[:k]
    return ComparisonCheck(e_sup=e_sup, slack=slack, values_domain=vals1[:k],
                           values_target=vals2[:k], margins=margins,
                           passed=bool(np.all(margins >= 0.0)))


def eigenvector_comparison(d1, inner1, d2, inner2, q1, q2, k: int, l: int,
                           grid_density: int = 256) -> AlignmentReport:
    """Quantities controlling how the k..l eigenvector block transfers.

    Indices are 1-based into the ascending eigenvalue lists and need
    2 <= k <= l with l + 1 <= 3 (the E1/E2 spans have dimension l + 1 and
    are gridded up to dimension 3), so the one admissible block is the 1-D
    block (2, 2); any other raises SpanTooLarge or ValueError.  Estimates E1
    and E2 on sphere grids, takes E3 and E4 from exact pencils, assembles
    the combined bound F, and verifies the block-projection conclusion on
    a grid of the source span.  Raises GapViolation when the half-gap does
    not dominate the Rayleigh errors and FExceedsOne when the bound is vacuous.
    """
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    inner1 = np.asarray(inner1, dtype=float)
    inner2 = np.asarray(inner2, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    n1 = d1.shape[0]
    n2 = d2.shape[0]
    if not (2 <= k <= l <= min(n1, n2) - 1):
        raise ValueError("need 2 <= k <= l <= dim - 1 (1-based indices)")
    if l + 1 > 3:
        raise SpanTooLarge("spans of dimension above 3 are not gridded")

    vals1, vecs1 = form_eigensystem(d1, inner1)
    vals2, vecs2 = form_eigensystem(d2, inner2)
    s_basis = vecs1[:, k - 1:l]
    low1 = vecs1[:, :l + 1]
    low2 = vecs2[:, :l + 1]

    # E1 over span{u_1..u_(l+1)} union q1(S); E2 over span{f_1..f_(l+1)}
    def sup_over(basis, form_num, inner_num, mapping, form_den, inner_den):
        num_a, den_a = _ratio_pair(form_num, inner_num, mapping @ basis)
        num_b, den_b = _ratio_pair(form_den, inner_den, basis)
        return _grid_supremum(
            _rayleigh_gap_objective(num_a, den_a, num_b, den_b),
            basis.shape[1], grid_density)

    e1_a, mod1_a = sup_over(low2, d1, inner1, q2, d2, inner2)
    e1_b, mod1_b = sup_over(q1 @ s_basis, d1, inner1, q2, d2, inner2)
    e1 = max(e1_a, e1_b)
    mod1 = max(mod1_a, mod1_b)
    e2, mod2 = sup_over(low1, d2, inner2, q1, d1, inner1)

    # E3: relative roundtrip defect; E4: relative norm distortion, both over S
    resid_map = np.eye(n1) - q2 @ q1
    a3, b3 = _ratio_pair(resid_map.T @ inner1 @ resid_map, inner1, s_basis)
    e3 = math.sqrt(max(float(sla.eigh(a3, b3, eigvals_only=True)[-1]), 0.0))
    a4, b4 = _ratio_pair(q1.T @ inner2 @ q1, inner1, s_basis)
    ratios = np.maximum(sla.eigh(a4, b4, eigvals_only=True), 0.0)
    e4 = float(np.max(np.abs(np.sqrt(ratios) - 1.0)))

    gamma = 0.5 * min(vals1[k - 1] - vals1[k - 2], vals1[l] - vals1[l - 1])
    spread = vals1[l - 1] - vals1[k - 1]
    if gamma <= max(e1, e2):
        raise GapViolation(
            f"half-gap {gamma:.3g} does not exceed the Rayleigh errors "
            f"E1={e1:.3g}, E2={e2:.3g}")
    lam_l = vals1[l - 1]
    coeff = (lam_l / gamma + 2.0) * l + 1.0
    f_bound = (coeff * (max(e1, 0.0) + max(e2, 0.0)) + 4.0 * lam_l * e3 + spread) / gamma
    f_slack = coeff * (mod1 + mod2) / gamma
    if f_bound >= 1.0:
        raise FExceedsOne(f"combined bound F={f_bound:.3g} is not below one")

    # conclusion (i): block-projection residual of q1(S) against the target block
    target = vecs2[:, k - 1:l]
    proj = inner2 @ target  # coefficients of the inner2-orthonormal block

    def residual(vectors: np.ndarray) -> np.ndarray:
        total = np.einsum("ic,ij,jc->c", vectors, inner2, vectors)
        coef = proj.T @ vectors
        kept = np.einsum("bc,bc->c", coef, coef)
        return np.clip(1.0 - kept / np.maximum(total, 1e-300), 0.0, 1.0)

    per_basis = residual(q1 @ s_basis)
    grid = _sphere_grid(s_basis.shape[1], max(64, grid_density // 4))
    grid_resid = residual(q1 @ (s_basis @ grid.T))
    max_grid = float(np.max(grid_resid))

    mapped = q1 @ s_basis
    gram = mapped.T @ inner2 @ mapped
    tchol = np.linalg.cholesky(gram + 1e-300 * np.eye(gram.shape[0]))
    mapped_on = mapped @ np.linalg.inv(tchol).T
    cross = mapped_on.T @ inner2 @ target
    svals = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)

    return AlignmentReport(
        principal_angles=np.sort(np.arccos(svals)),
        residuals=per_basis,
        e1=e1, e2=e2, e3=e3, e4=e4,
        f_bound=f_bound, f_slack=f_slack,
        gap=gamma, spread=spread,
        max_grid_residual=max_grid,
        conclusion_ok=bool(max_grid <= f_bound + f_slack + 1e-9),
    )
