import gc
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from lapeig import graph as G
from lapeig import harness as H
from lapeig import kernels as K
from lapeig import manifolds as M
from lapeig import spectral as S
from lapeig.errors import (DegenerateBasis, DisconnectedGraph, FExceedsOne,
                           GapViolation, KTooLarge, SolverFailure, SpanTooLarge)

IND = K.indicator_kernel()


def clique3():
    return G.build_graph(M.ambient_cloud([[0, 0], [0.1, 0], [0, 0.1]]), IND, 0.5)


def path3():
    return G.build_graph(M.ambient_cloud([[0.0], [0.5], [1.0]]), IND, 0.6)


def edge_graph(n, edges):
    """n vertices joined by unit-weight edges, with no self-loops."""
    i, j = np.array(edges).T
    kmat = sparse.coo_matrix((np.ones(2 * len(edges)), (np.r_[i, j], np.r_[j, i])),
                             shape=(n, n)).tocsr()
    return G.NeighborhoodGraph(n=n, eps=1.0, kernel_id=IND.label, metric="ambient",
                               kernel_matrix=kmat, degrees=np.asarray(kmat.sum(axis=1)).ravel())


def normalized(graph, k):
    """The degree-weighted solve, weighted with the indicator's constants for a curve."""
    return S.normalized_spectrum(graph, k, IND, 1)


def rand_spd(n, rng, ridge=1.0):
    a = rng.standard_normal((n, n))
    return a @ a.T / n + ridge * np.eye(n)


def rand_psd(n, rng):
    a = rng.standard_normal((n, n))
    return a @ a.T / n


def test_clique_spectrum():
    spec = S.unnormalized_spectrum(clique3(), 2)
    assert np.allclose(spec.values, [0.0, 3.0, 3.0], atol=1e-12)


def test_path_spectrum():
    spec = S.unnormalized_spectrum(path3(), 2)
    assert np.allclose(spec.values, [0.0, 1.0, 3.0], atol=1e-12)


def test_path_normalized_spectrum():
    g = path3()
    spec = normalized(g, 2)
    assert np.allclose(spec.values, [0.0, 0.5, 7.0 / 6.0], atol=1e-12)
    # dense generalized oracle
    lap = g.laplacian().toarray()
    dmat = np.diag(g.degrees)
    ref = sla.eigh(lap, dmat, eigvals_only=True)
    assert np.allclose(spec.values, ref, atol=1e-12)
    # middle eigenpair identity L v = (1/2) D v with v = (1, 0, -1)
    v = np.array([1.0, 0.0, -1.0])
    assert np.allclose(lap @ v, 0.5 * dmat @ v, atol=1e-12)


def test_clique_normalized():
    spec = normalized(clique3(), 2)
    assert np.allclose(spec.values, [0.0, 1.0, 1.0], atol=1e-12)


def test_sparse_solver_matches_dense():
    cloud = M.sample_iid(M.UnitCircle(), 200, 3)
    g = G.build_graph(cloud, IND, G.epsilon_schedule(200, 1))
    lap = g.laplacian().toarray()
    inv_sqrt = 1.0 / np.sqrt(g.degrees)
    for spec, mat, back in ((S.unnormalized_spectrum(g, 4), lap, np.ones(g.n)),
                            (normalized(g, 4),
                             inv_sqrt[:, None] * lap * inv_sqrt[None, :], inv_sqrt)):
        vals, vecs = sla.eigh(mat, subset_by_index=[0, 4])
        assert np.allclose(spec.values, vals, atol=1e-8)
        rep = S.subspace_alignment(vecs[:, 1:3] * back[:, None], spec.vectors[:, 1:3])
        assert np.max(rep.residuals) < 1e-8


# path3 and clique3 carry self-loops; the other three are bipartite with none,
# so in both modes their largest eigenvalue is 2 max diag(A)
TINY_GRAPHS = {"path3": path3, "clique3": clique3,
               "edge": lambda: edge_graph(2, [(0, 1)]),
               "cycle4": lambda: edge_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
               "k33": lambda: edge_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])}


@pytest.mark.parametrize("name", TINY_GRAPHS)
def test_tiny_graphs_match_dense_eigh(name, monkeypatch):
    # every k <= n - 1 is a Lanczos solve, k = n - 1 included, where the
    # deflated null direction must sit above the whole rest of the spectrum
    g = TINY_GRAPHS[name]()
    lap = g.laplacian().toarray()
    inv_sqrt = 1.0 / np.sqrt(g.degrees)
    for solve, mat in ((S.unnormalized_spectrum, lap),
                       (normalized, inv_sqrt[:, None] * lap * inv_sqrt[None, :])):
        ref = sla.eigh(mat, eigvals_only=True)
        for k in range(g.n):
            np.testing.assert_allclose(solve(g, k).values, ref[:k + 1], rtol=0.0,
                                       atol=1e-12 * max(1.0, ref[-1]))

    # the known null pair alone needs no eigsh call
    def no_lanczos(*args, **kwargs):
        raise AssertionError("eigsh reached")

    monkeypatch.setattr(S, "eigsh", no_lanczos)
    for solve in (S.unnormalized_spectrum, normalized):
        null = solve(g, 0)
        assert null.matvecs == 0
        assert abs(null.values[0]) <= 1e-15


@pytest.mark.parametrize("mode, value", [(S.MODE_UNNORMALIZED, 50.0), (S.MODE_NORMALIZED, 1.0)])
def test_complete_graph_spectrum(mode, value):
    # eps = 3 is past the circle's diameter, so K is all ones: lambda_1..4 = n
    # in plain mode and 1 in normalized mode, both above max diag(A)
    g = G.build_graph(M.sample_iid(M.UnitCircle(), 50, 1), IND, 3.0)
    assert g.kernel_matrix.nnz == 50 * 50
    spec, _ = S.graph_spectrum(g, 4, mode, IND, 1)
    np.testing.assert_allclose(spec.values, [0.0] + 4 * [value], rtol=0.0, atol=1e-12 * value)


@pytest.mark.parametrize("mode", [S.MODE_UNNORMALIZED, S.MODE_NORMALIZED])
def test_lanczos_finds_both_copies_of_double_eigenvalues(mode):
    # an evenly spaced ring is a circulant graph: every nonzero eigenvalue is double
    # (eps = 0.047 lies between the 4th and 5th neighbour chords, 0.0419 and 0.0524)
    t = 2.0 * math.pi * np.arange(600) / 600
    g = G.build_graph(M.ambient_cloud(np.stack([np.cos(t), np.sin(t)], axis=-1)), IND, 0.047)
    spec, _ = S.graph_spectrum(g, 6, mode, IND, 1)
    lap = g.laplacian().toarray()
    if mode == S.MODE_NORMALIZED:
        lap = lap / np.sqrt(np.outer(g.degrees, g.degrees))
    ref = np.linalg.eigvalsh(lap)[:7]
    tol = 1e-12 * 2.0 * lap.diagonal().max()
    pairs = ref[1:].reshape(3, 2)
    assert np.all(np.ptp(pairs, axis=1) <= tol)
    assert np.all(np.diff(pairs[:, 0]) > 1e6 * tol)
    np.testing.assert_allclose(spec.values, ref, rtol=0.0, atol=tol)


@pytest.mark.parametrize("mode", [S.MODE_UNNORMALIZED, S.MODE_NORMALIZED])
def test_lanczos_basis_doubles_on_dense_graphs(mode, monkeypatch):
    # 2 LANCZOS_NCV basis vectors from 4 LANCZOS_NCV stored entries per row,
    # LANCZOS_NCV below that, and never more than n
    cloud = M.sample_iid(M.SquareBoundary(), 1200, 3)
    ncvs = []
    real_eigsh = S.eigsh

    def recording(op, *args, **kwargs):
        ncvs.append(kwargs["ncv"])
        return real_eigsh(op, *args, **kwargs)

    monkeypatch.setattr(S, "eigsh", recording)
    dense, sparse_ = (G.build_graph(cloud, IND, eps) for eps in (0.33, 0.2))
    assert dense.kernel_matrix.nnz >= 4 * S.LANCZOS_NCV * dense.n
    assert sparse_.kernel_matrix.nnz < 4 * S.LANCZOS_NCV * sparse_.n
    small = G.build_graph(M.ambient_cloud(cloud.ambient[:30]), IND, 3.0)
    assert small.n < S.LANCZOS_NCV
    for g in (dense, sparse_, small):
        spec, _ = S.graph_spectrum(g, 4, mode, IND, 1)
        lap = g.laplacian().toarray()
        if mode == S.MODE_NORMALIZED:
            lap = lap / np.sqrt(np.outer(g.degrees, g.degrees))
        ref = sla.eigh(lap, eigvals_only=True)
        np.testing.assert_allclose(spec.values, ref[:5], rtol=0.0, atol=1e-12 * ref[-1])
    assert ncvs == [2 * S.LANCZOS_NCV, S.LANCZOS_NCV, small.n]


def test_normalized_equals_symmetric_similarity():
    cloud = M.sample_iid(M.UnitCircle(), 150, 5)
    g = G.build_graph(cloud, IND, 0.5)
    spec = normalized(g, 3)
    inv_sqrt = np.diag(1.0 / np.sqrt(g.degrees))
    sym = inv_sqrt @ g.laplacian().toarray() @ inv_sqrt
    ref = np.sort(sla.eigh(sym, eigvals_only=True))[:4]
    assert np.allclose(spec.values, ref, atol=1e-10)


@pytest.mark.parametrize("name", ["circle", "sphere", "square"])
def test_operator_matvec_equals_laplacian_products(name, monkeypatch):
    # the operator both modes hand to Lanczos, built on K alone, gives
    # (A + sigma u u^T) x to rounding for A = L and D^(-1/2) L D^(-1/2), with
    # u the unit null vector and sigma = 4 max diag(A), with K's rows whole and split
    model = M.make_manifold(name)
    kernel = K.triangular_kernel(1.2)
    g = G.build_graph(M.sample_iid(model, 1024, 4), kernel, G.epsilon_schedule(1024, model.m))
    inv_sqrt = sparse.diags(1.0 / np.sqrt(g.degrees))
    laps = (g.laplacian(), (inv_sqrt @ g.laplacian() @ inv_sqrt).tocsr())
    nulls = (np.ones(g.n), np.sqrt(g.degrees))
    x = np.random.default_rng(2).standard_normal(g.n)
    products = []
    real_eigsh = S.eigsh

    def recording(op, *args, **kwargs):
        products.append(op @ x)
        return real_eigsh(op, *args, **kwargs)

    monkeypatch.setattr(S, "eigsh", recording)
    monkeypatch.setattr(S, "MATVEC_BLOCK_NNZ", 1000)
    seen = _record_blocks(monkeypatch)
    for cores in (1, 3):
        monkeypatch.setattr(S, "_CORES", cores)
        S.unnormalized_spectrum(g, 3)
        S.normalized_spectrum(g, 3, kernel, model.m)
    assert {blocks for _, blocks in seen} == {1, 3}
    whole, split = products[:2], products[2:]
    for got, got_split, lap, null in zip(whole, split, laps, nulls):
        assert np.array_equal(got, got_split)
        u = null / np.linalg.norm(null)
        sigma = 4.0 * lap.diagonal().max()
        # each entry within rounding of its row's absolute sum
        bound = 1e-13 * (abs(lap) @ np.abs(x) + sigma * np.abs(u) * (np.abs(u) @ np.abs(x)))
        assert np.all(np.abs(got - (lap @ x + sigma * u * (u @ x))) <= bound)


@pytest.mark.parametrize("mode", [S.MODE_UNNORMALIZED, S.MODE_NORMALIZED])
def test_solve_holds_no_copy_of_k(mode):
    # the solve allocates ARPACK's workspace and n-length vectors, nothing the
    # size of K: no copy of L, and no per-entry scale factors
    g = G.build_graph(M.sample_iid(M.SquareBoundary(), 4096, 3), IND,
                      G.epsilon_schedule(4096, 1))
    kmat = g.kernel_matrix
    k_bytes = kmat.data.nbytes + kmat.indices.nbytes + kmat.indptr.nbytes
    tracemalloc.start()
    try:
        S.graph_spectrum(g, 4, mode, IND, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * k_bytes


def test_exactly_one_near_zero_eigenvalue():
    cloud = M.sample_iid(M.UnitCircle(), 400, 7)
    g = G.build_graph(cloud, IND, G.epsilon_schedule(400, 1))
    assert G.connectivity_report(g).components == 1
    spec = S.unnormalized_spectrum(g, 4)
    below = np.sum(spec.values < 1e-8 * spec.values[1])
    assert below == 1


def test_mean_dot_orthonormality():
    cloud = M.sample_iid(M.UnitCircle(), 300, 11)
    g = G.build_graph(cloud, IND, G.epsilon_schedule(300, 1))
    spec = S.unnormalized_spectrum(g, 3)
    gram = spec.vectors.T @ spec.vectors / g.n
    assert np.allclose(gram, np.eye(4), atol=1e-8)
    assert np.all(np.diff(spec.values) >= -1e-12)
    nspec = S.normalized_spectrum(g, 3, kernel=IND, m=1)
    wgram = nspec.vectors.T @ (nspec.vectors * nspec.weights[:, None]) / g.n
    assert np.allclose(wgram, np.eye(4), atol=1e-8)
    assert np.all(np.diff(nspec.values) >= -1e-12)


def test_similarity_invariance_under_kernel_scaling():
    cloud = M.sample_iid(M.UnitCircle(), 250, 2)
    g = G.build_graph(cloud, IND, 0.4)
    base = normalized(g, 3).values
    for c in (0.5, 2.0):
        scaled = G.NeighborhoodGraph(
            n=g.n, eps=g.eps, kernel_id=g.kernel_id, metric=g.metric,
            kernel_matrix=(g.kernel_matrix * c).tocsr(), degrees=g.degrees * c)
        vals = normalized(scaled, 3).values
        assert np.allclose(vals, base, atol=1e-9)


def test_rescale_unnormalized():
    assert S.rescale_unnormalized(3.0, 3, 1.0, 2.0 / 3.0, 1) == pytest.approx(3.0)
    assert S.rescale_unnormalized(0.0, 10, 0.2, 1.0, 2) == 0.0
    ratio = (S.rescale_unnormalized(1.0, 8, 0.5, 1.0, 1)
             / S.rescale_unnormalized(1.0, 8, 1.0, 1.0, 1))
    assert ratio == pytest.approx(8.0)


def test_rescale_normalized():
    assert S.rescale_normalized(1.0, 1.0, 2.0 / 3.0, 2.0) == pytest.approx(6.0)
    assert S.rescale_normalized(0.0, 0.3, 1.0, 1.0) == 0.0


def test_minimax_consistency():
    cloud = M.sample_iid(M.UnitCircle(), 120, 13)
    g = G.build_graph(cloud, IND, 0.5)
    lap = g.laplacian().toarray()
    spec = S.unnormalized_spectrum(g, 3)
    rng = np.random.default_rng(42)
    for j in range(1, 4):
        for _ in range(50):
            basis = rng.standard_normal((120, j + 1))
            pencil_max = sla.eigh(basis.T @ lap @ basis, basis.T @ basis,
                                  eigvals_only=True)[-1]
            assert spec.values[j] <= pencil_max + 1e-9


def test_k_too_large():
    with pytest.raises(KTooLarge):
        S.unnormalized_spectrum(clique3(), 3)
    with pytest.raises(KTooLarge):
        normalized(clique3(), 3)


def test_subspace_alignment_identical_and_orthogonal():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((60, 2))
    rep = S.subspace_alignment(a, a @ rng.standard_normal((2, 2)))
    assert np.allclose(rep.principal_angles, 0.0, atol=1e-7)
    assert np.allclose(rep.residuals, 0.0, atol=1e-12)
    t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    rep2 = S.subspace_alignment(np.sin(t)[:, None], np.cos(t)[:, None])
    assert rep2.principal_angles[0] == pytest.approx(math.pi / 2.0, abs=1e-10)
    assert rep2.residuals[0] == pytest.approx(1.0, abs=1e-10)


def test_subspace_alignment_degenerate():
    a = np.ones((30, 2))
    with pytest.raises(DegenerateBasis):
        S.subspace_alignment(a, np.random.default_rng(0).standard_normal((30, 2)))


# -- quadratic-form comparison machinery ------------------------------------

def test_clamped_form_property():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(3, 9))
        inner = rand_spd(n, rng)
        form = rand_psd(n, rng)
        vals, _ = S.form_eigensystem(form, inner)
        lam = float(rng.uniform(0.1, 3.0))
        cutoff = lam + float(rng.uniform(0.0, 2.0))
        clamped = S.clamped_form(form, inner, lam, cutoff)
        # never exceeds the original form
        diff_vals = sla.eigh(form - clamped, inner, eigvals_only=True)
        assert diff_vals.min() > -1e-9
        # restricted eigenvalue floor
        ldim = int(rng.integers(1, n + 1))
        basis = rng.standard_normal((n, ldim))
        sub = sla.eigh(basis.T @ clamped @ basis, basis.T @ inner @ basis,
                       eigvals_only=True)
        for j in range(ldim):
            assert sub[j] >= min(lam, vals[j]) - 1e-8


def test_eigenvalue_comparison_isometry_tight():
    rng = np.random.default_rng(3)
    n = 5
    inner = np.eye(n)
    form = np.diag([0.0, 1.0, 2.0, 3.0, 4.0])
    chk = S.eigenvalue_comparison_check(form, inner, form, inner, np.eye(n), 2)
    assert chk.e_sup == pytest.approx(0.0, abs=1e-12)
    assert chk.passed


def test_eigenvalue_comparison_uniform_shift():
    n = 5
    inner = np.eye(n)
    form = np.diag([0.0, 1.0, 2.0, 3.0, 4.0])
    shift = 0.7
    chk = S.eigenvalue_comparison_check(form, inner, form + shift * inner, inner,
                                        np.eye(n), 2)
    assert chk.e_sup == pytest.approx(shift, abs=1e-9)
    assert chk.passed
    assert np.min(chk.margins) == pytest.approx(chk.slack, abs=1e-9)


def test_eigenvalue_comparison_random_pairs(monkeypatch):
    monkeypatch.setattr(S, "GRID_DENSITY", 128)
    rng = np.random.default_rng(17)
    for _ in range(30):
        chk = S.eigenvalue_comparison_check(
            rand_psd(6, rng), rand_spd(6, rng), rand_psd(6, rng), rand_spd(6, rng),
            rng.standard_normal((6, 6)), 2)
        assert chk.passed


def test_eigenvector_comparison_isometry(monkeypatch):
    monkeypatch.setattr(S, "GRID_DENSITY", 128)
    form = np.diag([0.5, 1.0, 2.0, 4.0, 6.0, 9.0])
    eye = np.eye(6)
    rep = S.eigenvector_comparison(form, eye, form, eye, eye, eye)
    assert rep.e1 == rep.e2 == rep.e3 == rep.e4 == 0.0
    assert rep.f_bound == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(rep.residuals, 0.0, atol=1e-12)
    assert rep.conclusion_ok


def test_eigenvector_comparison_perturbed(monkeypatch):
    monkeypatch.setattr(S, "GRID_DENSITY", 128)
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(4, 9))
        base = np.diag(np.array([0.5, 1.5, 3.0, 5.0, 7.5, 10.0, 13.0, 16.0][:n]))
        q = sla.qr(rng.standard_normal((n, n)))[0]
        d1 = q @ base @ q.T
        d2 = d1 + 0.01 * rand_psd(n, rng)
        inner2 = np.eye(n) + 0.005 * rand_psd(n, rng)
        q1 = np.eye(n) + 0.005 * rng.standard_normal((n, n))
        try:
            rep = S.eigenvector_comparison(d1, np.eye(n), d2, inner2, q1,
                                           np.linalg.inv(q1))
        except (GapViolation, FExceedsOne):
            continue
        checked += 1
        assert rep.conclusion_ok
        assert rep.residuals[0] <= rep.f_bound + rep.f_slack + 1e-9
    assert checked >= 20


def test_eigenvector_comparison_guards(monkeypatch):
    monkeypatch.setattr(S, "GRID_DENSITY", 64)
    form = np.diag([0.5, 1.0, 2.0, 4.0, 6.0, 9.0])
    eye = np.eye(6)
    rng = np.random.default_rng(4)
    # large perturbation makes the combined bound vacuous (or breaks the gap)
    rough = form + rand_psd(6, rng) * 5.0
    with pytest.raises((FExceedsOne, GapViolation)):
        S.eigenvector_comparison(form, eye, rough, eye, np.eye(6), np.eye(6))


def test_span_too_large():
    form = np.diag([0.5, 1.0, 2.0, 4.0, 6.0, 9.0])
    eye = np.eye(6)
    with pytest.raises(SpanTooLarge):
        S.eigenvalue_comparison_check(form, eye, form, eye, eye, k=4)


def test_grid_supremum_matches_exact_pencil():
    # the roundtrip-defect supremum over a 2-D span has an exact pencil
    # formulation; the sphere-grid estimate must land on it
    rng = np.random.default_rng(31)
    n = 6
    inner = np.eye(n)
    q1 = np.eye(n) + 0.05 * rng.standard_normal((n, n))
    q2 = np.linalg.inv(q1) + 0.02 * rng.standard_normal((n, n))
    basis = sla.qr(rng.standard_normal((n, 2)), mode="economic")[0]
    resid = (np.eye(n) - q2 @ q1) @ basis
    a3 = resid.T @ inner @ resid
    b3 = basis.T @ inner @ basis

    def obj(coefs):
        num = np.einsum("nd,de,ne->n", coefs, a3, coefs)
        den = np.einsum("nd,de,ne->n", coefs, b3, coefs)
        return np.sqrt(np.maximum(num / den, 0.0))

    grid_sup, _ = S._grid_supremum(obj, 2, 512)
    pencil = sla.eigh(a3, b3, eigvals_only=True)
    assert grid_sup == pytest.approx(math.sqrt(max(pencil)), rel=1e-4)


def test_graph_spectrum_modes():
    cloud = M.sample_iid(M.UnitCircle(), 300, 5)
    g = G.build_graph(cloud, IND, G.epsilon_schedule(300, 1))
    sig = K.sigma_eta(IND, 1)
    spec, resc = S.graph_spectrum(g, 3, S.MODE_UNNORMALIZED, IND, 1)
    assert np.array_equal(spec.values, S.unnormalized_spectrum(g, 3).values)
    assert np.array_equal(resc, S.rescale_unnormalized(spec.values, 300, g.eps, sig, 1))
    spec, resc = S.graph_spectrum(g, 3, S.MODE_NORMALIZED, IND, 1)
    assert np.array_equal(spec.values, S.normalized_spectrum(g, 3, IND, 1).values)
    assert np.array_equal(resc, S.rescale_normalized(spec.values, g.eps, sig,
                                                     K.sigma_tilde_eta(IND, 1)))
    with pytest.raises(ValueError):
        S.graph_spectrum(g, 3, "plain", IND, 1)


@pytest.mark.parametrize("mode", [S.MODE_UNNORMALIZED, S.MODE_NORMALIZED])
def test_graph_spectrum_refuses_disconnected_graph(mode):
    pts = M.sample_iid(M.UnitCircle(), 300, 5).ambient
    eps = G.epsilon_schedule(300, 1)
    two = G.build_graph(M.ambient_cloud(np.concatenate([pts, pts + 10.0])), IND, eps)
    # more components than eigenvalues asked for: every value found is rounding
    # noise, so none is small next to the largest of them
    many = G.build_graph(M.ambient_cloud(pts), IND, 0.005)
    # no edge at all: L is the zero matrix
    isolated = G.build_graph(M.ambient_cloud(pts), IND, 1e-6)
    # two clusters of 600 samples each
    big = M.sample_iid(M.UnitCircle(), 600, 5).ambient
    large = G.build_graph(M.ambient_cloud(np.concatenate([big, big + 10.0])), IND,
                          G.epsilon_schedule(600, 1))
    for g in (two, many, isolated, large):
        with pytest.raises(DisconnectedGraph):
            S.graph_spectrum(g, 3, mode, IND, 1)


def test_memory_error_becomes_solver_failure(monkeypatch):
    # an allocation failure inside the eigensolver surfaces as a bare MemoryError
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(S, "eigsh", out_of_memory)
    with pytest.raises(SolverFailure):
        S.unnormalized_spectrum(_sparse_path_graph(), 4)


def _sparse_path_graph():
    cloud = M.sample_iid(M.UnitCircle(), 300, 3)
    return G.build_graph(cloud, IND, G.epsilon_schedule(cloud.n, 1))


def test_arpack_failure_becomes_solver_failure(monkeypatch):
    g = _sparse_path_graph()
    for exc in (ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((g.n, 0))),
                RuntimeError("ARPACK error -9999")):
        def failing_eigsh(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr(S, "eigsh", failing_eigsh)
        with pytest.raises(SolverFailure):
            S.unnormalized_spectrum(g, 4)


def test_lanczos_restart_limit_becomes_solver_failure(monkeypatch):
    # the real ARPACK run, cut off after one restart
    cloud = M.sample_iid(M.UnitCircle(), 1200, 3)
    g = G.build_graph(cloud, IND, G.epsilon_schedule(cloud.n, 1))
    monkeypatch.setattr(S, "LANCZOS_MAXITER", 1)
    for solve in (S.unnormalized_spectrum, normalized):
        with pytest.raises(SolverFailure, match="No convergence"):
            solve(g, 4)


def test_large_residual_becomes_solver_failure(monkeypatch):
    g = _sparse_path_graph()
    spec = S.unnormalized_spectrum(g, 4)
    assert 0.0 <= spec.residual <= S.RESIDUAL_TOL

    real_eigsh = S.eigsh

    def perturbed_eigsh(mat, *args, **kwargs):
        vals, vecs = real_eigsh(mat, *args, **kwargs)
        return vals + 1e-6 * 2.0 * g.degrees.max(), vecs

    monkeypatch.setattr(S, "eigsh", perturbed_eigsh)
    with pytest.raises(SolverFailure, match="residual"):
        S.unnormalized_spectrum(g, 4)
    with pytest.raises(SolverFailure, match="residual"):
        normalized(g, 4)


def test_lanczos_matches_direct_shift_invert():
    # against ARPACK in shift-invert mode with its own default factor of mat - sigma I
    n = 2048
    v0 = np.random.default_rng(np.uint64(0xC0FFEE ^ n)).standard_normal(n)
    for model in (M.UnitSphere(), M.SquareBoundary()):
        g = G.build_graph(M.sample_iid(model, n, 5), IND, G.epsilon_schedule(n, model.m))
        inv_sqrt = sparse.diags(1.0 / np.sqrt(g.degrees))
        sym = inv_sqrt @ g.laplacian() @ inv_sqrt
        for spec, mat in ((S.unnormalized_spectrum(g, 4), g.laplacian()),
                          (S.normalized_spectrum(g, 4, IND, model.m), sym)):
            sigma = -max(1e-8, 1e-3 * float(np.mean(mat.diagonal())))
            ref = np.sort(eigsh(mat.tocsc(), k=5, sigma=sigma, which="LM", v0=v0)[0])
            assert abs(spec.values[0] - ref[0]) <= 1e-12 * ref[1]
            np.testing.assert_allclose(spec.values[1:], ref[1:], rtol=1e-12, atol=0.0)


# Disconnected graphs where regular-mode Lanczos, started from one vector, finds
# a single zero eigenvalue: (model, n, auto:<c>, seed)
LANCZOS_MISSES_A_ZERO = [("sphere", 2048, 0.5, 2), ("sphere", 4096, 0.45, 1),
                         ("singular", 2048, 1.0, 1), ("singular", 4096, 1.0, 4)]


@pytest.mark.parametrize("name,n,c,seed", LANCZOS_MISSES_A_ZERO)
def test_disconnected_graph_refused_before_any_solve(monkeypatch, name, n, c, seed):
    model = M.make_manifold(name)
    g = G.build_graph(M.sample_iid(model, n, seed), IND, G.epsilon_schedule(n, model.m, c))
    assert G.connectivity_report(g).components > 1

    def no_solve(*args, **kwargs):
        raise AssertionError("eigsh called on a disconnected graph")

    monkeypatch.setattr(S, "eigsh", no_solve)
    for mode in (S.MODE_UNNORMALIZED, S.MODE_NORMALIZED):
        with pytest.raises(DisconnectedGraph, match="components"):
            S.graph_spectrum(g, 4, mode, IND, model.m)


def test_many_components_refused_fast():
    # torus, n=4096, auto:0.5, seed 1: 269 components; an unguarded ARPACK run
    # spent minutes on it before failing
    model = M.CliffordTorus()
    g = G.build_graph(M.sample_iid(model, 4096, 1), IND, G.epsilon_schedule(4096, 2, 0.5))
    assert G.connectivity_report(g).components == 269
    for mode in (S.MODE_UNNORMALIZED, S.MODE_NORMALIZED):
        start = time.perf_counter()
        with pytest.raises(DisconnectedGraph, match="269 components"):
            S.graph_spectrum(g, 4, mode, IND, 2)
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# The Lanczos matvec split over row blocks
# ---------------------------------------------------------------------------

def _rows_with_nnz(counts, cols=40, seed=0):
    """A CSR matrix whose rows hold the given numbers of stored entries."""
    rng = np.random.default_rng(seed)
    indices = np.concatenate([np.sort(rng.choice(cols, c, replace=False)) for c in counts])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return sparse.csr_matrix((rng.standard_normal(indptr[-1]), indices, indptr),
                             shape=(len(counts), cols))


def test_split_matvec_equals_whole_matvec():
    # the cuts at 1/4, 2/4 and 3/4 of the entries give a one-row block and
    # blocks that start with empty rows; the last row is empty too
    skewed = _rows_with_nnz([30, 0, 0, 30, 1, 0, 0, 0, 29, 0, 0, 30, 0])
    lap = _sparse_path_graph().laplacian()
    for mat in (skewed, lap):
        x = np.random.default_rng(1).standard_normal(mat.shape[1])
        for count in range(1, max(S._CORES, 6) + 2):
            blocks = S._row_blocks(mat, count)
            assert 1 <= len(blocks) <= count
            assert sum(b.shape[0] for b in blocks) == mat.shape[0]
            assert all(np.shares_memory(b.data, mat.data)
                       and np.shares_memory(b.indices, mat.indices) for b in blocks if b.nnz)
            assert np.array_equal(S._blocks_matvec(blocks, x), mat @ x)
    shapes = [b.shape[0] for b in S._row_blocks(skewed, 4)]
    assert shapes == [1, 3, 5, 4]


def _record_blocks(monkeypatch):
    """(solves in flight, blocks) for every split matvec from now on."""
    seen = []
    real = S._blocks_matvec

    def recording(blocks, x):
        seen.append((S._solves_in_flight, len(blocks)))
        return real(blocks, x)

    monkeypatch.setattr(S, "_blocks_matvec", recording)
    return seen


def _force_split(monkeypatch, cores=3):
    monkeypatch.setattr(S, "_CORES", cores)
    monkeypatch.setattr(S, "MATVEC_BLOCK_NNZ", 1000)


@pytest.mark.parametrize("solve", [S.unnormalized_spectrum, normalized],
                         ids=["unnormalized_spectrum", "normalized_spectrum"])
def test_split_solve_is_bit_identical(solve, monkeypatch):
    model = M.SquareBoundary()
    g = G.build_graph(M.sample_iid(model, 1024, 3), IND, G.epsilon_schedule(1024, 1))
    whole = solve(g, 4)
    _force_split(monkeypatch)
    seen = _record_blocks(monkeypatch)
    split = solve(g, 4)
    # a lone solve spreads every matvec over all the cores
    assert len(seen) > 10 and set(seen) == {(1, 3)}
    assert np.array_equal(split.values, whole.values)
    assert np.array_equal(split.vectors, whole.vectors)


def test_concurrent_solves_take_one_block_each(monkeypatch):
    # the harness's two threads solve side by side: both solves are held
    # until the other has started and until the other has finished
    _force_split(monkeypatch, cores=2)
    seen = _record_blocks(monkeypatch)
    barrier = threading.Barrier(2, timeout=60)
    real_eigsh = S.eigsh

    def side_by_side(*args, **kwargs):
        barrier.wait()
        try:
            return real_eigsh(*args, **kwargs)
        finally:
            barrier.wait()

    monkeypatch.setattr(S, "eigsh", side_by_side)
    config = H.ExperimentConfig(manifold="circle", n_grid=(600,), trials=2, k_max=4,
                                threads=2)
    report = H.run_convergence(config)
    assert not report.failures
    assert len(seen) > 10 and set(seen) == {(2, 1)}
    assert S._solves_in_flight == 0
    monkeypatch.setattr(S, "eigsh", real_eigsh)
    serial = H.run_convergence(H.ExperimentConfig(manifold="circle", n_grid=(600,), trials=2,
                                                  k_max=4))
    assert [r.raw for r in report.rows] == [r.raw for r in serial.rows]


@pytest.mark.parametrize("exc", [RuntimeError("block failed"), MemoryError()])
def test_block_worker_failure_becomes_solver_failure(exc, monkeypatch):
    _force_split(monkeypatch, cores=2)
    g = _sparse_path_graph()
    whole = S.unnormalized_spectrum(g, 4)
    threads = []

    class FailingBlock:
        def dot(self, x):
            threads.append(threading.current_thread().name)
            raise exc

    real = S._row_blocks
    monkeypatch.setattr(S, "_row_blocks", lambda mat, count: real(mat, count)[:1] + [FailingBlock()])
    with pytest.raises(SolverFailure, match=type(exc).__name__):
        S.unnormalized_spectrum(g, 4)
    assert threads and threads[0].startswith("lapeig-matvec")
    assert S._solves_in_flight == 0
    # the next solve runs on the same pool
    pool = S._pool
    monkeypatch.setattr(S, "_row_blocks", real)
    again = S.unnormalized_spectrum(g, 4)
    assert S._pool is pool
    assert np.array_equal(again.values, whole.values)


def test_import_starts_no_thread():
    probe = ("import threading; import lapeig, lapeig.cli; from lapeig import spectral; "
             "print(threading.active_count(), not spectral._pool._threads)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(S.__file__).parents[1])})
    assert out.stdout.split() == ["1", "True"]


@pytest.mark.parametrize("name, mode, seed", [("circle", S.MODE_UNNORMALIZED, 0),
                                              ("circle", S.MODE_NORMALIZED, 2),
                                              ("square", S.MODE_NORMALIZED, 0),
                                              ("square", S.MODE_UNNORMALIZED, 3)])
def test_loose_arpack_tolerance_keeps_the_null_pair(name, mode, seed, monkeypatch):
    # ARPACK stopped at tol = 1e-8: undeflated, it returned lambda_1..lambda_5
    # as lambda_0..lambda_4 on the last three graphs, with no error raised;
    # deflated, the null pair is never searched for, and every value stays put
    model = M.make_manifold(name)
    g = G.build_graph(M.sample_iid(model, 1024, seed), IND,
                      G.epsilon_schedule(1024, model.m))
    want = S.graph_spectrum(g, 4, mode, IND, model.m)[0].values
    real_eigsh = S.eigsh
    monkeypatch.setattr(S, "eigsh", lambda *args, **kwargs: real_eigsh(
        *args, **{**kwargs, "tol": 1e-8}))
    got = S.graph_spectrum(g, 4, mode, IND, model.m)[0].values
    assert np.all(np.abs(got - want) <= 1e-10 * want[-1])


def test_spectrum_counts_the_operator_products(monkeypatch):
    # matvecs is the number of products ARPACK asked of the operator, 0 for k = 0
    g = _sparse_path_graph()
    calls = []
    real_eigsh = S.eigsh

    def counting(op, *args, **kwargs):
        def matvec(x):
            calls.append(1)
            return op.matvec(x)
        return real_eigsh(S.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype),
                          *args, **kwargs)

    monkeypatch.setattr(S, "eigsh", counting)
    for solve in (S.unnormalized_spectrum, normalized):
        calls.clear()
        spec = solve(g, 4)
        assert spec.matvecs == len(calls) > 0
        calls.clear()
        assert solve(g, 0).matvecs == len(calls) == 0


def test_solve_leaves_no_operator_behind(monkeypatch):
    # the operator is freed by reference count when the solve returns, with no
    # wait for the cycle collector: one that closed over itself kept K's row
    # blocks alive across trials, and converge-small's peak RSS rose 26%
    refs = []
    real_eigsh = S.eigsh

    def recording(op, *args, **kwargs):
        refs.append(weakref.ref(op))
        return real_eigsh(op, *args, **kwargs)

    monkeypatch.setattr(S, "eigsh", recording)
    g = _sparse_path_graph()
    gc.disable()
    try:
        S.unnormalized_spectrum(g, 4)
        normalized(g, 4)
    finally:
        gc.enable()
    assert len(refs) == 2 and all(ref() is None for ref in refs)


def test_deflated_value_at_the_shift_becomes_solver_failure(monkeypatch):
    # a value at sigma = 4 max diag(A) may be the deflated null vector itself
    g = _sparse_path_graph()
    real_eigsh = S.eigsh

    def shifted(*args, **kwargs):
        vals, vecs = real_eigsh(*args, **kwargs)
        return vals + 4.0 * g.laplacian().diagonal().max(), vecs

    monkeypatch.setattr(S, "eigsh", shifted)
    with pytest.raises(SolverFailure, match="reach the shift"):
        S.unnormalized_spectrum(g, 4)
