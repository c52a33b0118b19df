import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.spatial import cKDTree

from lapeig import graph as G
from lapeig import kernels as K
from lapeig import manifolds as M
from lapeig.errors import DimensionMismatch, EmptyCloud, GraphTooLarge, NonFiniteCloud
from lapeig.spectral import graph_spectrum

IND = K.indicator_kernel()


def clique3():
    return G.build_graph(M.ambient_cloud([[0, 0], [0.1, 0], [0, 0.1]]), IND, 0.5)


def path3():
    return G.build_graph(M.ambient_cloud([[0.0], [0.5], [1.0]]), IND, 0.6)


def test_clique_matrices():
    g = clique3()
    assert np.array_equal(g.kernel_matrix.toarray(), np.ones((3, 3)))
    assert np.array_equal(g.degrees, [3, 3, 3])
    lap = g.laplacian().toarray()
    assert np.array_equal(lap, 3 * np.eye(3) - np.ones((3, 3)))


def test_path_matrices():
    g = path3()
    want = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
    assert np.array_equal(g.kernel_matrix.toarray(), want)
    assert np.array_equal(g.degrees, [2, 3, 2])


def test_laplacian_row_sums_exact_zero():
    cloud = M.sample_iid(M.UnitCircle(), 300, 1)
    g = G.build_graph(cloud, K.truncated_gaussian_kernel(), 0.3)
    sums = np.asarray(g.laplacian().sum(axis=1)).ravel()
    assert np.max(np.abs(sums)) < 1e-12


def test_degrees_dominate_positive_diagonal():
    cloud = M.sample_iid(M.UnitCircle(), 300, 1)
    for kernel in (IND, K.triangular_kernel(1.0), K.truncated_gaussian_kernel()):
        g = G.build_graph(cloud, kernel, 0.3)
        diag = g.kernel_matrix.diagonal()
        assert np.all(diag == kernel.eta(0.0))
        assert np.all(diag > 0.0)
        assert np.all(g.degrees >= diag)


@pytest.mark.parametrize("name", ["circle", "sphere", "torus", "singular"])
def test_sparse_equals_dense_bruteforce(name):
    model = M.make_manifold(name)
    cloud = M.sample_iid(model, 700, 3)
    eps = G.epsilon_schedule(700, model.m)
    g = G.build_graph(cloud, IND, eps)
    pts = cloud.ambient
    dm = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    dense = np.where(dm <= eps, 1.0, 0.0)
    assert np.array_equal(g.kernel_matrix.toarray(), dense)


def test_pair_at_exactly_eps_is_kept():
    # the tree's own distance for this pair rounds above the chord, so a
    # pair search at radius eps alone would miss the edge
    pts = np.random.default_rng(4).random((2, 3))
    eps = float(np.linalg.norm(pts[[0]] - pts[[1]], axis=-1)[0])
    g = G.build_graph(M.ambient_cloud(pts), IND, eps)
    assert np.array_equal(g.kernel_matrix.toarray(), np.ones((2, 2)))


def coo_reference(cloud, kernel, eps, metric="ambient"):
    """K and D by one COO of both triangles and the diagonal, all pairs at once."""
    pts, n, reach = cloud.ambient, cloud.n, kernel.support * eps
    pairs = cKDTree(pts).query_pairs(reach * (1.0 + 1e-12), output_type="ndarray")
    ii, jj = pairs[:, 0], pairs[:, 1]
    chord = np.linalg.norm(pts[ii] - pts[jj], axis=-1)
    keep = chord <= reach
    ii, jj, chord = ii[keep], jj[keep], chord[keep]
    if metric == "ambient":
        dist = chord
    else:
        dist = cloud.model.pair_distances(cloud.params[ii], cloud.params[jj])
    vals = np.asarray(kernel.eta(dist / eps), dtype=float)
    pos = vals > 0.0
    ii, jj, vals = ii[pos], jj[pos], vals[pos]
    rows = np.concatenate([ii, jj, np.arange(n)])
    cols = np.concatenate([jj, ii, np.arange(n)])
    data = np.concatenate([vals, vals, np.full(n, float(kernel.eta(0.0)))])
    kmat = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    return kmat, np.asarray(kmat.sum(axis=1)).ravel()


def assert_same_graph(g, kmat, degrees):
    k = g.kernel_matrix
    for got, want in ((k.indptr, kmat.indptr), (k.indices, kmat.indices),
                      (k.data, kmat.data), (g.degrees, degrees)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


KERNELS = [IND, K.triangular_kernel(1.2), K.truncated_gaussian_kernel(),
           K.triangular_kernel(1.0).stretched(1.5)]


@pytest.mark.parametrize("metric", ["ambient", "intrinsic"])
@pytest.mark.parametrize("name", ["circle", "square", "sphere", "torus", "singular"])
def test_blockwise_build_equals_coo_reference(name, metric, monkeypatch):
    # a block of 97 pairs splits every cloud here into many blocks
    monkeypatch.setattr(G, "PAIR_BLOCK", 97)
    model = M.make_manifold(name)
    cloud = M.sample_iid(model, 600, 11)
    eps = G.epsilon_schedule(600, model.m, 1.5)
    for kernel in KERNELS:
        g = G.build_graph(cloud, kernel, eps, metric=metric)
        assert (g.kernel_matrix.nnz - 600) // 2 > 4 * G.PAIR_BLOCK
        assert_same_graph(g, *coo_reference(cloud, kernel, eps, metric))


def degenerate_clouds():
    rng = np.random.default_rng(5)
    ulp = np.spacing(0.5)
    repeated = np.repeat(rng.random((6, 3)), 70, axis=0)
    flat = rng.random((500, 3))
    flat[:, 1] = 0.25
    return {
        # every pair is an edge, at chord 0
        "all equal": (np.full((300, 2), 0.3), 0.1),
        # 6 distinct points, 70 copies each, shuffled
        "repeated": (rng.permutation(repeated), 0.6),
        # points a few ulps apart, eps a whole number of ulps
        "ulp apart": (0.5 + ulp * rng.integers(0, 40, size=(400, 3)), 30 * ulp),
        # zero extent in the middle coordinate
        "flat": (flat, 0.3),
    }


@pytest.mark.parametrize("case", ["all equal", "repeated", "ulp apart", "flat"])
def test_degenerate_clouds_equal_coo_reference(case, monkeypatch):
    # the sliding-midpoint tree meets equal and ulp-apart coordinates here;
    # the reference queries scipy's default median-split tree
    monkeypatch.setattr(G, "PAIR_BLOCK", 97)
    pts, eps = degenerate_clouds()[case]
    cloud = M.ambient_cloud(pts)
    for kernel in (IND, K.triangular_kernel(1.2)):
        g = G.build_graph(cloud, kernel, eps)
        assert (g.kernel_matrix.nnz - cloud.n) // 2 > 4 * G.PAIR_BLOCK
        assert_same_graph(g, *coo_reference(cloud, kernel, eps))


def test_build_and_component_count_memory():
    # square boundary at n = 4096 (about 270 entries per row) and the
    # benchmark's intrinsic singular-surface build at n = 8192 (about 60):
    # both hold more pairs than one block.  Assembling through a two-sided
    # int64 COO peaks at about 5x the CSR's bytes.  Measured (seed 3): square
    # 2.01x, singular 2.04x.  Keeping the unsorted upper triangle alive
    # through the sum measured 2.52x and 2.57x; one COO of both triangles and
    # one transpose, 3.33x and 3.33x.  The component count needs no copy of K
    for name, n, scale_c, metric in (("square", 4096, 1.0, "ambient"),
                                     ("singular", 8192, 2.0, "intrinsic")):
        model = M.make_manifold(name)
        cloud = M.sample_iid(model, n, 3)
        eps = G.epsilon_schedule(n, model.m, scale_c)
        tracemalloc.start()
        try:
            g = G.build_graph(cloud, IND, eps, metric=metric)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            report = G.connectivity_report(g)
            count_extra = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        k = g.kernel_matrix
        assert (k.nnz - n) // 2 > G.PAIR_BLOCK
        assert build_peak <= 2.2 * (k.data.nbytes + k.indices.nbytes + k.indptr.nbytes)
        assert count_extra < 1e6
        assert report.components == 1
        assert_same_graph(g, *coo_reference(cloud, IND, eps, metric))


def test_edges_follow_the_coordinate_chord_in_nine_dimensions():
    # np.linalg.norm sums a last axis of 8 or more coordinates pairwise, so
    # there it can differ in the last ulp from the chord summed coordinate by
    # coordinate, which decides the edges; below 8 the two are equal
    pts = np.random.default_rng(8).random((300, 9))
    diff = pts[:, None, :] - pts[None, :, :]
    sq = diff[..., 0] ** 2
    for c in range(1, 9):
        sq += diff[..., c] ** 2
    chord = np.sqrt(sq)
    # eps at a pair whose norm rounds above its chord: an edge by the chord only
    above = np.triu(np.linalg.norm(diff, axis=-1) > chord, 1)
    eps = chord[above][np.argmin(np.abs(chord[above] - 0.7))]
    g = G.build_graph(M.ambient_cloud(pts), IND, eps)
    assert np.count_nonzero(chord <= eps) > 2 * 300
    assert np.count_nonzero(above & (chord == eps)) >= 1
    assert np.array_equal(g.kernel_matrix.toarray(), np.where(chord <= eps, 1.0, 0.0))


def test_sparse_equals_dense_small_cloud():
    cloud = M.sample_iid(M.UnitCircle(), 10, 4)
    eps = 0.9
    g = G.build_graph(cloud, IND, eps)
    pts = cloud.ambient
    dm = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    assert np.array_equal(g.kernel_matrix.toarray(), np.where(dm <= eps, 1.0, 0.0))


def test_quadratic_form_examples():
    assert G.quadratic_form(clique3(), np.ones(3)) == 0.0
    assert G.quadratic_form(path3(), np.array([1.0, 0.0, -1.0])) == pytest.approx(2.0)


def test_quadratic_form_matches_matrix():
    cloud = M.sample_iid(M.UnitCircle(), 200, 9)
    g = G.build_graph(cloud, K.triangular_kernel(0.8), 0.4)
    lap = g.laplacian()
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.standard_normal(200)
        direct = float(u @ (lap @ u))
        qf = G.quadratic_form(g, u)
        assert qf == pytest.approx(direct, rel=1e-9, abs=1e-12)
        assert qf >= 0.0


def test_quadratic_form_shift_invariance():
    g = path3()
    u = np.array([0.3, -1.2, 2.0])
    assert G.quadratic_form(g, u) == pytest.approx(G.quadratic_form(g, u + 5.0),
                                                   rel=1e-12)


def test_quadratic_form_psd_random():
    cloud = M.sample_iid(M.UnitSphere(), 150, 2)
    g = G.build_graph(cloud, IND, 0.7)
    rng = np.random.default_rng(1)
    for _ in range(100):
        assert G.quadratic_form(g, rng.standard_normal(150)) >= 0.0


def test_constant_vector_in_kernel():
    cloud = M.sample_iid(M.UnitCircle(), 400, 5)
    g = G.build_graph(cloud, IND, G.epsilon_schedule(400, 1))
    lap = g.laplacian()
    assert np.max(np.abs(lap @ np.ones(400))) < 1e-12


def test_epsilon_schedule_values():
    assert G.epsilon_schedule(math.e, 1) == pytest.approx(math.e ** (-1.0 / 3.0),
                                                          abs=1e-12)
    assert G.epsilon_schedule(1000, 1) == pytest.approx(
        (math.log(1000) / 1000) ** (1.0 / 3.0), abs=1e-12)
    assert G.epsilon_schedule(500, 2, 2.0) == pytest.approx(
        2.0 * G.epsilon_schedule(500, 2), rel=1e-14)


def test_eps_from_rule_forms():
    assert G.eps_from_rule("auto", 500, 2) == G.epsilon_schedule(500, 2)
    assert G.eps_from_rule("auto:2", 500, 2) == G.epsilon_schedule(500, 2, 2.0)
    assert G.eps_from_rule("fixed:0.3", 500, 2) == 0.3
    assert G.eps_from_rule("0.3", 500, 2) == 0.3
    for bad in ("autox", "auto:", "fixed", "fixed:x", "1:2", "-1", "0", "nan", "inf"):
        with pytest.raises(ValueError):
            G.eps_from_rule(bad, 500, 2)


def test_connectivity_report():
    assert G.connectivity_report(clique3()).components == 1
    cloud = M.ambient_cloud([[0, 0], [0.1, 0], [5, 5], [5.1, 5]])
    rep = G.connectivity_report(G.build_graph(cloud, IND, 0.5))
    assert rep.components == 2
    # a chain 0 - 1 - ... - 9 in shuffled order: one component, and each
    # point alone at a shorter eps
    order = np.random.default_rng(2).permutation(10)
    chain = M.ambient_cloud(np.arange(10.0)[order, None])
    assert G.connectivity_report(G.build_graph(chain, IND, 1.0)).components == 1
    assert G.connectivity_report(G.build_graph(chain, IND, 0.9)).components == 10


@pytest.mark.parametrize("name", ["circle", "sphere"])
@pytest.mark.parametrize("kernel", [IND, K.triangular_kernel(1.0), K.truncated_gaussian_kernel()],
                         ids=["indicator", "triangular:1", "gauss"])
def test_stretched_kernel_at_scaled_eps_gives_the_same_graph(name, kernel):
    # eta(f t) at scale f eps weights every pair as eta does at eps: the graph
    # reaches to support * eps, so the edge set is the same, and the rescaled
    # eigenvalues agree once sigma_eta is the stretched profile's
    model = M.make_manifold(name)
    cloud = M.sample_iid(model, 500, 3)
    eps = G.epsilon_schedule(500, model.m, 1.5)
    g = G.build_graph(cloud, kernel, eps)
    for factor in (0.5, 0.75, 1.5):
        stretched = kernel.stretched(factor)
        gs = G.build_graph(cloud, stretched, factor * eps)
        assert np.array_equal(gs.kernel_matrix.indptr, g.kernel_matrix.indptr)
        assert np.array_equal(gs.kernel_matrix.indices, g.kernel_matrix.indices)
        for mode in ("unnormalized", "normalized"):
            want = graph_spectrum(g, 3, mode, kernel, model.m)[1][1:]
            got = graph_spectrum(gs, 3, mode, stretched, model.m)[1][1:]
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12, (factor, mode)


def test_graph_out_of_memory_is_typed(monkeypatch):
    # the k-d tree's std::bad_alloc reaches Python as a MemoryError
    class Tree:
        def __init__(self, *args, **kwargs):
            pass

        def query_pairs(self, *args, **kwargs):
            raise MemoryError("std::bad_alloc")

    monkeypatch.setattr(G, "cKDTree", Tree)
    with pytest.raises(GraphTooLarge, match="does not fit in memory"):
        G.build_graph(M.sample_iid(M.UnitCircle(), 50, 1), IND, 0.3)


def test_connectivity_at_schedule_scale():
    connected = 0
    for seed in range(20):
        cloud = M.sample_iid(M.UnitCircle(), 2000, seed)
        g = G.build_graph(cloud, IND, G.epsilon_schedule(2000, 1))
        if G.connectivity_report(g).components == 1:
            connected += 1
    assert connected >= 19


def test_intrinsic_kernel_dominated_by_ambient():
    cloud = M.sample_iid(M.UnitCircle(), 600, 8)
    eps = G.epsilon_schedule(600, 1)
    tri = K.triangular_kernel(1.0)
    ga = G.build_graph(cloud, tri, eps, metric="ambient")
    gi = G.build_graph(cloud, tri, eps, metric="intrinsic")
    assert np.all(gi.kernel_matrix.toarray() <= ga.kernel_matrix.toarray() + 1e-15)


def test_triplets_sorted():
    g = path3()
    trips = g.triplets()
    keys = [(int(i), int(j)) for i, j, _ in trips]
    assert keys == sorted(keys)


def test_triplets_equal_lexsorted_entries():
    model = M.make_manifold("square")
    g = G.build_graph(M.sample_iid(model, 1024, 2), K.triangular_kernel(1.2),
                      G.epsilon_schedule(1024, model.m))
    coo = g.kernel_matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    want = np.stack([coo.row[order], coo.col[order], coo.data[order]], axis=-1)
    got = g.triplets()
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_errors():
    with pytest.raises(EmptyCloud):
        G.build_graph(M.ambient_cloud(np.zeros((1, 2))), IND, 0.5)
    with pytest.raises(ValueError):
        G.build_graph(M.ambient_cloud(np.zeros((3, 2))), IND, -1.0)
    # nan passed the sign test into an edgeless graph, inf into all n^2 pairs
    circle = M.sample_iid(M.UnitCircle(), 50, 1)
    for eps in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            G.build_graph(circle, IND, eps)
    with pytest.raises(ValueError):
        G.build_graph(M.ambient_cloud(np.zeros((3, 2))),
                      K.custom_kernel(lambda t: 0.0 * t, 0.0), 0.5)
    # a NaN or infinite coordinate: ambient for either metric, a parameter
    # for the intrinsic one, which would leave its node a lone self-loop
    for metric in ("ambient", "intrinsic"):
        for bad in (math.nan, math.inf):
            pts = circle.ambient.copy()
            pts[5, 1] = bad
            with pytest.raises(NonFiniteCloud):
                G.build_graph(replace(circle, ambient=pts), IND, 0.5, metric=metric)
    params = circle.params.copy()
    params[5] = math.nan
    with pytest.raises(NonFiniteCloud):
        G.build_graph(replace(circle, params=params), IND, 0.5, metric="intrinsic")
    # the ambient metric reads no parameter
    G.build_graph(replace(circle, params=params), IND, 0.5)
    with pytest.raises(DimensionMismatch):
        G.quadratic_form(clique3(), np.ones(5))
