import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.spatial import cKDTree

from lapeig import graph as G
from lapeig import interp as I
from lapeig import kernels as K
from lapeig import manifolds as M
from lapeig.errors import CoverageGap, UndefinedAtPoint, UnsupportedDimension

IND = K.indicator_kernel()
TWO_PI = 2.0 * math.pi


def circle_context(n=2048, seed=5):
    cloud = M.sample_iid(M.UnitCircle(), n, seed)
    return I.InterpolationContext(cloud=cloud, kernel=IND,
                                  eps=G.epsilon_schedule(n, 1))


def single_point_cloud(theta=0.3):
    circle = M.UnitCircle()
    params = np.array([theta])
    return M.PointCloud(manifold_id="circle", n=1, seed=0, params=params,
                        ambient=circle.embed(params), model=circle)


def test_restrict():
    ctx = circle_context(64, 1)
    ones = I.restrict(lambda t: np.ones_like(t), ctx.cloud)
    assert np.array_equal(ones, np.ones(64))
    sines = I.restrict(np.sin, ctx.cloud)
    assert np.array_equal(sines, np.sin(ctx.cloud.params))
    f = lambda t: np.sin(t) + 0.5 * np.cos(t)
    combined = I.restrict(f, ctx.cloud)
    assert np.allclose(combined, sines + 0.5 * np.cos(ctx.cloud.params), atol=1e-15)


def test_theta_single_point():
    cloud = single_point_cloud()
    ctx = I.InterpolationContext(cloud=cloud, kernel=IND, eps=0.5)
    assert I.theta_eps(ctx, 0.3) == pytest.approx(0.5, abs=1e-15)  # psi(0) / 1
    assert I.theta_eps(ctx, 0.3 + math.pi) == 0.0


def test_lambda_reproduces_constants_exactly():
    ctx = circle_context()
    queries = np.random.default_rng(0).uniform(0.0, TWO_PI, 100)
    out = I.lambda_eps(ctx, np.ones(ctx.cloud.n), queries)
    assert np.all(out == 1.0)


def test_lambda_single_point():
    cloud = single_point_cloud()
    ctx = I.InterpolationContext(cloud=cloud, kernel=IND, eps=0.5)
    assert I.lambda_eps(ctx, np.array([2.5]), 0.31) == pytest.approx(2.5, abs=1e-15)
    with pytest.raises(UndefinedAtPoint):
        I.lambda_eps(ctx, np.array([2.5]), 0.3 + math.pi)


def test_lambda_refuses_non_finite_values():
    # a NaN in u once came back as a NaN value, with no error
    ctx = circle_context(200, 3)
    for bad in (math.nan, math.inf, -math.inf):
        u = np.ones(200)
        u[3] = bad
        with pytest.raises(ValueError, match="finite"):
            I.lambda_eps(ctx, u, np.array([0.1, 3.0]))


def test_lambda_lipschitz_bound():
    ctx = circle_context()
    u = I.restrict(np.sin, ctx.cloud)
    queries = np.random.default_rng(3).uniform(0.0, TWO_PI, 100)
    vals = I.lambda_eps(ctx, u, queries)
    assert np.max(np.abs(vals - np.sin(queries))) <= ctx.eps + 1e-12  # Lip(sin) = 1


def test_lambda_affine_equivariance():
    ctx = circle_context(512, 9)
    u = I.restrict(np.cos, ctx.cloud)
    queries = np.random.default_rng(1).uniform(0.0, TWO_PI, 40)
    lhs = I.lambda_eps(ctx, 1.7 * u - 0.4, queries)
    rhs = 1.7 * I.lambda_eps(ctx, u, queries) - 0.4
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_lambda_convex_range():
    ctx = circle_context(512, 2)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(512)
    circle = ctx.cloud.model
    for q in rng.uniform(0.0, TWO_PI, 20):
        dists = circle.cross_distances(np.array([q]), ctx.cloud.params)[0]
        near = dists <= ctx.eps
        if not near.any():
            continue
        val = I.lambda_eps(ctx, u, q)
        assert u[near].min() - 1e-12 <= val <= u[near].max() + 1e-12


def test_theta_concentration():
    # local mass tracks rho * sigma_eta * eps at schedule scale
    ctx = circle_context(2048, 5)
    sig = K.sigma_eta(IND, 1)
    queries = np.random.default_rng(11).uniform(0.0, TWO_PI, 100)
    theta = I.theta_eps(ctx, queries)
    ideal = sig * ctx.eps / TWO_PI
    assert np.max(np.abs(theta - ideal)) / (sig * ctx.eps) <= 0.2


def test_context_refuses_bad_eps():
    cloud = M.sample_iid(M.UnitCircle(), 50, 1)
    for eps in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps"):
            I.InterpolationContext(cloud=cloud, kernel=IND, eps=eps)


KERNELS = [K.indicator_kernel(), K.triangular_kernel(1.2), K.truncated_gaussian_kernel(),
           K.indicator_kernel().stretched(0.5)]


@pytest.mark.parametrize("name", ["circle", "square", "torus", "sphere", "singular"])
def test_sparse_weights_equal_dense(name, monkeypatch):
    # the neighbour search keeps every nonzero weight of the dense matrix,
    # bit for bit, and stores nothing else; blocks of 1 candidate pair (one
    # query each), a few pairs or the default budget assemble to the same
    # matrix, and give lambda and theta the same bytes
    model = M.make_manifold(name)
    cloud = M.sample_iid(model, 120, 4)
    queries = M.sample_iid(model, 25, 5).params
    u = np.cos(3.0 * np.arange(cloud.n))
    eps = 0.4 if model.m == 1 else 0.9
    dists = model.cross_distances(queries, cloud.params)
    budgets = (1, 40, I.PSI_BLOCK_PAIRS)
    for kernel in KERNELS:
        ctx = I.InterpolationContext(cloud=cloud, kernel=kernel, eps=eps)
        dense = kernel.psi(dists / eps)
        outputs = set()
        for budget in budgets:
            monkeypatch.setattr(I, "PSI_BLOCK_PAIRS", budget)
            blocks = list(I._psi_weights(ctx, queries))
            if budget == 1:
                assert len(blocks) == len(queries)
            w = sparse.vstack(blocks, format="csr")
            assert np.count_nonzero(dense) > 0
            assert w.nnz == np.count_nonzero(dense)
            assert np.array_equal(w.toarray(), dense)
            outputs.add((I.lambda_eps(ctx, u, queries).tobytes(),
                         I.theta_eps(ctx, queries).tobytes()))
        assert len(outputs) == 1


def test_block_smaller_than_one_query(monkeypatch):
    # 300 samples within 1e-3 of one point: a query there has 300 candidates,
    # far over a budget of 30, and is a block of its own; the queries around
    # it, with about 13 candidates each, share blocks
    circle = M.UnitCircle()
    params = np.concatenate([0.3 + np.linspace(0.0, 1e-3, 300),
                             M.sample_iid(circle, 200, 8).params])
    ctx = I.InterpolationContext(cloud=cloud_at(circle, params), kernel=IND, eps=0.2)
    queries = np.array([2.0, 2.01, 0.3, 2.02, 2.03, 2.04])
    u = np.sin(7.0 * params)
    want = I.lambda_eps(ctx, u, queries)
    monkeypatch.setattr(I, "PSI_BLOCK_PAIRS", 30)
    sizes = [w.shape[0] for w in I._psi_weights(ctx, queries)]
    ends = np.cumsum(sizes).tolist()
    assert ends[-1] == len(queries) and 2 in ends and 3 in ends
    assert max(sizes) > 1
    assert I.lambda_eps(ctx, u, queries).tobytes() == want.tobytes()
    dense = IND.psi(circle.cross_distances(queries, params) / ctx.eps)
    assert np.allclose(want, (dense @ u) / dense.sum(axis=1), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("budget", [1, 3, None])
def test_blocks_keep_the_global_query_index(budget, monkeypatch):
    # samples on the upper half circle only: queries 5 and 7 see none, and
    # the error names the first of them in the whole query array, whichever
    # block it falls in
    circle = M.UnitCircle()
    cloud = cloud_at(circle, np.linspace(0.1, 3.0, 200))
    ctx = I.InterpolationContext(cloud=cloud, kernel=IND, eps=0.1)
    queries = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 4.5, 2.6, 5.0, 0.7])
    if budget is not None:
        monkeypatch.setattr(I, "PSI_BLOCK_PAIRS", budget)
    with pytest.raises(UndefinedAtPoint, match="query point index 5;"):
        I.lambda_eps(ctx, np.ones(200), queries)
    theta = I.theta_eps(ctx, queries)
    assert np.flatnonzero(theta == 0.0).tolist() == [5, 7]
    empty = I.lambda_eps(ctx, np.ones(200), np.array([]))
    assert empty.shape == (0,) and empty.dtype == float
    assert I.theta_eps(ctx, np.array([])).shape == (0,)


def test_lambda_memory_is_bounded_by_the_block():
    # 8192 queries with about 270 candidates each: built whole, the pairs
    # and their temporaries peaked at 135 MB traced; in blocks of
    # PSI_BLOCK_PAIRS the peak is about 2 MB, whatever the number of queries
    ctx = circle_context(8192, 3)
    u = I.restrict(np.sin, ctx.cloud)
    queries = np.random.default_rng(3).uniform(0.0, TWO_PI, 8192)
    tracemalloc.start()
    try:
        I.lambda_eps(ctx, u, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_lambda_stretched_kernel():
    # support 2: samples out to 2 eps carry weight, and nothing beyond
    kernel = IND.stretched(0.5)
    ctx = circle_context(100, 3)
    ctx = I.InterpolationContext(cloud=ctx.cloud, kernel=kernel, eps=0.2)
    u = I.restrict(np.sin, ctx.cloud)
    queries = np.linspace(0.0, TWO_PI, 40, endpoint=False)
    dense = kernel.psi(ctx.cloud.model.cross_distances(queries, ctx.cloud.params) / ctx.eps)
    want = (dense @ u) / dense.sum(axis=1)
    assert np.allclose(I.lambda_eps(ctx, u, queries), want, rtol=0.0, atol=1e-13)
    assert np.allclose(I.theta_eps(ctx, queries), dense.mean(axis=1), rtol=0.0, atol=1e-15)
    one = I.InterpolationContext(cloud=single_point_cloud(0.3), kernel=kernel, eps=0.5)
    assert I.lambda_eps(one, np.array([2.5]), 0.3 + 0.8) == 2.5
    assert I.theta_eps(one, 0.3 + 0.8) > 0.0
    with pytest.raises(UndefinedAtPoint):
        I.lambda_eps(one, np.array([2.5]), 0.3 + 1.2)
    assert I.theta_eps(one, 0.3 + 1.2) == 0.0


def test_energy_values():
    circle = M.UnitCircle()
    assert I.dirichlet_energy_1d(circle, lambda t: np.ones_like(t), 512) == 0.0
    energy = I.dirichlet_energy_1d(circle, np.sin, 4096)
    assert energy == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-4)


def test_energy_square_boundary():
    square = M.SquareBoundary()
    # first eigenfunction along arc length: sin(pi s / 2) with s = 2 theta / pi
    f = lambda theta: np.sin(theta)
    # |df/ds|^2 = (pi/2)^2 cos^2 and rho = 1/4 over the perimeter 4
    energy = I.dirichlet_energy_1d(square, f, 4096)
    assert energy == pytest.approx(math.pi ** 2 / 32.0, rel=1e-4)


def test_energy_dimension_guard():
    with pytest.raises(UnsupportedDimension):
        I.dirichlet_energy_1d(M.CliffordTorus(), lambda t: t, 256)


def test_energy_dominated_by_graph_form():
    # interpolation never creates more energy than ~the intrinsic graph form
    sig = K.sigma_eta(IND, 1)
    hits = 0
    for seed in range(5):
        cloud = M.sample_iid(M.UnitCircle(), 2048, 100 + seed)
        eps = G.epsilon_schedule(2048, 1)
        ctx = I.InterpolationContext(cloud=cloud, kernel=IND, eps=eps)
        u = I.restrict(np.sin, cloud)
        gi = G.build_graph(cloud, IND, eps, metric="intrinsic")
        bound = 2.0 * G.quadratic_form(gi, u) / (sig * 2048 ** 2 * eps ** 3)
        energy = I.dirichlet_energy_1d(cloud.model,
                                       lambda t: I.lambda_eps(ctx, u, t), 2048)
        if energy <= 1.5 * bound:
            hits += 1
    assert hits >= 4


def test_transport_single_point():
    cloud = single_point_cloud()
    rep = I.transport_map(cloud.model, cloud, eps_tilde=4.0, quad_points=2000)
    assert rep.masses[0] == pytest.approx(1.0, abs=1e-12)
    assert rep.max_distance <= math.pi + 1e-9


def test_transport_symmetric_four_points():
    circle = M.UnitCircle()
    params = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])
    cloud = M.PointCloud(manifold_id="circle", n=4, seed=0, params=params,
                         ambient=circle.embed(params), model=circle)
    rep = I.transport_map(circle, cloud, eps_tilde=2.0, quad_points=40_000)
    assert np.max(np.abs(rep.masses - 0.25)) <= 1e-3
    assert rep.max_distance <= math.pi / 4.0 + 1e-3


def test_transport_coverage_gap():
    cloud = single_point_cloud()
    with pytest.raises(CoverageGap):
        I.transport_map(cloud.model, cloud, eps_tilde=0.5, quad_points=500)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="eps_tilde"):
            I.transport_map(cloud.model, cloud, eps_tilde=bad, quad_points=500)
    for bad in (0, -3, 10.0, 2.5, True, np.float64(500.0)):
        with pytest.raises(ValueError, match="quad_points"):
            I.transport_map(cloud.model, cloud, eps_tilde=10.0, quad_points=bad)


def test_transport_mass_statistics():
    # typical cells carry close to 1/n; the extreme cells do not (the max
    # deviation is reported but unbounded for nearest-sample assignment)
    circle = M.UnitCircle()
    ok = 0
    for seed in range(5):
        cloud = M.sample_iid(circle, 2048, 300 + seed)
        eps = G.epsilon_schedule(2048, 1)
        rep = I.transport_map(circle, cloud, eps_tilde=3.0 * eps, quad_points=30_000)
        assert rep.max_distance <= 3.0 * eps
        assert rep.masses.sum() == pytest.approx(1.0, abs=1e-12)
        if rep.median_relative_deviation <= 0.5:
            ok += 1
    assert ok >= 4


def brute_force_transport(model, cloud, quad_points):
    """Dense reference: argmin over every sample (first index on ties)."""
    nodes, weights = model.chart_grid(quad_points)
    dists = model.cross_distances(nodes, cloud.params)
    assignment = np.argmin(dists, axis=1)
    masses = np.bincount(assignment, weights=weights / weights.sum(), minlength=cloud.n)
    return assignment, float(dists[np.arange(len(nodes)), assignment].max()), masses


def cloud_at(model, params):
    params = np.asarray(params, dtype=float)
    return M.PointCloud(manifold_id=model.kind, n=len(params), seed=0, params=params,
                        ambient=model.embed(params), model=model)


@pytest.mark.parametrize("name", ["circle", "square", "torus", "sphere", "singular"])
def test_transport_equals_brute_force(name):
    model = M.make_manifold(name)
    cloud = M.sample_iid(model, 256, 1)
    rep = I.transport_map(model, cloud, eps_tilde=10.0, quad_points=10_000)
    assignment, max_distance, masses = brute_force_transport(model, cloud, 10_000)
    assert np.array_equal(rep.assignment, assignment)
    assert rep.max_distance == max_distance
    assert np.array_equal(rep.masses, masses)
    if name == "square":
        # near a corner the chord-nearest sample is not the nearest one
        # along the curve: the intrinsic search must overrule the tree
        nodes, _ = model.chart_grid(10_000)
        _, chord_nearest = cKDTree(cloud.ambient).query(model.embed(nodes))
        assert np.count_nonzero(chord_nearest != rep.assignment) >= 1


def test_transport_search_widens_at_corners():
    # past each corner three samples are nearer by chord than the sample
    # 0.13 back along the face, which is the nearest along the curve for
    # the nodes about 0.1 before the corner: the search must look past the
    # two chord-nearest samples
    square = M.SquareBoundary()
    arc = np.concatenate([c + np.array([0.05, 0.06, 0.07, -0.23]) for c in range(4)])
    cloud = cloud_at(square, (arc % 4.0) * (0.5 * math.pi))
    rep = I.transport_map(square, cloud, eps_tilde=10.0, quad_points=4000)
    assert np.array_equal(rep.assignment, brute_force_transport(square, cloud, 4000)[0])
    nodes, _ = square.chart_grid(4000)
    _, first_two = cKDTree(cloud.ambient).query(square.embed(nodes), k=2)
    assert not (first_two == rep.assignment[:, None]).any(axis=1).all()


@pytest.mark.parametrize("name", ["circle", "square", "sphere"])
def test_transport_ties_go_to_lowest_index(name):
    model = M.make_manifold(name)
    params = M.sample_iid(model, 40, 2).params
    # sample 40 duplicates sample 7, and 41 duplicates 3
    cloud = cloud_at(model, np.concatenate([params, params[[7, 3]]]))
    rep = I.transport_map(model, cloud, eps_tilde=10.0, quad_points=4000)
    assert np.count_nonzero(rep.assignment == 7) > 0
    assert np.count_nonzero(rep.assignment == 3) > 0
    assert not np.isin(rep.assignment, [40, 41]).any()
    assert np.array_equal(rep.assignment, brute_force_transport(model, cloud, 4000)[0])


def test_transport_near_coincident_samples():
    # three copies of each node shifted by 1e-9: chords this short round
    # above the intrinsic distance by far more than a relative 1e-12, and
    # without the absolute margin the tree stops before the lowest copy
    circle = M.UnitCircle()
    nodes, _ = circle.chart_grid(1000)
    cloud = cloud_at(circle, np.tile(nodes + 1e-9, 3))
    rep = I.transport_map(circle, cloud, eps_tilde=1.0, quad_points=1000)
    assert np.array_equal(rep.assignment, np.arange(1000))
    assert rep.max_distance <= 1e-9 + 1e-15


def test_transport_memory_on_coincident_samples():
    # 2048 copies of one point: searched over every copy, each node's k
    # doubled up to n, and unsliced, the node-by-candidate arrays reached
    # 10 000 x 2048 (938 MB traced); the copies are now one candidate
    circle = M.UnitCircle()
    cloud = cloud_at(circle, np.full(2048, 0.3))
    tracemalloc.start()
    try:
        rep = I.transport_map(circle, cloud, eps_tilde=10.0, quad_points=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rep.assignment, np.zeros(10_000, dtype=int))
    assert peak < 160e6


@pytest.mark.parametrize("name", ["circle", "sphere"])
def test_transport_many_copies_among_distinct_samples(name):
    # 2048 copies of sample 100 inserted before it, at 50..2097, and a copy
    # of sample 7 at the end: each group goes to its lowest index
    model = M.make_manifold(name)
    params = M.sample_iid(model, 256, 4).params
    copies = np.repeat(params[[100]], 2048, axis=0)
    cloud = cloud_at(model, np.concatenate([params[:50], copies, params[50:], params[[7]]]))
    rep = I.transport_map(model, cloud, eps_tilde=10.0, quad_points=2000)
    assignment, max_distance, masses = brute_force_transport(model, cloud, 2000)
    assert np.array_equal(rep.assignment, assignment)
    assert rep.max_distance == max_distance
    assert np.array_equal(rep.masses, masses)
    assert np.count_nonzero(rep.assignment == 50) > 0
    assert np.count_nonzero(rep.assignment == 7) > 0
    assert not np.isin(rep.assignment, np.r_[51:2098, 2148, 2304]).any()


def test_transport_memory_on_near_coincident_samples():
    # 1024 distinct samples one ulp apart: their chords tie within the
    # search's rounding margin, so every node's k doubles up to n.  Sliced,
    # the search peaks at 112 MB traced; unsliced, its node-by-candidate
    # arrays reach 4000 x 1024 and it peaks at 197 MB
    circle = M.UnitCircle()
    cloud = cloud_at(circle, 0.3 + np.arange(1024) * np.spacing(0.3))
    tracemalloc.start()
    try:
        rep = I.transport_map(circle, cloud, eps_tilde=10.0, quad_points=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rep.assignment, brute_force_transport(circle, cloud, 4000)[0])
    assert peak < 160e6


def test_transport_exact_tie_between_distinct_samples():
    # node 200 lies exactly 2^-10 from both samples; the larger angle has the
    # lower index, so a search ordered by value would pick the other one
    circle = M.UnitCircle()
    nodes, _ = circle.chart_grid(1000)
    theta = nodes[200]
    cloud = cloud_at(circle, [theta + 2.0 ** -10, theta - 2.0 ** -10, theta + 2.0])
    rep = I.transport_map(circle, cloud, eps_tilde=10.0, quad_points=1000)
    assert circle.pair_distances(theta, cloud.params[0]) == circle.pair_distances(
        theta, cloud.params[1])
    assert rep.assignment[200] == 0
    assert np.array_equal(rep.assignment, brute_force_transport(circle, cloud, 1000)[0])


@pytest.mark.parametrize("name", ["circle", "sphere"])
def test_transport_ulp_apart_cloud_equals_brute_force(name, monkeypatch):
    # runs of 200 and 40 samples, each one ulp after the last, among 300
    # i.i.d. ones: the nodes near a run have all of it within their radius,
    # and a small block bound splits their search into slices of each size
    model = M.make_manifold(name)
    params = M.sample_iid(model, 300, 6).params

    def run(j, length):
        return params[j] + np.multiply.outer(np.arange(1, length + 1), np.spacing(params[j]))

    cloud = cloud_at(model, np.concatenate([params[:5], run(5, 200), params[5:100],
                                            run(100, 40), params[100:]]))
    monkeypatch.setattr(I, "TRANSPORT_BLOCK_ELEMENTS", 1000)
    rep = I.transport_map(model, cloud, eps_tilde=10.0, quad_points=4000)
    assignment, max_distance, masses = brute_force_transport(model, cloud, 4000)
    assert np.array_equal(rep.assignment, assignment)
    assert rep.max_distance == max_distance
    assert np.array_equal(rep.masses, masses)
    assert np.count_nonzero((rep.assignment >= 5) & (rep.assignment <= 205)) > 0
    assert np.count_nonzero((rep.assignment >= 300) & (rep.assignment <= 340)) > 0
