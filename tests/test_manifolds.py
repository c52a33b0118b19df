import math

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from lapeig import manifolds as M
from lapeig import singular as S
from lapeig.errors import GridTooSmall, NoAnalyticSpectrum, SolverFailure, UnsupportedDensity

TWO_PI = 2.0 * math.pi

ALL_MODELS = ["circle", "torus", "sphere", "square", "singular"]


def _model(name):
    return M.make_manifold(name, profile_level=6)


def test_embed_examples():
    circle = M.UnitCircle()
    assert np.allclose(circle.embed(math.pi), [-1.0, 0.0], atol=1e-12)
    square = M.SquareBoundary()
    assert np.allclose(square.embed(0.0), [0.0, 0.0])
    assert np.allclose(square.embed(math.pi / 2.0), [1.0, 0.0])
    assert np.allclose(square.embed(math.pi), [1.0, 1.0])


def test_intrinsic_distance_examples():
    circle = M.UnitCircle()
    assert circle.pair_distances(0.0, math.pi) == pytest.approx(math.pi, abs=1e-12)
    square = M.SquareBoundary()
    # adjacent corners (1,0) and (0,1): two arcs of length 2 around the loop
    assert square.pair_distances(math.pi / 2.0, 3.0 * math.pi / 2.0) == pytest.approx(2.0)
    sphere = M.UnitSphere()
    assert sphere.pair_distances([0.0, 0.0], [math.pi / 2.0, 0.3]) == pytest.approx(
        math.pi / 2.0, abs=1e-12)
    torus = M.CliffordTorus()
    assert torus.pair_distances([0.0, 0.0], [math.pi, math.pi]) == pytest.approx(
        math.pi * math.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_sampler_determinism_and_embedding(name):
    model = _model(name)
    a = M.sample_iid(model, 257, 123)
    b = M.sample_iid(model, 257, 123)
    assert np.array_equal(a.params, b.params)
    assert np.array_equal(a.ambient, b.ambient)
    assert np.array_equal(a.ambient, model.embed(a.params))
    c = M.sample_iid(model, 257, 124)
    assert not np.array_equal(a.params, c.params)


def test_single_circle_point_on_sphere():
    cloud = M.sample_iid(M.UnitCircle(), 1, 7)
    assert np.linalg.norm(cloud.ambient[0]) == pytest.approx(1.0, abs=1e-12)


def test_circle_uniform_ks():
    cloud = M.sample_iid(M.UnitCircle(), 10_000, 7)
    u = np.sort(cloud.params) / TWO_PI
    i = np.arange(1, u.size + 1)
    ks = max(np.max(i / u.size - u), np.max(u - (i - 1) / u.size))
    assert ks <= 0.02


def test_cosine_density_mean():
    cloud = M.sample_iid(M.UnitCircle(M.cosine_density(0.5)), 100_000, 3)
    assert np.mean(np.cos(cloud.params)) == pytest.approx(0.25, abs=0.01)


def test_analytic_spectrum_circle():
    circle = M.UnitCircle()
    assert np.allclose(M.analytic_spectrum(circle, "normalized", 4), [0, 1, 1, 4, 4])
    assert M.analytic_spectrum(circle, "unweighted", 4).tolist() == [0, 1, 1, 4, 4]
    rho = 1.0 / TWO_PI
    assert np.allclose(M.analytic_spectrum(circle, "weighted", 2), [0, rho, rho])


def test_analytic_spectrum_square():
    square = M.SquareBoundary()
    want = (math.pi / 2.0) ** 2
    assert np.allclose(M.analytic_spectrum(square, "normalized", 2), [0, want, want])
    # a closed curve of length 4: exact, not only close
    assert M.analytic_spectrum(square, "unweighted", 4).tolist() == [
        0.0, want, want, math.pi ** 2, math.pi ** 2]
    assert square.chart_speed == 2.0 / math.pi


def test_analytic_spectrum_torus_sphere():
    assert np.allclose(M.analytic_spectrum(M.CliffordTorus(), "unweighted", 5),
                       [0, 1, 1, 1, 1, 2])
    assert np.allclose(M.analytic_spectrum(M.UnitSphere(), "unweighted", 4),
                       [0, 2, 2, 2, 6])


def test_analytic_spectrum_singular():
    # a flat torus of sides L = 9.27879 (default profile) and 2 pi r
    model = M.make_manifold("singular")
    a = (2.0 * math.pi / model.volume() * 2.0 * math.pi) ** 2  # (2 pi / L)^2, r = 1
    assert a == pytest.approx(0.45854, abs=1e-5)
    want = [0.0, a, a, 1.0, 1.0] + [1.0 + a] * 4
    np.testing.assert_allclose(M.analytic_spectrum(model, "unweighted", 8), want,
                               rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(M.analytic_spectrum(model, "weighted", 8),
                               np.array(want) / model.volume(), rtol=1e-14, atol=0.0)
    # with r = L / 2 pi the two frequencies coincide: the square torus, scaled
    length = model.volume() / (2.0 * math.pi)
    square = M.SingularSurface(model.profile, m2_radius=length / (2.0 * math.pi))
    np.testing.assert_allclose(M.analytic_spectrum(square, "unweighted", 13),
                               a * np.array([0, 1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4, 4, 5]),
                               rtol=1e-12, atol=0.0)


def test_spectrum_errors():
    with pytest.raises(NoAnalyticSpectrum):
        M.analytic_spectrum(M.UnitCircle(M.cosine_density(0.3)), "weighted", 2)
    with pytest.raises(UnsupportedDensity):
        M.CliffordTorus(M.cosine_density(0.3))


def _reference_spectrum(model, count):
    """The plain spectrum as (value, multiplicity) generators stated it,
    expanded in order: the reference for each model's plain_spectrum."""
    def pairs():
        if model.kind in ("circle", "square"):
            yield (0.0, 1)
            for j in range(1, count):
                yield (float((TWO_PI / model.volume() * j) ** 2), 2)
        elif model.kind == "sphere":
            for l in range(count):
                yield (float(l * (l + 1)), 2 * l + 1)
        elif model.kind == "torus":
            idx = np.arange(-64, 65)
            vals = (idx[:, None] ** 2 + idx[None, :] ** 2).ravel()
            yield from zip(*(a.tolist() for a in np.unique(vals, return_counts=True)))
        else:
            bound, length, r = 64, model._length, model.m2_radius
            j, k = np.divmod(np.arange(bound * bound), bound)
            vals = (TWO_PI * j / length) ** 2 + (k / r) ** 2
            mult = np.where(j > 0, 2, 1) * np.where(k > 0, 2, 1)
            cutoff = min(TWO_PI * bound / length, bound / r) ** 2
            for i in np.argsort(vals, kind="stable"):
                if vals[i] >= cutoff:
                    break
                yield (float(vals[i]), int(mult[i]))

    out = []
    for val, mult in pairs():
        out.extend([val] * mult)
        if len(out) >= count:
            break
    return np.array(out[:count])


@pytest.mark.parametrize("which", ["unweighted", "weighted", "normalized"])
@pytest.mark.parametrize("name", ALL_MODELS)
def test_analytic_spectrum_equals_reference(name, which):
    model = _model(name)
    models = [model]
    if name == "singular":
        models += [M.SingularSurface(model.profile, m2_radius=r) for r in (0.3, 2.5)]
    for model in models:
        want = _reference_spectrum(model, 301)
        if which == "weighted":
            want = want / model.volume()
        got = M.analytic_spectrum(model, which, 300)
        assert got.shape == (301,) and np.array_equal(got, want)


def test_flat_torus_spectrum_grows_its_lattice():
    # r = 0.05: the |j|, |k| < 64 lattice holds only 451 values below its cut
    model = M.SingularSurface(M.make_manifold("singular").profile, m2_radius=0.05)
    idx = np.arange(-300, 301)
    vals = np.add.outer((TWO_PI * idx / model._length) ** 2, (idx / 0.05) ** 2).ravel()
    want = np.sort(vals)[:1001]
    assert want[-1] < min(TWO_PI * 301 / model._length, 301 / 0.05) ** 2
    assert np.array_equal(M.analytic_spectrum(model, "unweighted", 1000), want)


def _reference_arclength(profile, x):
    """Arc length from 0 to x along the singular surface's curve, per segment:
    a table of whole segments, then the part of x's segment."""
    def antiderivative(w, d):
        root = np.sqrt(w * w + d * d)
        out = 0.5 * w * root
        nz = d != 0.0
        out[nz] += 0.5 * d[nz] ** 2 * np.log(w[nz] + root[nz])
        return out

    alpha = profile.alpha
    n_seg = alpha.size - 1
    d = (alpha[1:] - alpha[:-1]) * n_seg
    w0 = 2.0 * math.pi * (1.0 + alpha[:-1])
    w1 = 2.0 * math.pi * (1.0 + alpha[1:])
    lengths = np.empty(n_seg)
    flat, sl = d == 0.0, d != 0.0
    lengths[flat] = 1.0 / n_seg * w0[flat]
    lengths[sl] = ((antiderivative(w1[sl], d[sl]) - antiderivative(w0[sl], d[sl]))
                   / (2.0 * math.pi * d[sl]))
    table = np.concatenate([[0.0], np.cumsum(lengths)])
    xv = np.mod(x, 1.0)
    seg = np.minimum((xv * n_seg).astype(int), n_seg - 1)
    frac = xv * n_seg - seg
    d, w0 = d[seg], w0[seg]
    wx = w0 + TWO_PI * d * frac / n_seg
    partial = np.where(d == 0.0, frac / n_seg * w0,
                       (antiderivative(wx, d) - antiderivative(w0, d))
                       / np.where(d == 0.0, 1.0, TWO_PI * d))
    return table[seg] + partial


def test_curve_arclength_equals_reference():
    # the default profile, and one flat on half its segments
    grid = np.arange(33) / 32.0
    half_flat = S.DyadicProfile(level=5, alpha=0.3 * np.maximum(np.sin(TWO_PI * grid), 0.0),
                                theta_values=np.array([]), theta_sum=0.0)
    x = np.concatenate([np.random.default_rng(5).uniform(-1.0, 2.0, 10 ** 5), grid,
                        [1.0 - 2.0 ** -53, -2.0 ** -60]])
    for profile in (M.make_manifold("singular").profile, half_flat):
        model = M.SingularSurface(profile)
        assert np.array_equal(model.curve_arclength(x), _reference_arclength(profile, x))
        assert model.curve_arclength(0.3) == model.curve_arclength(np.array([0.3]))[0]


# three chart points 1e-9 to 2e-9 apart in the chart, across each chart's seams
CHART_SEAMS = {
    "circle": [0.0, 1e-9, TWO_PI - 1e-9],
    "square": [0.0, 1e-9, TWO_PI - 1e-9],
    "torus": [[0.0, 0.0], [1e-9, TWO_PI - 1e-9], [TWO_PI - 1e-9, 1e-9]],
    "sphere": [[1.0, 0.0], [1.0, 1e-9], [1.0, TWO_PI - 1e-9]],
    "singular": [[0.0, 0.0], [1e-9, TWO_PI - 1e-9], [1.0 - 1e-9, 1e-9]],
}


@pytest.mark.parametrize("name", ALL_MODELS)
def test_pair_distance_fn_equals_pair_distances(name):
    model = _model(name)
    params = np.concatenate([model.sample(300, 5).params, np.asarray(CHART_SEAMS[name])])
    seams = np.arange(300, 303)
    rng = np.random.default_rng(6)
    # random pairs, every point with itself, then the nine pairs across the seams
    ii = np.concatenate([rng.integers(0, 303, 2000), np.arange(303), np.repeat(seams, 3)])
    jj = np.concatenate([rng.integers(0, 303, 2000), np.arange(303), np.tile(seams, 3)])
    got = model.pair_distance_fn(params)(ii, jj)
    want = model.pair_distances(params[ii], params[jj])
    assert got.dtype == want.dtype and got.shape == want.shape == ii.shape
    assert got.tobytes() == want.tobytes()
    assert np.all(want[2000:2303] == 0.0)
    # pairs across a seam are near, not a chart's width apart
    assert want[-9:].max() < 1e-7


@pytest.mark.parametrize("name", ALL_MODELS)
def test_chord_below_intrinsic_and_bilipschitz(name):
    model = _model(name)
    cloud = M.sample_iid(model, 100, 5)
    chord = np.linalg.norm(cloud.ambient[:, None, :] - cloud.ambient[None, :, :], axis=-1)
    intr = model.cross_distances(cloud.params, cloud.params)
    assert np.all(chord <= intr + 1e-9)
    bound = model.bilipschitz_bound
    assert np.all(intr <= bound * chord + 1e-9)
    # the bound is computed once: a second call does not embed again
    model.embed = None
    assert model.bilipschitz_bound == bound


@pytest.mark.parametrize("name", ALL_MODELS)
def test_bilipschitz_many_pairs(name):
    model = _model(name)
    a = M.sample_iid(model, 10_000, 11)
    b = M.sample_iid(model, 10_000, 12)
    chord = np.linalg.norm(a.ambient - b.ambient, axis=-1)
    intr = model.pair_distances(a.params, b.params)
    assert np.all(chord <= intr + 1e-9)
    assert np.all(intr <= model.bilipschitz_bound * chord + 1e-9)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_total_mass(name):
    model = _model(name)
    # the singular surface's density follows its dyadic profile, so its
    # quadrature needs a finer grid to reach the same tolerance
    nodes = 2 ** 20 if name == "singular" else 4096
    assert M.total_mass(model, nodes) == pytest.approx(1.0, abs=1e-8)


def test_total_mass_cosine():
    model = M.UnitCircle(M.cosine_density(0.5))
    assert M.total_mass(model, 4096) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_density_bounds(name):
    model = _model(name)
    cloud = M.sample_iid(model, 512, 3)
    rho = model.rho(cloud.params)
    assert rho.shape == (cloud.n,)
    assert np.all(rho == 1.0 / model.volume())


def test_oracle_reproduces_constant():
    rho = 1.0 / TWO_PI
    vals = M.oracle_spectrum_circle_weighted(M.constant_density(), 4096, 2)
    assert np.allclose(vals, [0.0, rho, rho], atol=1e-5)
    valsn = M.oracle_spectrum_circle_weighted(M.constant_density(), 4096, 2,
                                              which="normalized")
    assert np.allclose(valsn, [0.0, 1.0, 1.0], atol=1e-5)


def test_oracle_beta_zero_degeneracy():
    a = M.oracle_spectrum_circle_weighted(M.cosine_density(0.0), 4096, 4)
    b = M.oracle_spectrum_circle_weighted(M.constant_density(), 4096, 4)
    assert np.allclose(a, b, atol=1e-9)


def test_oracle_grid_consistency():
    a = M.oracle_spectrum_circle_weighted(M.cosine_density(0.5), 2048, 3)
    b = M.oracle_spectrum_circle_weighted(M.cosine_density(0.5), 4096, 3)
    assert np.max(np.abs(a - b)) <= 1e-4


def test_oracle_solver_errors(monkeypatch):
    # a solver failure is a SolverFailure; a programming error surfaces as itself
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((64, 0)))

    def bad_call(*args, **kwargs):
        raise TypeError("unexpected keyword")

    monkeypatch.setattr(M, "eigsh", no_convergence)
    with pytest.raises(SolverFailure, match="no convergence"):
        M.oracle_spectrum_circle_weighted(M.cosine_density(0.5), 64, 2)
    monkeypatch.setattr(M, "eigsh", bad_call)
    with pytest.raises(TypeError, match="unexpected keyword"):
        M.oracle_spectrum_circle_weighted(M.cosine_density(0.5), 64, 2)


def test_oracle_grid_guard():
    with pytest.raises(GridTooSmall):
        M.oracle_spectrum_circle_weighted(M.constant_density(), 32, 2)


def test_density_spec_validation():
    with pytest.raises(ValueError):
        M.cosine_density(1.0)
    with pytest.raises(ValueError):
        M.parse_density("banana")
    assert M.parse_density("cos:0.25").beta == 0.25
