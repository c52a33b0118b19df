import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from lapeig import harness as H
from lapeig import kernels as K
from lapeig import singular as S
from lapeig.errors import LevelTooDeep, QuadratureNotConverged


def test_square_boundary_param_examples():
    assert np.allclose(S.square_boundary_point(0.0), [0.0, 0.0])
    assert np.allclose(S.square_boundary_point(math.pi / 2.0), [1.0, 0.0])
    assert np.allclose(S.square_boundary_point(math.pi), [1.0, 1.0])
    assert np.allclose(S.square_boundary_point(math.pi / 4.0), [0.5, 0.0])


def test_square_boundary_param_continuity():
    for branch_theta in (math.pi / 2.0, math.pi, 1.5 * math.pi, 2.0 * math.pi):
        left = S.square_boundary_point(branch_theta - 1e-9)
        right = S.square_boundary_point(branch_theta + 1e-9)
        assert np.linalg.norm(left - right) < 1e-8


def test_circle_eigenfunction():
    assert S.circle_eigenfunction(math.pi / 2.0) == pytest.approx(1.0)
    assert S.circle_eigenfunction(0.0) == pytest.approx(0.0)
    theta = np.linspace(0.0, 2.0 * math.pi, 37)
    for alpha in (0.0, 0.4, 1.3):
        sq = (S.circle_eigenfunction(theta, alpha) ** 2
              + S.circle_eigenfunction(theta, alpha + math.pi / 2.0) ** 2)
        assert np.allclose(sq, 1.0, atol=1e-12)


CFG = S.SensitivityConfig(alpha=0.0, m2_radius=1.0,
                          eps_grid=(0.2, 0.1, 0.05, 0.025), quad_resolution=256)


def test_sensitivity_config_validation():
    with pytest.raises(ValueError):
        S.SensitivityConfig(alpha=0.0, m2_radius=1.0, eps_grid=(0.1, 0.2))
    with pytest.raises(ValueError):
        S.SensitivityConfig(alpha=0.0, m2_radius=1.0, eps_grid=(1.5, 0.2))
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError):
            S.SensitivityConfig(alpha=0.0, m2_radius=1.0, eps_grid=(0.2, bad))
        with pytest.raises(ValueError):
            S.sensitivity_operator(CFG, lambda t1, t2: np.sin(t1), (0.7, 0.0), bad)
    # below MIN_SENSITIVITY_EPS the corner sweep's node count is refused up front
    with pytest.raises(ValueError, match="240000 nodes per face"):
        S.SensitivityConfig(alpha=0.0, m2_radius=1.0, eps_grid=(0.2, 0.0001))
    assert S.SensitivityConfig(alpha=0.0, m2_radius=1.0,
                               eps_grid=(0.2, S.MIN_SENSITIVITY_EPS)).eps_grid[-1] == 0.01


def test_sensitivity_constant_function():
    h = lambda t1, t2: np.ones_like(np.asarray(t1, dtype=float))
    val = S.sensitivity_operator(CFG, h, (0.7, 0.1), 0.1)
    assert val == 0.0


def test_sensitivity_midpoint_taylor_limit():
    # at a face midpoint the ball average approaches (sigma/2) times the
    # Laplacian value, and each eps halving shrinks the defect at least 2x
    sigma = K.sigma_eta(K.indicator_kernel(), 2)
    h = lambda t1, t2: np.sin(np.asarray(t1, dtype=float))
    z0 = (math.pi / 4.0, 0.0)
    target = 0.5 * sigma * (math.pi / 2.0) ** 2 * math.sin(math.pi / 4.0)
    devs = []
    for eps in CFG.eps_grid:
        val = S.sensitivity_operator(CFG, h, z0, eps, rtol=1e-6)
        devs.append(abs(val - target))
    for a, b in zip(devs, devs[1:]):
        assert a >= 2.0 * b
    assert devs[-1] < 1e-3


def test_sensitivity_near_corner_defect_persists():
    # within eps of a corner the defect does not fade; it grows like 1/eps
    sigma = K.sigma_eta(K.indicator_kernel(), 2)
    h = lambda t1, t2: np.sin(np.asarray(t1, dtype=float))
    devs = []
    for eps in CFG.eps_grid:
        theta0 = (eps / 2.0) * math.pi / 2.0  # arc distance eps/2 from the corner
        val = S.sensitivity_operator(CFG, h, (theta0, 0.0), eps, rtol=1e-5)
        target = 0.5 * sigma * (math.pi / 2.0) ** 2 * math.sin(theta0)
        devs.append(abs(val - target))
    assert min(devs) >= 1.0
    assert devs[-1] > devs[0]


def test_sensitivity_exact_corner_cancels():
    # at the corner itself both faces enter symmetrically and the odd part
    # of the phase-zero eigenfunction integrates away
    h = lambda t1, t2: np.sin(np.asarray(t1, dtype=float))
    val = S.sensitivity_operator(CFG, h, (0.0, 0.0), 0.1, rtol=1e-5)
    assert abs(val) < 1e-9


def test_sensitivity_quadrature_guard(monkeypatch):
    h = lambda t1, t2: np.sin(np.asarray(t1, dtype=float))
    monkeypatch.setattr(S, "MAX_QUAD_DOUBLINGS", 2)
    with pytest.raises(QuadratureNotConverged):
        S.sensitivity_operator(CFG, h, (0.4, 0.0), 0.05, rtol=1e-9)


def test_sensitivity_config_refuses_bad_radius_and_alpha():
    for r in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="m2_radius"):
            S.SensitivityConfig(alpha=0.0, m2_radius=r, eps_grid=(0.2,))
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha"):
            S.SensitivityConfig(alpha=alpha, m2_radius=1.0, eps_grid=(0.2,))


def test_sensitivity_config_refuses_nonpositive_quad_resolution():
    for bad in (0, -5):
        with pytest.raises(ValueError, match="quad_resolution"):
            S.SensitivityConfig(alpha=0.0, m2_radius=1.0, eps_grid=(0.2,), quad_resolution=bad)


def test_corner_sweep_node_count():
    cfg = S.SensitivityConfig(alpha=0.0, m2_radius=1.0, eps_grid=(0.2,), quad_resolution=64)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="nodes_per_face"):
            H.corner_l1_sweep(cfg, nodes_per_face=bad)
    assert H.corner_l1_sweep(cfg) == H.corner_l1_sweep(cfg, cfg.nodes_per_face(0.2))
    assert H.corner_l1_sweep(cfg, 1)[0].l1_deviation > 0.0


def _chart_map_value(config, h, z0, eps, rtol, atol):
    """The ball average at one point (h independent of theta2) with its chord taken
    through square_boundary_point: the reference that the branch-free
    chord and the block evaluation must match bit for bit."""
    theta1_0, theta2_0 = z0
    r = config.m2_radius

    def value(n_nodes):
        s0 = (2.0 * theta1_0 / math.pi) % 4.0
        w = min(2.0, 1.5 * eps)
        s = np.mod(s0 + (np.arange(n_nodes) + 0.5) / n_nodes * 2.0 * w - w, 4.0)
        pa = S.square_boundary_point(s * math.pi / 2.0)
        pb = S.square_boundary_point(s0 * math.pi / 2.0)
        c1 = np.linalg.norm(pa - pb, axis=-1)
        rho1 = np.sqrt(np.maximum(eps * eps - c1 * c1, 0.0))
        width = np.minimum(4.0 * r * np.arcsin(np.minimum(rho1 / (2.0 * r), 1.0)),
                           2.0 * math.pi * r)
        theta1 = s * math.pi / 2.0
        diff = h(theta1_0, theta2_0) - h(theta1, np.full_like(theta1, theta2_0))
        return float(np.sum(diff * width) * (2.0 * w / n_nodes)) / eps ** 4

    n = max(64, config.quad_resolution)
    prev = value(n)
    while True:
        n *= 2
        cur = value(n)
        if abs(cur - prev) <= max(rtol * max(abs(cur), abs(prev)), atol):
            return cur
        prev = cur


def _corner_probe_points(eps):
    """Face interiors, the four corners and points within eps of a corner, as chart angles."""
    s = np.array([0.5, 1.37, 2.25, 3.8, 0.0, 1.0, 2.0, 3.0,
                  0.5 * eps, 1.0 - eps / 3.0, 2.0 + 0.25 * eps, 4.0 - 0.5 * eps, 3.0 + 0.9 * eps])
    return s * math.pi / 2.0


def test_sensitivity_batch_matches_chart_map_chord():
    # the branch-free chord and the block evaluation change no bit of the
    # value at any node of the corner sweep's kind
    h = lambda t1, t2: np.sin(np.asarray(t1, dtype=float) - 0.3)
    for eps in (0.2, 0.05):
        theta1 = _corner_probe_points(eps)
        pts = np.stack([theta1, np.zeros_like(theta1)], axis=1)
        got = S.sensitivity_operator(CFG, h, pts, eps, rtol=1e-4, atol=1e-7)
        want = [_chart_map_value(CFG, h, p, eps, 1e-4, 1e-7) for p in pts]
        assert got.shape == (len(pts),)
        assert got.tobytes() == np.array(want).tobytes()


def test_sensitivity_batch_matches_single_points():
    eps, tol = 0.1, 1e-5
    h = lambda t1, t2: np.sin(np.asarray(t1, dtype=float))
    # 256 nodes at first: 32 points share a block, so all of these do
    theta1 = _corner_probe_points(eps)
    pts = np.stack([theta1, np.zeros_like(theta1)], axis=1)
    batch = S.sensitivity_operator(CFG, h, pts, eps, rtol=tol, atol=tol)
    singles = [S.sensitivity_operator(CFG, h, tuple(p), eps, rtol=tol, atol=tol) for p in pts]
    assert all(v.shape == (1,) for v in singles)
    assert batch.tobytes() == np.concatenate(singles).tobytes()


def _nested_quad_value(config, h, theta1_0, eps):
    """eps^-4 int (h(s0) - h(s)) r dphi ds over the ambient eps-ball, by nested
    adaptive quadrature: s runs along the square boundary, split at the
    corners, and phi over the circle arc |phi| <= 2 arcsin(sqrt(eps^2 - c^2) / 2r)
    that the ball cuts at square chord c(s)."""
    r = config.m2_radius
    s0 = 2.0 * theta1_0 / math.pi
    p0 = S.square_boundary_point(theta1_0)
    lo, hi = s0 - 1.5 * eps, s0 + 1.5 * eps
    corners = list(range(math.floor(lo) + 1, math.ceil(hi)))
    h0 = h(theta1_0, 0.0)

    def slice_integral(s):
        c = np.linalg.norm(S.square_boundary_point(s * math.pi / 2.0) - p0)
        if c >= eps:
            return 0.0
        phi = 2.0 * math.asin(math.sqrt(eps * eps - c * c) / (2.0 * r))
        dh = h0 - h((s % 4.0) * math.pi / 2.0, 0.0)
        return integrate.quad(lambda _: dh * r, -phi, phi)[0]

    val, _ = integrate.quad(slice_integral, lo, hi, points=corners or None,
                            epsabs=1e-13, epsrel=1e-11, limit=200)
    return val / eps ** 4


def test_sensitivity_matches_nested_quad_reference():
    # face interiors and points within eps of a corner; the exact corners,
    # where the value cancels to zero, are test_sensitivity_exact_corner_cancels'
    eps = 0.1
    h = lambda t1, t2: np.sin(np.asarray(t1, dtype=float))
    theta1 = np.delete(_corner_probe_points(eps), [4, 5, 6, 7])
    got = S.sensitivity_operator(CFG, h, np.stack([theta1, np.zeros_like(theta1)], axis=1),
                                 eps, rtol=1e-6)
    want = np.array([_nested_quad_value(CFG, h, t, eps) for t in theta1])
    assert np.all(np.abs(got - want) <= 2e-6 * np.abs(want))


def test_sensitivity_point_shapes():
    calls = []

    def h(t1, t2):
        calls.append(np.shape(t1))
        return np.sin(np.asarray(t1, dtype=float))

    # a non-finite coordinate once doubled the quadrature 12 times and then
    # reported the point as still moving; it is refused before h is called
    for bad in ((0.1, 0.2, 0.3), np.zeros((4, 3)), np.zeros((2, 2, 2)),
                (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.0, math.nan),
                [[0.1, 0.0], [0.2, math.inf]]):
        with pytest.raises(ValueError, match="z0"):
            S.sensitivity_operator(CFG, h, bad, 0.1)
    assert not calls
    assert S.sensitivity_operator(CFG, h, np.zeros((0, 2)), 0.1).shape == (0,)


def test_sensitivity_refuses_bad_tolerances():
    # with both tolerances negative no point could converge: the call once
    # doubled the quadrature 12 times and reported the point as still moving
    calls = []

    def h(t1, t2):
        calls.append(1)
        return np.sin(np.asarray(t1, dtype=float))

    for rtol, atol in ((-1.0, -1.0), (-1e-3, 1e-9), (1e-3, -1e-9), (math.nan, 1e-9),
                       (1e-3, math.nan), (math.inf, 1e-9), (1e-3, math.inf)):
        with pytest.raises(ValueError, match="rtol and atol"):
            S.sensitivity_operator(CFG, h, (0.4, 0.0), 0.1, rtol=rtol, atol=atol)
    assert not calls
    assert S.sensitivity_operator(CFG, h, (0.0, 0.0), 0.1, rtol=0.0, atol=1e-9).shape == (1,)


def test_sensitivity_batch_quadrature_guard(monkeypatch):
    # the corner value cancels and converges at once; the other point is
    # still moving after two doublings, so the whole call fails
    h = lambda t1, t2: np.sin(np.asarray(t1, dtype=float))
    monkeypatch.setattr(S, "MAX_QUAD_DOUBLINGS", 2)
    pts = np.array([[0.0, 0.0], [0.4, 0.0]])
    assert abs(S.sensitivity_operator(CFG, h, pts[0], 0.05, rtol=1e-12, atol=1e-12)) < 1e-12
    with pytest.raises(QuadratureNotConverged, match="1 of 2 points"):
        S.sensitivity_operator(CFG, h, pts, 0.05, rtol=1e-12, atol=1e-12)


def _spread_points(eps):
    """The corner probe points and 97 points on each face, as (theta1, 0) rows."""
    faces = (np.arange(4)[:, None] + (np.arange(97) + 0.3) / 97).ravel() * math.pi / 2.0
    theta1 = np.concatenate([_corner_probe_points(eps), faces])
    return np.stack([theta1, np.zeros_like(theta1)], axis=1)


def test_quadrature_bits_do_not_depend_on_the_block_size(monkeypatch):
    # 401 points over the four faces and the corners: at 256 nodes one block
    # of 2^20 entries holds them all, 2^15 cuts them into four blocks, and
    # 2^10 into blocks of four points at most
    eps = 0.1
    pts = _spread_points(eps)
    h = lambda t1, t2: np.sin(np.asarray(t1, dtype=float) - 0.3)
    got = {}
    for elements in (2 ** 10, 2 ** 15, 2 ** 20):
        monkeypatch.setattr(S, "QUAD_BLOCK_ELEMENTS", elements)
        got[elements] = S.sensitivity_operator(CFG, h, pts, eps, rtol=1e-4, atol=1e-7)
    assert got[2 ** 10].tobytes() == got[2 ** 15].tobytes() == got[2 ** 20].tobytes()


def test_corner_sweep_bits():
    # the benchmark's corner grid; the values are those of the sweep before
    # the blocks were written into work buffers
    cfg = S.SensitivityConfig(alpha=0.0, m2_radius=1.0, eps_grid=(0.2, 0.1, 0.05),
                              quad_resolution=256)
    rows = H.corner_l1_sweep(cfg)
    assert [r.l1_deviation.hex() for r in rows] == [
        "0x1.03276fc605e92p+4", "0x1.fc65588dc8115p+3", "0x1.f6971747d01f0p+3"]


def test_quadrature_leaves_no_work_buffer_behind(monkeypatch):
    # the buffers are freed by reference count when each level returns: a
    # point that converges slowly must not keep 2^20-entry rows
    refs = []
    real = S._ball_averages

    def recording(*args):
        refs.extend(weakref.ref(buf) for buf in args[-2:])
        return real(*args)

    monkeypatch.setattr(S, "_ball_averages", recording)
    h = lambda t1, t2: np.sin(np.asarray(t1, dtype=float))
    pts = _spread_points(0.1)
    gc.disable()
    try:
        S.sensitivity_operator(CFG, h, pts, 0.1)
        live = [ref for ref in refs if ref() is not None]
        monkeypatch.setattr(S, "MAX_QUAD_DOUBLINGS", 2)
        with pytest.raises(QuadratureNotConverged):
            S.sensitivity_operator(CFG, h, pts, 0.1, rtol=1e-12, atol=1e-12)
        live += [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert len(refs) > 8 and not live


def _quad_profile(m, t):
    """The corner-defect profile as its defining difference of two moments, by
    adaptive quadrature: the full half-disc moment int_t^1 s (1 - s^2)^p and
    the corner-shadow moment int_0^sqrt(1 - t^2) (s + t) (1 - s^2 - t^2)^p,
    p = (m - 1) / 2."""
    p = (m - 1) / 2.0
    first, _ = integrate.quad(lambda s: s * (1.0 - s * s) ** p, t, 1.0,
                              epsabs=1e-13, limit=200)
    second, _ = integrate.quad(lambda s: (s + t) * max(0.0, 1.0 - s * s - t * t) ** p,
                               0.0, math.sqrt(1.0 - t * t), epsabs=1e-13, limit=200)
    return first - second


def test_corner_defect_profile():
    for m in (1, 2, 3):
        assert S.corner_defect_profile(m, 0.0) == 0.0
        assert S.corner_defect_profile(m, 1.0) == 0.0
    # c_1 = 1 and c_2 = pi/4 exactly
    assert S.corner_defect_profile(1, 0.5) == -0.5 * math.sqrt(0.75)
    assert S.corner_defect_profile(2, 0.3) == -(math.pi / 4.0) * 0.3 * (1.0 - 0.3 * 0.3)
    for m in range(1, 7):
        for t in (0.05, 0.2, 0.5, 0.8, 0.97):
            assert S.corner_defect_profile(m, t) == pytest.approx(_quad_profile(m, t),
                                                                  rel=1e-10, abs=1e-12)


def test_corner_defect_refuses_meaningless_m():
    for m in (0, -1, 1.5, 2.0, True, None, "2"):
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            S.corner_defect_profile(m, 0.5)
    for m in (1, 0, 2.5, True):
        with pytest.raises(ValueError, match="m must be an integer >= 2"):
            S.corner_defect_l1_limit(CFG, m)
    with pytest.raises(ValueError, match="t must lie"):
        S.corner_defect_profile(2, 1.5)
    assert S.corner_defect_profile(np.int64(3), 0.5) == S.corner_defect_profile(3, 0.5)


def test_corner_defect_l1_limit():
    # alpha = 0, r = 1, m = 2: the closed form is pi^3 / 2 to the bit
    val = S.corner_defect_l1_limit(CFG, 2)
    assert val == math.pi ** 3 / 2.0
    rotated = S.SensitivityConfig(alpha=math.pi / 4.0, m2_radius=1.0,
                                  eps_grid=(0.2, 0.1))
    assert S.corner_defect_l1_limit(rotated, 2) == pytest.approx(
        math.sqrt(2.0) * val, rel=1e-14)
    # against 2 pi (|sin a| + |cos a|) 2 pi r Vol(B^(m-1)) int_0^1 |h_m| with the
    # profile's defining moments and the outer integral all by quadrature
    for m in (2, 3, 4, 5):
        absint, _ = integrate.quad(lambda t: abs(_quad_profile(m, t)), 0.0, 1.0,
                                   epsabs=1e-13, limit=200)
        for alpha in (0.0, 0.3, 1.0, 2.5):
            for r in (0.7, 1.0, 2.0):
                cfg = S.SensitivityConfig(alpha=alpha, m2_radius=r, eps_grid=(0.2, 0.1))
                want = (2.0 * math.pi * (abs(math.sin(alpha)) + abs(math.cos(alpha)))
                        * 2.0 * math.pi * r * K.ball_volume(m - 1) * absint)
                assert S.corner_defect_l1_limit(cfg, m) == pytest.approx(want, rel=1e-10)
                assert S.corner_defect_l1_limit(cfg, m) > 0.0


# -- dyadic bump construction ----------------------------------------------

def test_dyadic_base_values():
    prof = S.dyadic_profile(S.geometric_theta(0.5), 1)
    assert np.array_equal(prof.alpha, [0.0, 1.0, 0.0])


def test_dyadic_level2_example():
    prof = S.dyadic_profile(lambda l: 0.25, 2)
    assert prof.alpha[1] == pytest.approx(0.375, abs=1e-15)  # (1 - theta)/2
    assert prof.alpha[3] == pytest.approx(0.375, abs=1e-15)


def test_dyadic_reflection_symmetry():
    prof = S.dyadic_profile(S.geometric_theta(0.5), 12)
    assert np.allclose(prof.alpha, prof.alpha[::-1], atol=1e-14)


def test_dyadic_nested_consistency():
    deep = S.dyadic_profile(S.geometric_theta(0.5), 10)
    for level in (1, 4, 7, 9):
        shallow = S.dyadic_profile(S.geometric_theta(0.5), level)
        assert np.array_equal(S.level_alpha(deep, level), shallow.alpha)


def test_dyadic_level1_slopes():
    prof = S.dyadic_profile(S.geometric_theta(0.5), 4)
    data = S.dyadic_slopes(prof, level=1)
    assert np.array_equal(data.slopes, [2.0, -2.0])
    assert np.array_equal(data.jumps, [4.0, -4.0])
    assert data.total_jump == 8.0


def test_dyadic_contraction_identity():
    # successive interpolants contract by theta(n+1)/2 in the sup norm
    prof = S.dyadic_profile(S.geometric_theta(0.5), 12)
    x = prof.grid()
    for n in range(2, 12):
        fn1 = S.profile_function(prof, x, level=n + 1)
        fn = S.profile_function(prof, x, level=n)
        fn0 = S.profile_function(prof, x, level=n - 1)
        lhs = np.max(np.abs(fn1 - fn))
        rhs = 0.5 ** (n + 1) / 2.0 * np.max(np.abs(fn - fn0))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_dyadic_slope_recursions():
    prof = S.dyadic_profile(S.geometric_theta(0.5), 12)
    for n in range(2, 13):
        th = 0.5 ** n
        d = S.dyadic_slopes(prof, level=n).slopes
        prev = S.dyadic_slopes(prof, level=n - 1).slopes
        k = np.arange(2 ** (n - 2))
        assert np.allclose(d[4 * k], th / 2 * prev[2 * k + 1] + (1 - th / 2) * prev[2 * k],
                           atol=1e-12)
        assert np.allclose(d[4 * k + 1],
                           -th / 2 * prev[2 * k + 1] + (1 + th / 2) * prev[2 * k],
                           atol=1e-12)
        assert np.allclose(d[4 * k + 2],
                           (1 + th / 2) * prev[2 * k + 1] - th / 2 * prev[2 * k],
                           atol=1e-12)
        assert np.allclose(d[4 * k + 3],
                           (1 - th / 2) * prev[2 * k + 1] + th / 2 * prev[2 * k],
                           atol=1e-12)


def test_dyadic_jump_recursions_and_bound():
    prof = S.dyadic_profile(S.geometric_theta(0.5), 12)
    for n in range(2, 13):
        th = 0.5 ** n
        e = S.dyadic_slopes(prof, level=n).jumps
        prev = S.dyadic_slopes(prof, level=n - 1).jumps
        half = 2 ** (n - 1)
        k = np.arange(2 ** (n - 2))
        assert np.allclose(e[4 * k], th / 2 * prev[(2 * k + 1) % half] + prev[2 * k]
                           + th / 2 * prev[(2 * k - 1) % half], atol=1e-12)
        assert np.allclose(e[4 * k + 1], -th * prev[(2 * k + 1) % half], atol=1e-12)
        assert np.allclose(e[4 * k + 2], (1 + th) * prev[(2 * k + 1) % half], atol=1e-12)
        assert np.allclose(e[4 * k + 3], -th * prev[(2 * k + 1) % half], atol=1e-12)
        total = np.abs(e).sum()
        total_prev = np.abs(prev).sum()
        assert total <= (1.0 + 4.0 * th) * total_prev + 1e-12
        assert total <= 8.0 * math.exp(4.0 * prof.theta_sum) + 1e-9


def test_dyadic_jumps_never_vanish_exact():
    # the float jumps underflow the slope differences at deep levels, so
    # the non-vanishing statement is checked in exact dyadic rationals
    exact = S.dyadic_profile_exact(lambda l: Fraction(1, 2 ** l), 12)
    for level in range(1, 13):
        stride = 2 ** (12 - level)
        _, jumps = S.dyadic_slopes_exact(exact[::stride])
        assert all(j != 0 for j in jumps)


def test_dyadic_exact_path_matches_float_path():
    exact = S.dyadic_profile_exact(lambda l: Fraction(1, 2 ** l), 8)
    assert all(type(v) is Fraction for v in exact)
    prof = S.dyadic_profile(S.geometric_theta(0.5), 8)
    assert np.allclose([float(v) for v in exact], prof.alpha, rtol=0.0, atol=1e-15)
    d, e = S.dyadic_slopes_exact(exact)
    data = S.dyadic_slopes(prof)
    assert np.allclose([float(v) for v in d], data.slopes, rtol=0.0, atol=1e-12)
    assert np.allclose([float(v) for v in e], data.jumps, rtol=0.0, atol=1e-12)
    for build in (S.dyadic_profile, S.dyadic_profile_exact):
        with pytest.raises(ValueError):
            build(lambda l: 0 if l == 3 else Fraction(1, 4), 4)


def test_dyadic_lipschitz_bound():
    prof = S.dyadic_profile(S.geometric_theta(0.5), 12)
    for n in range(1, 13):
        d = S.dyadic_slopes(prof, level=n).slopes
        assert np.max(np.abs(d)) <= 2.0 * math.exp(prof.theta_sum) + 1e-12


def test_speed_constant_flat_profiles():
    zero = S.DyadicProfile(level=5, alpha=np.zeros(33), theta_values=np.array([]),
                           theta_sum=0.0)
    assert S.curve_speed_constant(zero).value == 1.0
    lifted = S.DyadicProfile(level=5, alpha=np.full(33, 0.25),
                             theta_values=np.array([]), theta_sum=0.0)
    assert S.curve_speed_constant(lifted).value == pytest.approx(1.25, abs=1e-12)


def test_speed_constant_converges():
    prof = S.dyadic_profile(S.geometric_theta(0.5), 12)
    rep = S.curve_speed_constant(prof)
    assert abs(rep.difference) <= 1e-3
    assert rep.value > 1.0


def test_singular_embedding():
    zero = S.DyadicProfile(level=5, alpha=np.zeros(33), theta_values=np.array([]),
                           theta_sum=0.0)
    point = S.singular_embedding(zero, 0.5, 0.0, 0.3)
    assert np.allclose(point, [1.0, 0.0, 0.5 * math.cos(0.3), 0.5 * math.sin(0.3)])
    prof = S.dyadic_profile(S.geometric_theta(0.5), 8)
    mid = S.singular_embedding(prof, 1.0, 0.5, 0.0)
    assert np.linalg.norm(mid[:2]) == pytest.approx(2.0, abs=1e-12)  # 1 + f(1/2) = 2


def test_level_guard():
    with pytest.raises(LevelTooDeep):
        S.dyadic_profile(S.geometric_theta(0.5), 25)
    with pytest.raises(LevelTooDeep):
        S.dyadic_profile_exact(lambda l: Fraction(1, 2 ** l), 25)
