"""Reference manifolds: embeddings, intrinsic metrics, densities, samplers, spectra.

Every model uses angle-based charts; wraparound is handled inside the
distance routines, so there is no atlas machinery.  Samplers draw i.i.d.
points from the weighted volume measure and are bit-reproducible from
(model, n, seed).  The flat torus is realized in R^4 so that uniform
angles are exactly the constant-density volume measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from . import singular as _sing
from .errors import (GridTooSmall, NoAnalyticSpectrum, SolverFailure,
                     UnsupportedDensity)

TWO_PI = 2.0 * math.pi

UNWEIGHTED = "unweighted"
WEIGHTED = "weighted"
NORMALIZED = "normalized"


@dataclass(frozen=True)
class DensitySpec:
    """Sampling density: constant, or 1 + beta*cos(theta) on the circle."""

    form: str  # "constant" | "cosine"
    beta: float = 0.0

    def __post_init__(self):
        if self.form not in ("constant", "cosine"):
            raise ValueError(f"unknown density form {self.form!r}")
        if self.form == "cosine" and not abs(self.beta) < 1.0:
            raise ValueError("cosine density needs |beta| < 1")

    @property
    def label(self) -> str:
        return "const" if self.form == "constant" else f"cos:{self.beta:g}"


def constant_density() -> DensitySpec:
    return DensitySpec("constant")


def cosine_density(beta: float) -> DensitySpec:
    return DensitySpec("cosine", beta=beta)


def parse_density(text: str) -> DensitySpec:
    if text == "const":
        return constant_density()
    if text.startswith("cos:"):
        return cosine_density(float(text.split(":", 1)[1]))
    raise ValueError(f"unknown density spec {text!r}; use const or cos:<beta>")


@dataclass(frozen=True)
class PointCloud:
    """An i.i.d. sample with its chart coordinates and ambient embedding."""

    manifold_id: str
    n: int
    seed: int
    params: np.ndarray
    ambient: np.ndarray
    model: object = field(default=None, repr=False, compare=False)


def ambient_cloud(points) -> PointCloud:
    """Wrap raw ambient coordinates as a cloud (no chart, ambient metric only)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return PointCloud(manifold_id="ambient", n=pts.shape[0], seed=0,
                      params=np.arange(pts.shape[0], dtype=float), ambient=pts)


def _angdist(a, b):
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def _flat_torus_spectrum(length: float, radius: float, count: int) -> np.ndarray:
    """Lowest count eigenvalues, with multiplicity, of the flat torus of sides
    length and 2 pi radius: (2 pi j / length)^2 + (k / radius)^2 over integers j, k.

    The lattice |j|, |k| < 64 holds every value below the first one with
    |j| or |k| = 64; beyond that a value's multiplicity would be cut short.
    """
    bound = 64
    idx = np.arange(1 - bound, bound)
    vals = np.add.outer((TWO_PI * idx / length) ** 2, (idx / radius) ** 2).ravel()
    cutoff = min(TWO_PI * bound / length, bound / radius) ** 2
    return np.sort(vals[vals < cutoff])[:count]


class _BaseModel:
    """Common plumbing; concrete models fill the geometry hooks."""

    kind = "base"
    m = 0
    d = 0

    def __init__(self, density: DensitySpec | None = None):
        self.density = density or constant_density()
        if self.density.form != "constant" and self.kind != "circle":
            raise UnsupportedDensity(
                f"{self.kind} only supports the constant density")

    # -- hooks ------------------------------------------------------------
    def volume(self) -> float:
        raise NotImplementedError

    def embed(self, params) -> np.ndarray:
        raise NotImplementedError

    def sample_params(self, n: int, rng) -> np.ndarray:
        raise NotImplementedError

    def plain_spectrum(self, count: int) -> np.ndarray:
        """Lowest count eigenvalues of the plain Laplacian, with multiplicity, ascending."""
        raise NotImplementedError

    def pair_distances(self, pa, pb) -> np.ndarray:
        """Intrinsic distance for paired chart points; broadcasts."""
        raise NotImplementedError

    def pair_distance_fn(self, params):
        """f(ii, jj) = pair_distances(params[ii], params[jj]), bit for bit.

        A model whose distance needs per-point work overrides this to do
        that work once per point rather than once per pair.
        """
        return lambda ii, jj: self.pair_distances(params[ii], params[jj])

    def _bilipschitz_params(self):
        """Chart points whose pairs estimate the bilipschitz bound; None: pi/2 holds."""
        return None

    # -- derived ----------------------------------------------------------
    def rho(self, params) -> np.ndarray:
        """Density at each chart point (one value per point)."""
        return np.full(np.size(params) // self.m, 1.0 / self.volume())

    def cross_distances(self, pa, pb) -> np.ndarray:
        """Intrinsic distance from every point of pa to every point of pb."""
        return self.pair_distances(np.asarray(pa, dtype=float)[:, None],
                                   np.asarray(pb, dtype=float)[None, :])

    @cached_property
    def bilipschitz_bound(self) -> float:
        """Bound on intrinsic distance over chord length, computed once per model:
        (pi/2) times the largest intrinsic/chord ratio over pairs of _bilipschitz_params()."""
        params = self._bilipschitz_params()
        if params is None:
            return math.pi / 2.0
        x = self.embed(params)
        chord = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
        intr = self.cross_distances(params, params)
        np.fill_diagonal(chord, 1.0)
        np.fill_diagonal(intr, 0.0)
        return (math.pi / 2.0) * float(np.max(intr / chord))

    def sample(self, n: int, seed: int) -> PointCloud:
        if n < 1:
            raise ValueError("n must be positive")
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must lie in [0, 2^64)")
        rng = np.random.default_rng(np.uint64(seed))
        params = self.sample_params(n, rng)
        return PointCloud(manifold_id=self.label, n=n, seed=int(seed),
                          params=params, ambient=self.embed(params), model=self)

    def analytic_spectrum(self, which: str, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        if which not in (UNWEIGHTED, WEIGHTED, NORMALIZED):
            raise ValueError(f"unknown spectrum selector {which!r}")
        if which != UNWEIGHTED and self.density.form != "constant":
            raise NoAnalyticSpectrum(
                "non-constant density has no closed-form weighted spectrum; "
                "use the one-dimensional oracle")
        base = self.plain_spectrum(k + 1)
        if which == WEIGHTED:
            return base / self.volume()
        return base

    @property
    def label(self) -> str:
        return f"{self.kind}[{self.density.label}]"


def _midpoint_grid(resolution: int, spans):
    """Midpoint product grid of about ``resolution`` nodes on a 2-D chart box.

    ``spans`` holds (start, length) per axis; returns the (q*q, 2) nodes
    and the cell width along each axis.
    """
    q = max(2, int(math.isqrt(resolution)))
    axes = [lo + (np.arange(q) + 0.5) * length / q for lo, length in spans]
    a0, a1 = np.meshgrid(*axes, indexing="ij")
    return np.stack([a0.ravel(), a1.ravel()], axis=-1), [length / q for _, length in spans]


class _ClosedCurve(_BaseModel):
    """A closed curve of length volume() on the chart angle in [0, 2 pi).

    The chart runs at constant speed, so the plain spectrum is that of a
    circle of the same length: 0, then (2 pi j / length)^2 twice.
    """

    m = 1
    d = 2

    @property
    def chart_speed(self) -> float:
        return self.volume() / TWO_PI

    def sample_params(self, n, rng):
        return rng.uniform(0.0, TWO_PI, n)  # constant speed: uniform arc length

    def plain_spectrum(self, count):
        return (TWO_PI / self.volume() * ((np.arange(count) + 1) // 2)) ** 2

    def chart_grid(self, resolution):
        theta = (np.arange(resolution) + 0.5) * TWO_PI / resolution
        return theta, self.rho(theta) * self.chart_speed * (TWO_PI / resolution)


class UnitCircle(_ClosedCurve):
    kind = "circle"

    def volume(self):
        return TWO_PI

    def rho(self, params):
        if self.density.form == "constant":
            return super().rho(params)
        theta = np.asarray(params, dtype=float)
        return (1.0 + self.density.beta * np.cos(theta)) / TWO_PI

    def embed(self, params):
        theta = np.asarray(params, dtype=float)
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)

    def pair_distances(self, pa, pb):
        return _angdist(np.asarray(pa, dtype=float), np.asarray(pb, dtype=float))

    def sample_params(self, n, rng):
        if self.density.form == "constant":
            return super().sample_params(n, rng)
        # inverse CDF on a dense table; the CDF is exact, only the
        # inversion is tabulated
        grid = np.linspace(0.0, TWO_PI, 2 ** 16 + 1)
        cdf = (grid + self.density.beta * np.sin(grid)) / TWO_PI
        return np.interp(rng.random(n), cdf, grid)


class CliffordTorus(_BaseModel):
    """Flat torus (angles in [0, 2 pi)^2) embedded with unit radii in R^4."""

    kind = "torus"
    m = 2
    d = 4

    def volume(self):
        return TWO_PI ** 2

    def embed(self, params):
        p = np.atleast_2d(np.asarray(params, dtype=float))
        return np.stack([np.cos(p[:, 0]), np.sin(p[:, 0]),
                         np.cos(p[:, 1]), np.sin(p[:, 1])], axis=-1)

    def pair_distances(self, pa, pb):
        pa = np.atleast_2d(pa)
        pb = np.atleast_2d(pb)
        return np.hypot(_angdist(pa[..., 0], pb[..., 0]),
                        _angdist(pa[..., 1], pb[..., 1]))

    def sample_params(self, n, rng):
        return rng.uniform(0.0, TWO_PI, (n, 2))

    def plain_spectrum(self, count):
        return _flat_torus_spectrum(TWO_PI, 1.0, count)

    def chart_grid(self, resolution):
        params, (h, _) = _midpoint_grid(resolution, [(0.0, TWO_PI), (0.0, TWO_PI)])
        return params, np.full(params.shape[0], h ** 2 / self.volume())


class UnitSphere(_BaseModel):
    """Round two-sphere; chart is (colatitude, longitude)."""

    kind = "sphere"
    m = 2
    d = 3

    def volume(self):
        return 4.0 * math.pi

    def embed(self, params):
        p = np.atleast_2d(np.asarray(params, dtype=float))
        st = np.sin(p[..., 0])
        return np.stack([st * np.cos(p[..., 1]), st * np.sin(p[..., 1]),
                         np.cos(p[..., 0])], axis=-1)

    def pair_distances(self, pa, pb):
        # half-chord form: stable near zero and consistent with the embedding
        chord = np.linalg.norm(self.embed(pa) - self.embed(pb), axis=-1)
        return 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))

    def sample_params(self, n, rng):
        g = rng.standard_normal((n, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        colat = np.arccos(np.clip(g[:, 2], -1.0, 1.0))
        lon = np.mod(np.arctan2(g[:, 1], g[:, 0]), TWO_PI)
        return np.stack([colat, lon], axis=-1)

    def plain_spectrum(self, count):
        # l(l+1) holds the 2l+1 indices l^2 .. (l+1)^2 - 1
        l = np.floor(np.sqrt(np.arange(count)))
        return l * (l + 1.0)

    def chart_grid(self, resolution):
        # grid in (z, lon): the area element is exactly dz dlon
        params, (hz, hlon) = _midpoint_grid(resolution, [(-1.0, 2.0), (0.0, TWO_PI)])
        params[:, 0] = np.arccos(params[:, 0])
        return params, np.full(params.shape[0], hz * hlon / self.volume())


class SquareBoundary(_ClosedCurve):
    """Boundary of the unit square, chart angle in [0, 2 pi), speed 2/pi.

    Isometric to a circle of circumference 4, so the spectrum is closed
    form while the ambient embedding has four genuine corners.
    """

    kind = "square"

    def volume(self):
        return 4.0

    def embed(self, params):
        return _sing.square_boundary_point(params)

    def pair_distances(self, pa, pb):
        sa = (2.0 / math.pi) * np.asarray(pa, dtype=float) % 4.0
        sb = (2.0 / math.pi) * np.asarray(pb, dtype=float) % 4.0
        d = np.abs(sa - sb) % 4.0
        return np.minimum(d, 4.0 - d)

    def _bilipschitz_params(self):
        return np.linspace(0.0, TWO_PI, 2048, endpoint=False)


class SingularSurface(_BaseModel):
    """Dyadically perturbed circle times a small circle, embedded in R^4.

    The radial bump has slope jumps at every dyadic rational, so the
    embedding is Lipschitz but nowhere-smooth along a dense set.  The kinks
    are extrinsic only: the curve (length L) and the circle of radius r lie
    in orthogonal planes, so the surface is isometric to a flat torus of
    sides L and 2 pi r, and its plain spectrum is (2 pi j / L)^2 + (k / r)^2.
    """

    kind = "singular"
    m = 2
    d = 4

    def __init__(self, profile: _sing.DyadicProfile, m2_radius: float = 1.0,
                 density: DensitySpec | None = None):
        super().__init__(density)
        if m2_radius <= 0:
            raise ValueError("m2_radius must be positive")
        self.profile = profile
        self.m2_radius = float(m2_radius)
        self._cumlen = _sing.curve_arclength_table(profile.alpha)
        self._length = float(self._cumlen[-1])
        self._slopes = _sing.dyadic_slopes(profile).slopes
        # the speed sqrt(w^2 + d^2), w = 2 pi (1 + f), peaks at a segment's end
        w = TWO_PI * (1.0 + profile.alpha)
        self._max_speed = float(
            np.sqrt(np.maximum(w[:-1] ** 2, w[1:] ** 2) + self._slopes ** 2).max())

    def volume(self):
        return self._length * TWO_PI * self.m2_radius

    def _segment(self, x):
        """x wrapped into [0, 1), its dyadic segment, and the fraction of that segment before x."""
        xv = np.mod(np.asarray(x, dtype=float), 1.0)
        n_seg = self._slopes.size
        seg = np.minimum((xv * n_seg).astype(int), n_seg - 1)
        return xv, seg, xv * n_seg - seg

    def speed(self, x):
        xv, seg, _ = self._segment(x)
        f = _sing.profile_function(self.profile, xv)
        return np.sqrt((TWO_PI * (1.0 + f)) ** 2 + self._slopes[seg] ** 2)

    def curve_arclength(self, x):
        """Exact arc length along the perturbed circle from 0 to x in [0, 1)."""
        _, seg, frac = self._segment(x)
        return self._cumlen[seg] + _sing.segment_arclength(self.profile.alpha, seg, frac)

    def embed(self, params):
        p = np.atleast_2d(np.asarray(params, dtype=float))
        return _sing.singular_embedding(self.profile, self.m2_radius, p[:, 0], p[:, 1])

    def _geodesic(self, arc_a, arc_b, ya, yb):
        """Flat-torus distance from arc lengths along the curve and small-circle angles."""
        dc = np.abs(arc_a - arc_b)
        dc = np.minimum(dc, self._length - dc)
        return np.hypot(dc, self.m2_radius * _angdist(ya, yb))

    def pair_distances(self, pa, pb):
        # arc length per point, then broadcast: never per (q, n) pair
        pa = np.atleast_2d(pa)
        pb = np.atleast_2d(pb)
        return self._geodesic(self.curve_arclength(pa[..., 0]),
                              self.curve_arclength(pb[..., 0]), pa[..., 1], pb[..., 1])

    def pair_distance_fn(self, params):
        # arc length once per sample, not once per end of every pair
        arc = self.curve_arclength(params[:, 0])
        y = params[:, 1]
        return lambda ii, jj: self._geodesic(arc[ii], arc[jj], y[ii], y[jj])

    def sample_params(self, n, rng):
        xs = np.empty(0)
        while xs.size < n:
            cand = rng.random(4096)
            accept = rng.random(4096) < self.speed(cand) / self._max_speed
            xs = np.concatenate([xs, cand[accept]])
        xs = xs[:n]
        ys = rng.uniform(0.0, TWO_PI, n)
        return np.stack([xs, ys], axis=-1)

    def plain_spectrum(self, count):
        return _flat_torus_spectrum(self._length, self.m2_radius, count)

    def _bilipschitz_params(self):
        rng = np.random.default_rng(1234)
        return np.stack([rng.random(512), rng.uniform(0, TWO_PI, 512)], axis=-1)

    def chart_grid(self, resolution):
        params, (hx, hy) = _midpoint_grid(resolution, [(0.0, 1.0), (0.0, TWO_PI)])
        return params, self.rho(params) * self.speed(params[:, 0]) * self.m2_radius * hx * hy


# the CLI names of the models, which are their kinds
MANIFOLDS = {model.kind: model for model in
             (UnitCircle, CliffordTorus, UnitSphere, SquareBoundary, SingularSurface)}


def make_manifold(name: str, density: DensitySpec | None = None,
                  profile_level: int = 8):
    """Build a model by its name in MANIFOLDS; the singular surface takes the
    dyadic profile of ratio 0.5 at profile_level."""
    model = MANIFOLDS.get(name) if isinstance(name, str) else None
    if model is None:
        raise ValueError(f"unknown manifold {name!r}")
    if model is SingularSurface:
        return model(_sing.dyadic_profile(_sing.geometric_theta(0.5), profile_level),
                     density=density)
    return model(density)


# -- module-level operation wrappers ---------------------------------------

def sample_iid(model, n: int, seed: int) -> PointCloud:
    """n independent draws from the model's weighted volume measure."""
    return model.sample(n, seed)


def analytic_spectrum(model, which: str, k: int) -> np.ndarray:
    """First k+1 eigenvalues (with multiplicity, ascending) of the chosen operator.

    For constant densities the weighted operator is rho times the plain
    one and the normalized operator coincides with the plain one.
    """
    return model.analytic_spectrum(which, k)


def total_mass(model, resolution: int = 4096) -> float:
    """Quadrature of the density over the manifold on about ``resolution`` nodes
    (should be 1)."""
    params, w = model.chart_grid(resolution)
    return float(np.sum(w))


def oracle_spectrum_circle_weighted(density: DensitySpec, grid_size: int, k: int,
                                    which: str = WEIGHTED) -> np.ndarray:
    """Finite-difference oracle for the weighted circle operators.

    Solves the generalized problem with stiffness weights rho^2 and mass
    weights rho (or rho^2 for the normalized operator) on a uniform
    periodic grid; independent of the graph pipeline.
    """
    if grid_size < 64:
        raise GridTooSmall("need at least 64 grid points")
    if which not in (WEIGHTED, NORMALIZED):
        raise ValueError("which must be 'weighted' or 'normalized'")
    circle = UnitCircle(density)
    n = grid_size
    h = TWO_PI / n
    theta = np.arange(n) * h
    rho_mid = circle.rho(theta + 0.5 * h)
    w = rho_mid ** 2 / h
    idx = np.arange(n)
    nxt = (idx + 1) % n
    rows = np.concatenate([idx, idx, nxt])
    cols = np.concatenate([idx, nxt, idx])
    diag = w + np.roll(w, 1)
    vals = np.concatenate([diag, -w, -w])
    stiff = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    rho_nodes = circle.rho(theta)
    mass = h * (rho_nodes if which == WEIGHTED else rho_nodes ** 2)
    mass_mat = sparse.diags(mass).tocsc()
    count = k + 1
    v0 = np.random.default_rng(0x5EED ^ n).standard_normal(n)
    try:
        vals_out = eigsh(stiff, k=count, M=mass_mat, sigma=-1e-3, which="LM",
                         v0=v0, return_eigenvectors=False)
    except (RuntimeError, MemoryError, np.linalg.LinAlgError) as exc:
        raise SolverFailure(str(exc)) from exc
    vals_out = np.sort(vals_out)
    tiny = np.abs(vals_out) < 1e-9 * max(1.0, float(np.abs(vals_out).max()))
    vals_out[tiny] = np.abs(vals_out[tiny])
    return vals_out
