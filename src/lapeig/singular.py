"""Singular test geometries.

Two constructions live here.  The first is the unit-square boundary with
its circle parametrization, the phase-shifted sine eigenfunctions, and the
ball-average operator whose pointwise Laplacian approximation fails at the
corners.  The second is a radial perturbation of the circle built
inductively on dyadic rationals; its limit is Lipschitz but non-smooth on
a dense set, giving a product surface with dense singularities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import LevelTooDeep, QuadratureNotConverged
from .kernels import ball_volume

MAX_DYADIC_LEVEL = 24


# ---------------------------------------------------------------------------
# Square boundary chart
# ---------------------------------------------------------------------------

def _boundary_xy(s, x=None, y=None, tmp=None):
    """Point (x, y) of the unit-square boundary at arc length s in [0, 4].

    Branch free: each coordinate is a difference of two clipped ramps.
    The four faces run counterclockwise from (0, 0); s = 0 and s = 4 both
    give (0, 0).  x, y and tmp are optional work buffers of s's shape that
    receive x, y and the last ramp; tmp may be s itself, which the last
    ramp then overwrites.
    """
    # y holds x's second ramp until y's own first ramp replaces it
    x = np.clip(s, 0.0, 1.0, out=x)
    x -= np.clip(np.subtract(s, 2.0, out=y), 0.0, 1.0, out=y)
    y = np.clip(np.subtract(s, 1.0, out=y), 0.0, 1.0, out=y)
    y -= np.clip(np.subtract(s, 3.0, out=tmp), 0.0, 1.0, out=tmp)
    return x, y


def square_boundary_point(theta):
    """Map the circle angle to the boundary of the unit square.

    The four faces run counterclockwise from (0, 0) at theta = 0 with
    constant speed 2/pi, so arc length is s = 2*theta/pi and the perimeter
    is 4.  Continuous at the corners.
    """
    theta_arr = np.mod(np.asarray(theta, dtype=float), 2.0 * math.pi)
    return np.stack(_boundary_xy(2.0 * theta_arr / math.pi), axis=-1)


def circle_eigenfunction(theta, alpha: float = 0.0):
    """sin(theta - alpha), the first nontrivial circle eigenfunction at phase alpha."""
    return np.sin(np.asarray(theta, dtype=float) - alpha)


# ---------------------------------------------------------------------------
# Ball-average Laplacian and its corner defect
# ---------------------------------------------------------------------------

# The corner sweep places about 24/eps nodes on each face and runs one
# adaptive quadrature per node, so its time grows like 1/eps (about
# 0.022/eps seconds on a 2-core x86 VM, so 2.2 s at this eps); far below
# this eps it runs for minutes.
MIN_SENSITIVITY_EPS = 0.01
MAX_QUAD_DOUBLINGS = 12
# float64 entries per work buffer of one quadrature block: the buffers of a
# block of corner nodes then stay in cache
QUAD_BLOCK_ELEMENTS = 2 ** 15


@dataclass(frozen=True)
class SensitivityConfig:
    """Settings for the corner-sensitivity experiment on square x circle."""

    alpha: float
    m2_radius: float
    eps_grid: tuple[float, ...]
    quad_resolution: int = 256

    def __post_init__(self):
        if not (math.isfinite(self.m2_radius) and self.m2_radius > 0.0):
            raise ValueError(f"m2_radius must be finite and positive, got {self.m2_radius!r}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        if self.quad_resolution < 1:
            raise ValueError(f"quad_resolution must be at least 1, got {self.quad_resolution!r}")
        grid = tuple(float(e) for e in self.eps_grid)
        if any(e2 >= e1 for e1, e2 in zip(grid, grid[1:])):
            raise ValueError("eps_grid must be strictly decreasing")
        if not all(0.0 < e < 1.0 for e in grid):
            raise ValueError("every eps must be positive and below the face length 1")
        object.__setattr__(self, "eps_grid", grid)
        if grid[-1] < MIN_SENSITIVITY_EPS:
            raise ValueError(
                f"eps {grid[-1]:g} is below {MIN_SENSITIVITY_EPS:g}: the corner sweep "
                f"would need {self.nodes_per_face(grid[-1])} nodes per face")

    def nodes_per_face(self, eps: float) -> int:
        """Corner-sweep nodes per face; grows like 1/eps so the corner layers stay resolved."""
        return max(self.quad_resolution // 2, int(24.0 / eps))


def _ball_averages(config: SensitivityConfig, h: Callable, pts: np.ndarray, eps: float,
                   w: float, offsets: np.ndarray, work: np.ndarray,
                   flags: np.ndarray) -> np.ndarray:
    """Ball averages at the chart points pts (B, 2), N = offsets.size midpoints
    s0 - w + offsets along the square.

    The circle factor is integrated exactly: the ball's slice at square
    chord c has circle arc width 4 r arcsin(sqrt(eps^2 - c^2) / 2r).  Row b
    of every array belongs to pts[b]; the arithmetic per row is that of a
    single point, so each value does not depend on the block.  Every
    per-node array is written into the rows of ``work`` (4 x at least B N
    float64) and ``flags`` (at least B N bools), so that a block allocates
    only what h returns.
    """
    r = config.m2_radius
    shape, size = (len(pts), offsets.size), len(pts) * offsets.size
    s, theta1, x, y = (row[:size].reshape(shape) for row in work)
    flag = flags[:size].reshape(shape)
    t1, t2 = pts[:, :1], pts[:, 1:]
    s0 = np.mod(2.0 * t1 / math.pi, 4.0)
    np.add(s0, offsets, out=s)
    s -= w
    # s lies in [-2, 6): wrap it into [0, 4] as np.mod(s, 4) would
    np.subtract(s, 4.0, out=s, where=np.greater_equal(s, 4.0, out=flag))
    np.add(s, 4.0, out=s, where=np.less(s, 0.0, out=flag))
    np.multiply(s, math.pi, out=theta1)
    theta1 /= 2.0
    # the chart round trip of square_boundary_point; theta1 <= 2 pi, and
    # the only wrapped angle, 2 pi, maps to the same corner (0, 0)
    np.multiply(2.0, theta1, out=s)
    s /= math.pi
    _boundary_xy(s, x, y, tmp=s)
    pb = square_boundary_point(s0 * math.pi / 2.0)
    x -= pb[..., 0]
    y -= pb[..., 1]
    # the chord c1 = |(x, y)| into x, then the arc width into y
    x *= x
    y *= y
    x += y
    c1 = np.sqrt(x, out=x)
    width = np.multiply(c1, c1, out=y)
    np.subtract(eps * eps, width, out=width)
    np.maximum(width, 0.0, out=width)
    np.sqrt(width, out=width)
    width /= 2.0 * r
    np.minimum(width, 1.0, out=width)
    np.arcsin(width, out=width)
    np.multiply(4.0 * r, width, out=width)
    np.minimum(width, 2.0 * math.pi * r, out=width)
    diff = np.subtract(h(t1, t2), h(theta1, t2), out=x)
    diff *= width
    return np.sum(diff, axis=1) * (2.0 * w / offsets.size) / eps ** 4


def sensitivity_operator(config: SensitivityConfig, h: Callable, z0, eps: float,
                         rtol: float = 1e-3, atol: float = 1e-9) -> np.ndarray:
    """Ball-average operator at z0 on M = boundary(square) x circle(r).

    Computes (1/eps^4) int over the ambient eps-ball of (h(z0) - h(z)),
    with the product arc-length measure.  ``h`` takes chart angles
    (theta1, theta2) as broadcasting arrays and must not depend on
    theta2: the circle factor is integrated exactly and only the square
    factor is discretized, by the midpoint rule.  ``z0`` is one finite
    chart point or an (N, 2) array of them; the result has one value per
    point.  Each point's value is accepted once doubling its resolution
    changes it by less than ``rtol`` relatively (or ``atol``) within
    MAX_QUAD_DOUBLINGS doublings; if any point is still moving,
    QuadratureNotConverged is raised.  The points are evaluated in blocks
    of about QUAD_BLOCK_ELEMENTS nodes, in the calling thread; every value
    is bit for bit the value of a call with that point alone, and the
    blocks' work buffers are freed before the call returns.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be positive and below the face length 1")
    if not (math.isfinite(rtol) and rtol >= 0.0 and math.isfinite(atol) and atol >= 0.0):
        raise ValueError(f"rtol and atol must be finite and non-negative, got {rtol!r} and {atol!r}")
    batch = np.atleast_2d(np.asarray(z0, dtype=float))
    if batch.ndim != 2 or batch.shape[1] != 2:
        raise ValueError("z0 must be one chart point (theta1, theta2) or an (N, 2) array")
    if not np.all(np.isfinite(batch)):
        raise ValueError("every z0 coordinate must be finite")
    # the half-width of the node window around each point
    w = min(2.0, 1.5 * eps)

    def values(idx: np.ndarray, n_nodes: int) -> np.ndarray:
        offsets = (np.arange(n_nodes) + 0.5) / n_nodes * 2.0 * w
        step = max(1, QUAD_BLOCK_ELEMENTS // n_nodes)
        work = np.empty((4, min(step, idx.size) * n_nodes))
        flags = np.empty(work.shape[1], dtype=bool)
        out = np.empty(idx.size)
        for lo in range(0, idx.size, step):
            out[lo:lo + step] = _ball_averages(config, h, batch[idx[lo:lo + step]], eps, w,
                                               offsets, work, flags)
        return out

    n = max(64, config.quad_resolution)
    todo = np.arange(len(batch))
    prev = values(todo, n)
    result = np.empty(len(batch))
    for _ in range(MAX_QUAD_DOUBLINGS):
        if not todo.size:
            break
        n *= 2
        cur = values(todo, n)
        done = np.abs(cur - prev) <= np.maximum(
            rtol * np.maximum(np.abs(cur), np.abs(prev)), atol)
        result[todo[done]] = cur[done]
        todo, prev = todo[~done], cur[~done]
    if todo.size:
        raise QuadratureNotConverged(
            f"ball-average quadrature still moving at {todo.size} of {len(batch)} points "
            f"after {MAX_QUAD_DOUBLINGS} doublings at eps={eps}")
    return result


def corner_defect_profile(m: int, t: float) -> float:
    """Radial profile whose absolute integral gives the corner L1 defect.

    Defined for t in [0, 1] as the difference between the full half-disc
    moment and the corner-shadow moment; vanishes at both endpoints.  In
    closed form h_m(t) = -c_m t (1 - t^2)^(m/2), with
    c_m = sqrt(pi) Gamma((m+1)/2) / (2 Gamma(m/2 + 1)) taken by Wallis'
    recursion c_m = c_(m-2) (m-1)/m from the exact c_1 = 1 and c_2 = pi/4.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    c = 1.0 if m % 2 else math.pi / 4.0
    for k in range(m, 2, -2):
        c *= (k - 1) / k
    return -c * t * (1.0 - t * t) ** (m / 2.0)


def corner_defect_l1_limit(config: SensitivityConfig, m: int) -> float:
    """Limit of the L1 deviation of the ball-average operator from (sigma/2) Laplacian.

    Equals 2 pi (|sin a| + |cos a|) * Vol(M2) * Vol(B^(m-1)) * int_0^1 |h_m|,
    with Vol(M2) = 2 pi r for the circle factor and int_0^1 |h_m| = c_m / (m + 2).
    As Vol(B^(m-1)) c_m = Vol(B^m) / 2, that is
    2 pi (|sin a| + |cos a|) * 2 pi r * Vol(B^m) / (2 (m + 2)), which is
    pi^3 / 2 at m = 2, a = 0 and r = 1.  Strictly positive.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")
    a = config.alpha
    return (2.0 * math.pi * (abs(math.sin(a)) + abs(math.cos(a)))
            * (2.0 * math.pi * config.m2_radius) * ball_volume(m) / (2 * (m + 2)))


# ---------------------------------------------------------------------------
# Dyadic radial profile with dense slope jumps
# ---------------------------------------------------------------------------

def geometric_theta(ratio: float = 0.5) -> Callable[[int], float]:
    """The default summable coefficient sequence l -> ratio^l."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    return lambda l: ratio ** l


@dataclass(frozen=True)
class DyadicProfile:
    """Values of the inductive bump function on the level-n dyadic grid.

    ``alpha`` has 2^level + 1 entries for the points k / 2^level; levels
    below are exact subsamples.  ``theta_values[i]`` is the coefficient
    used at refinement level i + 2, and ``theta_sum`` their partial sum
    (it bounds every level up to ``level``).
    """

    level: int
    alpha: np.ndarray
    theta_values: np.ndarray
    theta_sum: float

    def grid(self) -> np.ndarray:
        return np.arange(2 ** self.level + 1) / 2.0 ** self.level


def _bump_recursion(theta: Callable[[int], object], level: int,
                    number: Callable) -> tuple[np.ndarray, np.ndarray]:
    """(theta values for levels 2..level, bump values on the level grid).

    Level 0 is (0, 0); level 1 pins the center to 1; each later level keeps
    earlier values and inserts the new quarter points as fixed convex
    combinations of their three even neighbors, weighted by theta(level).
    All arithmetic is that of ``number``: float64 arrays for float, object
    arrays for Fraction.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    if level > MAX_DYADIC_LEVEL:
        raise LevelTooDeep(f"level {level} exceeds the guard {MAX_DYADIC_LEVEL}")
    thetas = np.array([number(theta(l)) for l in range(2, level + 1)])
    if np.any(thetas <= 0):
        raise ValueError("theta(l) must be positive")
    a = np.array([number(0), number(1), number(0)])
    for n, th in enumerate(thetas, start=2):
        prev = a
        a = np.empty(2 ** n + 1, dtype=prev.dtype)
        a[::2] = prev
        # new points 4k-3 and 4k-1 sit between the even neighbors 2k-2 and 2k
        left, mid, right = prev[:-1:2], prev[1::2], prev[2::2]
        a[1::4] = th / 4 * right + (1 - th) / 2 * mid + (2 + th) / 4 * left
        a[3::4] = th / 4 * left + (1 - th) / 2 * mid + (2 + th) / 4 * right
    return thetas, a


def _slopes_and_jumps(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slope per grid interval and its jump at each grid point (periodic)."""
    d = (alpha[1:] - alpha[:-1]) * (alpha.size - 1)
    return d, d - np.roll(d, 1)


def dyadic_profile(theta: Callable[[int], float], level: int) -> DyadicProfile:
    """Fill the bump values up to ``level`` by the two midpoint recursions."""
    thetas, a = _bump_recursion(theta, level, float)
    return DyadicProfile(level=level, alpha=a, theta_values=thetas,
                         theta_sum=float(thetas.sum()))


def dyadic_profile_exact(theta: Callable[[int], object], level: int) -> list[Fraction]:
    """Exact-rational version of the bump recursion.

    The jumps at deep levels shrink like the product of the theta values
    and fall below double rounding, so statements about their sign or
    non-vanishing need exact arithmetic.  ``theta(l)`` must be convertible
    to Fraction (dyadic floats such as 2**-l convert exactly).
    """
    return list(_bump_recursion(theta, level, Fraction)[1])


def dyadic_slopes_exact(alpha: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Exact slopes and jumps (periodic convention) for exact bump values."""
    d, e = _slopes_and_jumps(np.array(alpha, dtype=object))
    return list(d), list(e)


def level_alpha(profile: DyadicProfile, level: int) -> np.ndarray:
    """Values on a coarser dyadic grid (exact subsample of the profile)."""
    if not 0 <= level <= profile.level:
        raise ValueError("level out of range")
    stride = 2 ** (profile.level - level)
    return profile.alpha[::stride]


@dataclass(frozen=True)
class SlopeData:
    """Per-interval slopes d, slope jumps e (periodic convention), and E = sum |e|."""

    level: int
    slopes: np.ndarray
    jumps: np.ndarray
    total_jump: float


def dyadic_slopes(profile: DyadicProfile, level: int | None = None) -> SlopeData:
    """Slopes of the piecewise-linear interpolant and their jumps at grid points.

    ``jumps[k] = slopes[k] - slopes[k-1]`` with the wrap-around convention
    ``slopes[-1] = slopes[last]``, matching the periodic extension.
    """
    n = profile.level if level is None else level
    d, e = _slopes_and_jumps(level_alpha(profile, n))
    return SlopeData(level=n, slopes=d, jumps=e, total_jump=float(np.abs(e).sum()))


def profile_function(profile: DyadicProfile, x, level: int | None = None) -> np.ndarray:
    """Piecewise-linear interpolant f_n evaluated elementwise at x in [0, 1] (periodic)."""
    n = profile.level if level is None else level
    a = level_alpha(profile, n)
    xv = np.mod(np.asarray(x, dtype=float), 1.0)
    return np.asarray(np.interp(xv, np.arange(2 ** n + 1) / 2.0 ** n, a))


def _speed_antiderivative(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Antiderivative of sqrt(w^2 + d^2) in w, for arrays and scalars alike.

    The log term vanishes where d = 0, and is taken at 1 there, since
    w + root is 0 for w <= 0.
    """
    root = np.sqrt(w * w + d * d)
    return 0.5 * w * root + 0.5 * d ** 2 * np.log(np.where(d != 0.0, w + root, 1.0))


def segment_arclength(alpha: np.ndarray, seg, frac) -> np.ndarray:
    """Exact arc length of the perturbed-circle curve over the first ``frac``
    in [0, 1] of each dyadic segment ``seg`` of the grid of ``alpha``.

    On a segment f has the constant slope d and the speed is sqrt(w^2 + d^2)
    with w = 2 pi (1 + f) linear in x.  A whole segment (frac = 1) ends at
    its breakpoint's w, a part at the w its slope reaches.
    """
    n_seg = alpha.size - 1
    a0, a1 = alpha[seg], alpha[seg + 1]
    d = (a1 - a0) * n_seg
    w0 = 2.0 * math.pi * (1.0 + a0)
    wx = np.where(frac == 1.0, 2.0 * math.pi * (1.0 + a1),
                  w0 + 2.0 * math.pi * d * frac / n_seg)
    flat = d == 0.0
    return np.where(flat, frac / n_seg * w0,
                    (_speed_antiderivative(wx, d) - _speed_antiderivative(w0, d))
                    / np.where(flat, 1.0, 2.0 * math.pi * d))


def _segment_lengths(alpha: np.ndarray) -> np.ndarray:
    """Exact arc length of each segment of the perturbed-circle curve."""
    return segment_arclength(alpha, np.arange(alpha.size - 1), 1.0)


@dataclass(frozen=True)
class SpeedConstantReport:
    value: float
    value_previous_level: float
    difference: float


def curve_speed_constant(profile: DyadicProfile) -> SpeedConstantReport:
    """Average speed of x -> (1 + f(x)) (cos 2 pi x, sin 2 pi x), per unit angle.

    Exact piecewise integral at the profile's level and at one level below;
    their difference estimates the remaining refinement error.
    """
    if profile.level < 4:
        raise ValueError("need level >= 4 for a meaningful convergence estimate")
    c_now = float(_segment_lengths(profile.alpha).sum()) / (2.0 * math.pi)
    c_prev = float(_segment_lengths(level_alpha(profile, profile.level - 1)).sum()) / (2.0 * math.pi)
    return SpeedConstantReport(value=c_now, value_previous_level=c_prev,
                               difference=c_now - c_prev)


def curve_arclength_table(alpha: np.ndarray) -> np.ndarray:
    """Cumulative arc length at the dyadic breakpoints (leading zero included)."""
    return np.concatenate([[0.0], np.cumsum(_segment_lengths(alpha))])


def singular_embedding(profile: DyadicProfile, m2_radius: float, x, y) -> np.ndarray:
    """Embed (x, y) into R^4: perturbed circle times a radius-r circle."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    radial = 1.0 + profile_function(profile, xv)
    out = np.stack([
        radial * np.cos(2.0 * math.pi * xv),
        radial * np.sin(2.0 * math.pi * xv),
        m2_radius * np.cos(yv),
        m2_radius * np.sin(yv),
    ], axis=-1)
    return out
