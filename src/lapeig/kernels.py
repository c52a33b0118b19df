"""Kernel profiles and their moment constants.

A kernel is a non-increasing function ``eta`` on [0, inf) with compact
support, positive at 3/4 of its support and Lipschitz on [0, 1].  Edge
weights of the neighborhood graph are ``eta(dist / eps)``, and the two
moment constants ``sigma_eta`` and ``sigma_tilde_eta`` normalize graph
eigenvalues to manifold eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, special

MAX_SPHERE_DIM = 10
VALIDATION_GRID_SIZE = 1000


def sphere_volume(m: int) -> float:
    """Volume of the unit sphere S^(m-1) in R^m, by the gamma-function formula."""
    if not 1 <= m <= MAX_SPHERE_DIM:
        raise ValueError(f"intrinsic dimension m={m} outside supported range 1..{MAX_SPHERE_DIM}")
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


def ball_volume(k: int) -> float:
    """Volume of the unit ball in R^k (k = 0 gives 1)."""
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


@dataclass(frozen=True)
class KernelProfile:
    """A radial profile eta with its support and Lipschitz certificate.

    ``kind`` is one of "indicator", "triangular", "gauss" or "custom".
    Built-in profiles have support [0, 1]; the value at the support edge is
    the profile value (the cutoff is strict only beyond it).  A custom
    profile's tail integral psi comes from ``psi_fn`` where it has a closed
    form (a stretched profile), and from adaptive quadrature otherwise.
    """

    kind: str
    slope: float = 0.0
    support: float = 1.0
    lipschitz_bound: float = 0.0
    profile_fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    label: str = ""
    psi_fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def eta(self, t) -> np.ndarray:
        """Evaluate eta(t) elementwise; exactly zero beyond the support."""
        t = np.asarray(t, dtype=float)
        inside = t <= self.support
        if self.kind == "indicator":
            out = np.where(inside, 1.0, 0.0)
        elif self.kind == "triangular":
            out = np.where(inside, np.maximum(1.0 - self.slope * t, 0.0), 0.0)
        elif self.kind == "gauss":
            out = np.where(inside, np.exp(-np.square(t)), 0.0)
        elif self.kind == "custom":
            out = np.where(inside, self.profile_fn(t), 0.0)
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        return out

    def psi(self, t) -> np.ndarray:
        """Tail integral psi(t) = int_t^inf eta(s) s ds, elementwise; zero beyond the support."""
        t = np.asarray(t, dtype=float)
        tc = np.minimum(np.maximum(t, 0.0), self.support)
        if self.kind == "indicator":
            out = 0.5 * (1.0 - np.square(tc))
        elif self.kind == "triangular":
            te = min(1.0, 1.0 / self.slope) if self.slope > 0 else 1.0
            g = lambda s: 0.5 * s * s - self.slope * s ** 3 / 3.0
            out = np.where(tc < te, g(te) - g(np.minimum(tc, te)), 0.0)
        elif self.kind == "gauss":
            out = 0.5 * (np.exp(-np.square(tc)) - math.exp(-1.0))
        elif self.kind == "custom" and self.psi_fn is not None:
            out = self.psi_fn(tc)
        elif self.kind == "custom":
            flat = tc.ravel()
            vals = np.empty_like(flat)
            for i, ti in enumerate(flat):
                if ti >= self.support:
                    vals[i] = 0.0
                else:
                    vals[i], _ = integrate.quad(
                        lambda s: float(self.eta(s)) * s, ti, self.support,
                        epsabs=1e-10, limit=200)
            out = vals.reshape(tc.shape)
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        return np.asarray(np.maximum(out, 0.0))

    def stretched(self, factor: float) -> "KernelProfile":
        """Profile t -> eta(factor * t), with support scaled by 1/factor.

        Its psi is this profile's, in closed form: substituting u = factor * s,
        int_t^inf eta(factor * s) s ds = psi(factor * t) / factor^2.
        """
        base = self
        return KernelProfile(
            kind="custom",
            support=self.support / factor,
            lipschitz_bound=self.lipschitz_bound * factor,
            profile_fn=lambda t: base.eta(factor * t),
            label=f"{self.label or self.kind}*stretched:{factor:g}",
            psi_fn=lambda t: base.psi(factor * t) / factor ** 2,
        )


def indicator_kernel() -> KernelProfile:
    """eta = 1 on [0, 1], 0 beyond."""
    return KernelProfile(kind="indicator", lipschitz_bound=0.0, label="indicator")


def triangular_kernel(slope: float) -> KernelProfile:
    """eta(t) = max(1 - slope*t, 0) on [0, 1].  Requires slope < 4/3 so eta(3/4) > 0."""
    if not 0.0 < slope < 4.0 / 3.0:
        raise ValueError("triangular slope must lie in (0, 4/3) to keep eta(3/4) positive")
    return KernelProfile(kind="triangular", slope=slope, lipschitz_bound=slope,
                         label=f"triangular:{float(slope)!r}")


def truncated_gaussian_kernel() -> KernelProfile:
    """eta(t) = exp(-t^2) on [0, 1], 0 beyond.

    The jump at t = 1 is admissible: the Lipschitz requirement only covers
    [0, 1], where |eta'| <= sqrt(2/e).
    """
    return KernelProfile(kind="gauss", lipschitz_bound=math.sqrt(2.0 / math.e), label="gauss")


def custom_kernel(fn, lipschitz_bound: float, support: float = 1.0,
                  label: str = "custom") -> KernelProfile:
    """Wrap a raw callable as a profile (used by validation tests)."""
    return KernelProfile(kind="custom", support=support, lipschitz_bound=lipschitz_bound,
                         profile_fn=lambda t: np.asarray(fn(np.asarray(t, dtype=float)), dtype=float),
                         label=label)


def parse_kernel(text: str) -> KernelProfile:
    """Parse the CLI kernel syntax: indicator | triangular:<c> | gauss."""
    if text == "indicator":
        return indicator_kernel()
    if text == "gauss":
        return truncated_gaussian_kernel()
    if text.startswith("triangular:"):
        return triangular_kernel(float(text.split(":", 1)[1]))
    raise ValueError(f"unknown kernel spec {text!r}; use indicator, triangular:<c> or gauss")


def _moment(kernel: KernelProfile, power: int, method: str) -> float:
    """int_0^support eta(t) t^power dt, by closed form or adaptive quadrature."""
    if method == "closed":
        if kernel.kind == "indicator":
            return 1.0 / (power + 1)
        if kernel.kind == "triangular":
            te = min(1.0, 1.0 / kernel.slope)
            return te ** (power + 1) / (power + 1) - kernel.slope * te ** (power + 2) / (power + 2)
        if kernel.kind == "gauss":
            a = (power + 1) / 2.0
            return 0.5 * math.gamma(a) * float(special.gammainc(a, 1.0))
        raise ValueError(f"no closed-form moments for kernel kind {kernel.kind!r}")
    val, _ = integrate.quad(lambda t: float(kernel.eta(t)) * t ** power,
                            0.0, kernel.support, epsabs=1e-12, limit=400)
    return val


def _pick_method(kernel: KernelProfile, method: str) -> str:
    if method == "auto":
        return "closed" if kernel.kind in ("indicator", "triangular", "gauss") else "quadrature"
    return method


def sigma_eta(kernel: KernelProfile, m: int, method: str = "auto") -> float:
    """The order-(m+1) moment constant Vol(S^(m-1))/m * int eta(t) t^(m+1) dt."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return sphere_volume(m) / m * _moment(kernel, m + 1, _pick_method(kernel, method))


def sigma_tilde_eta(kernel: KernelProfile, m: int, method: str = "auto") -> float:
    """The order-(m-1) moment constant Vol(S^(m-1)) * int eta(t) t^(m-1) dt."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return sphere_volume(m) * _moment(kernel, m - 1, _pick_method(kernel, method))


@dataclass(frozen=True)
class KernelConstants:
    sigma_eta: float
    sigma_tilde_eta: float


def kernel_constants(kernel: KernelProfile, m: int) -> KernelConstants:
    return KernelConstants(sigma_eta=sigma_eta(kernel, m),
                           sigma_tilde_eta=sigma_tilde_eta(kernel, m))


VIOLATES_MONOTONICITY = "ViolatesMonotonicity"
VIOLATES_SUPPORT = "ViolatesSupport"
VIOLATES_POSITIVITY_AT_34 = "ViolatesPositivityAt34"
VIOLATES_LIPSCHITZ = "ViolatesLipschitz"


@dataclass(frozen=True)
class KernelViolation:
    kind: str
    at: float
    detail: str


@dataclass(frozen=True)
class KernelValidation:
    ok: bool
    violations: tuple[KernelViolation, ...]

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


def validate_kernel(kernel: KernelProfile) -> KernelValidation:
    """Check the profile invariants on a uniform grid of [0, 1.5] with
    VALIDATION_GRID_SIZE points.

    Reports the first violating point per invariant: non-increase,
    vanishing beyond 1, positivity at 3/4, and the declared Lipschitz
    bound on [0, 1].
    """
    grid = np.linspace(0.0, 1.5, VALIDATION_GRID_SIZE)
    vals = np.asarray(kernel.eta(grid), dtype=float)
    violations = []

    up = np.nonzero(np.diff(vals) > 1e-12)[0]
    if up.size:
        i = int(up[0])
        violations.append(KernelViolation(
            VIOLATES_MONOTONICITY, float(grid[i + 1]),
            f"eta rises from {vals[i]:.6g} to {vals[i + 1]:.6g}"))

    beyond = np.nonzero((grid > 1.0) & (vals > 0.0))[0]
    if beyond.size:
        i = int(beyond[0])
        violations.append(KernelViolation(
            VIOLATES_SUPPORT, float(grid[i]),
            f"eta({grid[i]:.6g}) = {vals[i]:.6g} past t = 1"))

    if kernel.eta(0.75 * kernel.support) <= 0.0:
        violations.append(KernelViolation(
            VIOLATES_POSITIVITY_AT_34, 0.75 * kernel.support, "eta(3/4) is not positive"))

    unit = grid <= 1.0
    gu, vu = grid[unit], vals[unit]
    step = np.diff(gu)
    bad = np.nonzero(np.abs(np.diff(vu)) > kernel.lipschitz_bound * step * (1 + 1e-9) + 1e-12)[0]
    if bad.size:
        i = int(bad[0])
        violations.append(KernelViolation(
            VIOLATES_LIPSCHITZ, float(gu[i + 1]),
            f"|delta eta| = {abs(vu[i + 1] - vu[i]):.6g} over step {step[i]:.6g} "
            f"exceeds bound {kernel.lipschitz_bound:.6g}"))

    return KernelValidation(ok=not violations, violations=tuple(violations))
