"""Kernel profiles and their moment constants.

A kernel is a non-increasing function ``eta`` on [0, inf), zero past t = 1,
positive at t = 3/4 and Lipschitz on [0, 1]: validate_kernel checks each on
the same unit interval, whatever the profile's own support.  Edge weights of
the neighborhood graph are ``eta(dist / eps)``, and the two moment constants
``sigma_eta`` and ``sigma_tilde_eta`` normalize graph eigenvalues to
manifold eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

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
    """A radial profile eta with its support, Lipschitz certificate and closed forms.

    ``profile_fn`` gives eta on [0, support], as an array or a constant that
    broadcasts; the value at the support edge is the profile value (the
    cutoff is strict only beyond it).  ``psi_fn`` gives the tail integral
    psi on [0, support] and ``moment_fn(p)`` the moment
    int_0^support eta(t) t^p dt, where the profile has them in closed form;
    adaptive quadrature stands in where it has not.  The label identifies
    the profile: equality and hashing read label, support and Lipschitz
    bound only.
    """

    label: str
    support: float
    lipschitz_bound: float
    profile_fn: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)
    psi_fn: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False, repr=False)
    moment_fn: Callable[[int], float] | None = field(default=None, compare=False, repr=False)

    def eta(self, t) -> np.ndarray:
        """Evaluate eta(t) elementwise; exactly zero beyond the support."""
        t = np.asarray(t, dtype=float)
        return np.where(t <= self.support, self.profile_fn(t), 0.0)

    def psi(self, t) -> np.ndarray:
        """Tail integral psi(t) = int_t^inf eta(s) s ds, elementwise; zero beyond the support."""
        tc = np.minimum(np.maximum(np.asarray(t, dtype=float), 0.0), self.support)
        if self.psi_fn is not None:
            out = self.psi_fn(tc)
        else:
            # imported only where a quadrature runs: scipy.integrate loads scipy.optimize
            from scipy import integrate
            out = np.reshape([integrate.quad(lambda s: float(self.eta(s)) * s, ti, self.support,
                                             epsabs=1e-10, limit=200)[0]
                              for ti in tc.ravel()], tc.shape)
        return np.asarray(np.maximum(out, 0.0))

    def stretched(self, factor: float) -> "KernelProfile":
        """Profile t -> eta(factor * t), with support scaled by 1/factor.

        Its closed forms are this profile's: substituting u = factor * s,
        int_t^inf eta(factor * s) s ds = psi(factor * t) / factor^2 and
        int eta(factor * t) t^p dt = moment_p / factor^(p+1).
        """
        moment = self.moment_fn
        return KernelProfile(
            label=f"{self.label}*stretched:{float(factor)!r}",
            support=self.support / factor,
            lipschitz_bound=self.lipschitz_bound * factor,
            profile_fn=lambda t: self.eta(factor * t),
            psi_fn=lambda t: self.psi(factor * t) / factor ** 2,
            moment_fn=None if moment is None else lambda p: moment(p) / factor ** (p + 1),
        )


def indicator_kernel() -> KernelProfile:
    """eta = 1 on [0, 1], 0 beyond."""
    return KernelProfile(label="indicator", support=1.0, lipschitz_bound=0.0,
                         profile_fn=lambda t: 1.0,
                         psi_fn=lambda t: 0.5 * (1.0 - np.square(t)),
                         moment_fn=lambda p: 1.0 / (p + 1))


def triangular_kernel(slope: float) -> KernelProfile:
    """eta(t) = max(1 - slope*t, 0) on [0, 1].  Requires slope < 4/3 so eta(3/4) > 0."""
    if not 0.0 < slope < 4.0 / 3.0:
        raise ValueError("triangular slope must lie in (0, 4/3) to keep eta(3/4) positive")
    # eta reaches 0 at te = 1/slope, or is cut at the support 1 first
    te = min(1.0, 1.0 / slope)
    g = lambda s: 0.5 * s * s - slope * s ** 3 / 3.0
    return KernelProfile(
        label=f"triangular:{float(slope)!r}", support=1.0, lipschitz_bound=slope,
        profile_fn=lambda t: np.maximum(1.0 - slope * t, 0.0),
        psi_fn=lambda t: np.where(t < te, g(te) - g(np.minimum(t, te)), 0.0),
        moment_fn=lambda p: te ** (p + 1) / (p + 1) - slope * te ** (p + 2) / (p + 2))


def truncated_gaussian_kernel() -> KernelProfile:
    """eta(t) = exp(-t^2) on [0, 1], 0 beyond.

    The jump at t = 1 is admissible: the Lipschitz requirement only covers
    [0, 1], where |eta'| <= sqrt(2/e).
    """
    return KernelProfile(
        label="gauss", support=1.0, lipschitz_bound=math.sqrt(2.0 / math.e),
        profile_fn=lambda t: np.exp(-np.square(t)),
        psi_fn=lambda t: 0.5 * (np.exp(-np.square(t)) - math.exp(-1.0)),
        moment_fn=lambda p: (0.5 * math.gamma((p + 1) / 2.0)
                             * float(special.gammainc((p + 1) / 2.0, 1.0))))


def custom_kernel(fn, lipschitz_bound: float, support: float = 1.0,
                  label: str = "custom") -> KernelProfile:
    """Wrap a raw callable as a profile (used by validation tests)."""
    return KernelProfile(label=label, support=support, lipschitz_bound=lipschitz_bound,
                         profile_fn=lambda t: np.asarray(fn(t), dtype=float))


def parse_kernel(text: str) -> KernelProfile:
    """Parse the CLI kernel syntax, indicator | triangular:<c> | gauss, each
    optionally followed by *stretched:<f>: every label a built-in or its
    ``stretched`` writes."""
    base, sep, factor = text.rpartition("*stretched:")
    if sep:
        f = float(factor)
        if not (math.isfinite(f) and f > 0.0):
            raise ValueError(f"kernel stretch factor must be finite and positive, got {factor!r}")
        return parse_kernel(base).stretched(f)
    if text == "indicator":
        return indicator_kernel()
    if text == "gauss":
        return truncated_gaussian_kernel()
    if text.startswith("triangular:"):
        return triangular_kernel(float(text.split(":", 1)[1]))
    raise ValueError(f"unknown kernel spec {text!r}; use indicator, triangular:<c> or gauss")


def _moment(kernel: KernelProfile, power: int, method: str) -> float:
    """int_0^support eta(t) t^power dt: the profile's closed form where it has
    one, adaptive quadrature otherwise.  method "quadrature" forces the
    quadrature, and "closed" refuses a profile with no closed form."""
    if method != "quadrature" and kernel.moment_fn is not None:
        return kernel.moment_fn(power)
    if method == "closed":
        raise ValueError(f"no closed-form moments for kernel {kernel.label!r}")
    from scipy import integrate
    val, _ = integrate.quad(lambda t: float(kernel.eta(t)) * t ** power,
                            0.0, kernel.support, epsabs=1e-12, limit=400)
    return val


def sigma_eta(kernel: KernelProfile, m: int, method: str = "auto") -> float:
    """The order-(m+1) moment constant Vol(S^(m-1))/m * int eta(t) t^(m+1) dt."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return sphere_volume(m) / m * _moment(kernel, m + 1, method)


def sigma_tilde_eta(kernel: KernelProfile, m: int, method: str = "auto") -> float:
    """The order-(m-1) moment constant Vol(S^(m-1)) * int eta(t) t^(m-1) dt."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return sphere_volume(m) * _moment(kernel, m - 1, method)


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

    if kernel.eta(0.75) <= 0.0:
        violations.append(KernelViolation(
            VIOLATES_POSITIVITY_AT_34, 0.75, "eta(3/4) is not positive"))

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
