import math

import numpy as np
import pytest

from lapeig import kernels as K

BUILTINS = [K.indicator_kernel(), K.triangular_kernel(1.0), K.truncated_gaussian_kernel()]
BUILTIN_IDS = ["indicator", "triangular:1", "gauss"]


def test_eta_indicator_values():
    ind = K.indicator_kernel()
    assert ind.eta(0.5) == 1.0
    assert ind.eta(1.0) == 1.0  # cutoff is strict only beyond the support
    assert ind.eta(1.5) == 0.0


def test_eta_triangular_value():
    tri = K.triangular_kernel(1.0)
    assert tri.eta(0.75) == pytest.approx(0.25, abs=1e-15)


def test_eta_vectorized():
    ind = K.indicator_kernel()
    out = ind.eta(np.array([0.0, 0.999, 1.0, 1.001]))
    assert np.array_equal(out, [1.0, 1.0, 1.0, 0.0])


def test_psi_indicator_values():
    ind = K.indicator_kernel()
    assert ind.psi(0.0) == pytest.approx(0.5, abs=1e-15)
    assert ind.psi(0.5) == pytest.approx(0.375, abs=1e-15)
    assert ind.psi(1.0) == 0.0
    assert ind.psi(2.0) == 0.0


def test_psi_custom_on_2d_array():
    # a custom profile integrates element by element, whatever the array's shape
    kernel = K.custom_kernel(np.ones_like, 0.0, support=2.0)
    t = np.array([[0.1, 0.7], [1.3, 2.5]])
    out = kernel.psi(t)
    assert out.shape == (2, 2)
    assert np.array_equal(out, [[kernel.psi(v) for v in row] for row in t])
    assert out[0, 0] > out[0, 1] > out[1, 0] > 0.0 == out[1, 1]


@pytest.mark.parametrize("kernel", BUILTINS, ids=BUILTIN_IDS)
def test_psi_below_half_eta(kernel):
    t = np.linspace(0.0, 1.0, 513)
    assert np.all(kernel.psi(t) <= kernel.eta(t) / 2.0 + 1e-12)


@pytest.mark.parametrize("kernel", BUILTINS, ids=BUILTIN_IDS)
@pytest.mark.parametrize("factor", [0.5, 0.75, 1.5])
def test_stretched_psi_closed_form_matches_quadrature(kernel, factor):
    # psi(factor * t) / factor^2 against the quadrature every custom profile
    # without a closed form takes, on a grid past the stretched support
    from scipy.integrate import quad
    stretched = kernel.stretched(factor)
    assert stretched.psi_fn is not None
    t = np.linspace(0.0, 1.2 * stretched.support, 61)
    ref = [quad(lambda s: float(stretched.eta(s)) * s, v, stretched.support,
                epsabs=1e-13, limit=200)[0] if v < stretched.support else 0.0 for v in t]
    assert np.max(np.abs(stretched.psi(t) - ref)) <= 1e-10
    # and it keeps the argument's shape, as the quadrature does
    assert stretched.psi(t.reshape(1, -1)).shape == (1, 61)


@pytest.mark.parametrize("kernel", BUILTINS, ids=BUILTIN_IDS)
def test_psi_matches_quadrature(kernel):
    from scipy.integrate import quad
    for t in (0.0, 0.3, 0.8):
        ref, _ = quad(lambda s: float(kernel.eta(s)) * s, t, 1.0, epsabs=1e-12)
        assert kernel.psi(t) == pytest.approx(ref, abs=1e-9)


def test_sigma_eta_exact_values():
    ind = K.indicator_kernel()
    assert K.sigma_eta(ind, 1) == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert K.sigma_eta(ind, 2) == pytest.approx(math.pi / 4.0, abs=1e-10)
    assert K.sigma_eta(K.triangular_kernel(1.0), 1) == pytest.approx(1.0 / 6.0, abs=1e-10)


def test_sigma_tilde_exact_values():
    ind = K.indicator_kernel()
    assert K.sigma_tilde_eta(ind, 1) == pytest.approx(2.0, abs=1e-10)
    assert K.sigma_tilde_eta(ind, 2) == pytest.approx(math.pi, abs=1e-10)
    assert K.sigma_tilde_eta(K.triangular_kernel(1.0), 2) == pytest.approx(
        math.pi / 3.0, abs=1e-10)


# the built-ins and each stretched by 0.5, 0.75 and 1.5, whose moments are
# the base's closed form scaled by 1 / factor^(p+1)
WITH_STRETCHED = BUILTINS + [k.stretched(f) for k in BUILTINS for f in (0.5, 0.75, 1.5)]
WITH_STRETCHED_IDS = BUILTIN_IDS + [f"{i}*{f:g}" for i in BUILTIN_IDS for f in (0.5, 0.75, 1.5)]


@pytest.mark.parametrize("kernel", WITH_STRETCHED, ids=WITH_STRETCHED_IDS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_closed_form_matches_quadrature(kernel, m):
    assert K.sigma_eta(kernel, m, "closed") == pytest.approx(
        K.sigma_eta(kernel, m, "quadrature"), abs=1e-9)
    assert K.sigma_tilde_eta(kernel, m, "closed") == pytest.approx(
        K.sigma_tilde_eta(kernel, m, "quadrature"), abs=1e-9)


def test_custom_profile_moments_come_from_quadrature():
    # a wrapped callable has no closed form, and neither has its stretch
    ones, ind = K.custom_kernel(np.ones_like, 0.0), K.indicator_kernel()
    for kernel, same in ((ones, ind), (ones.stretched(0.5), ind.stretched(0.5))):
        with pytest.raises(ValueError):
            K.sigma_eta(kernel, 1, "closed")
        assert K.sigma_eta(kernel, 2) == pytest.approx(K.sigma_eta(same, 2), abs=1e-12)


@pytest.mark.parametrize("kernel", BUILTINS, ids=BUILTIN_IDS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_rescaling_invariance(kernel, m):
    # eta(3t/4) at scale 3 eps/4 leaves the normalization product unchanged
    stretched = kernel.stretched(0.75)
    eps = 0.37
    lhs = K.sigma_eta(kernel, m) * eps ** (m + 2)
    rhs = K.sigma_eta(stretched, m) * (0.75 * eps) ** (m + 2)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sigma_ordering(m):
    for kernel in BUILTINS:
        consts = K.kernel_constants(kernel, m)
        assert 0.0 < consts.sigma_eta <= consts.sigma_tilde_eta


def test_sphere_volume():
    assert K.sphere_volume(1) == pytest.approx(2.0, abs=1e-12)
    assert K.sphere_volume(2) == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert K.sphere_volume(3) == pytest.approx(4.0 * math.pi, abs=1e-12)
    with pytest.raises(ValueError):
        K.sphere_volume(11)


def test_validate_builtins_pass():
    for kernel in BUILTINS:
        report = K.validate_kernel(kernel)
        assert report.ok, report.violations


def test_validate_increasing_profile():
    bad = K.custom_kernel(lambda t: np.minimum(t, 1.0), lipschitz_bound=1.0)
    report = K.validate_kernel(bad)
    assert K.VIOLATES_MONOTONICITY in report.kinds()


def test_validate_wide_support():
    bad = K.custom_kernel(lambda t: np.ones_like(t), lipschitz_bound=0.0, support=2.0)
    report = K.validate_kernel(bad)
    assert K.VIOLATES_SUPPORT in report.kinds()


def test_validate_positivity_at_34():
    # the second reaches zero at t = 2/3, inside 3/4 of its own support 2/3
    for bad in (K.custom_kernel(lambda t: np.maximum(1.0 - 2.0 * t, 0.0), lipschitz_bound=2.0),
                K.triangular_kernel(1.0).stretched(1.5)):
        report = K.validate_kernel(bad)
        assert K.VIOLATES_POSITIVITY_AT_34 in report.kinds()


def test_validate_lipschitz():
    bad = K.custom_kernel(lambda t: np.where(t < 0.5, 1.0, 0.4), lipschitz_bound=0.1)
    report = K.validate_kernel(bad)
    assert K.VIOLATES_LIPSCHITZ in report.kinds()


def test_triangular_slope_guard():
    with pytest.raises(ValueError):
        K.triangular_kernel(4.0 / 3.0)
    with pytest.raises(ValueError):
        K.triangular_kernel(0.0)


def test_parse_kernel():
    # each spec gives the profile of that label: 1, 1 - slope * t and exp(-t^2)
    t = np.linspace(0.0, 1.0, 9)
    ind, tri, gauss = (K.parse_kernel(s) for s in ("indicator", "triangular:0.5", "gauss"))
    assert (ind.label, tri.label, gauss.label) == ("indicator", "triangular:0.5", "gauss")
    assert np.array_equal(ind.eta(t), np.ones_like(t))
    assert np.array_equal(tri.eta(t), 1.0 - 0.5 * t)
    assert np.array_equal(gauss.eta(t), np.exp(-t * t))
    for slope in (0.5, 1.0 / 3.0, 1.2):  # the label is the spec the kernel came from
        kernel = K.triangular_kernel(slope)
        assert K.parse_kernel(kernel.label) == kernel
        assert hash(K.parse_kernel(kernel.label)) == hash(kernel)
    with pytest.raises(ValueError):
        K.parse_kernel("boxcar")
