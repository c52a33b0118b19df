"""One call form per function: a scalar or a single point gives an ndarray.

The elementwise functions (eta, psi, the dyadic interpolant) give a 0-d
array for a scalar; the per-point ones (theta_eps, lambda_eps, the
ball-average operator) give one entry per point, so a single point gives
one entry.  The expected bits are the values these calls returned as
floats before, written as hex so that no decimal rounding hides a change.
"""

import numpy as np
import pytest

from lapeig import graph as G
from lapeig import interp as I
from lapeig import kernels as K
from lapeig import manifolds as M
from lapeig import singular as S


def _context(model, n):
    return I.InterpolationContext(cloud=M.sample_iid(model, n, 5), kernel=K.indicator_kernel(),
                                  eps=G.epsilon_schedule(n, model.m))


def _eta():
    return K.triangular_kernel(1.2).eta(0.3)


def _psi():
    return K.truncated_gaussian_kernel().psi(0.4)


def _profile_function():
    return S.profile_function(S.dyadic_profile(S.geometric_theta(0.5), 8), 0.3)


def _theta_eps():
    return I.theta_eps(_context(M.UnitCircle(), 256), 0.3)


def _lambda_eps():
    ctx = _context(M.UnitSphere(), 512)
    return I.lambda_eps(ctx, np.cos(ctx.cloud.params[:, 0]), np.array([1.0, 0.5]))


def _sensitivity_operator():
    config = S.SensitivityConfig(alpha=0.0, m2_radius=1.0, eps_grid=(0.2, 0.1))
    return S.sensitivity_operator(config, lambda t1, t2: np.sin(t1), (0.7, 0.0), 0.1)


@pytest.mark.parametrize("call, shape, want", [
    (_eta, (), "0x1.47ae147ae147bp-1"),
    (_psi, (), "0x1.efe2fe4196d68p-3"),
    (_profile_function, (), "0x1.01803266cc666p-1"),
    (_theta_eps, (1,), "0x1.37f8ce7f65782p-5"),
    (_lambda_eps, (1,), "0x1.03ad462e4c294p-1"),
    (_sensitivity_operator, (1,), "0x1.3f4cca252e1aap-1"),
], ids=["eta", "psi", "profile_function", "theta_eps", "lambda_eps", "sensitivity_operator"])
def test_scalar_input_gives_array_with_unchanged_bits(call, shape, want):
    out = call()
    assert isinstance(out, np.ndarray)
    assert out.shape == shape
    assert out.tobytes() == np.full(shape, float.fromhex(want)).tobytes()
