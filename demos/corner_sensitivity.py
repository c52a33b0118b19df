"""Why the pipeline compares spectra, not pointwise operator values.

The ball-average operator approximates half of sigma times the Laplacian
at smooth points, with the defect vanishing quadratically in eps.  Within
eps of a corner the defect instead grows like 1/eps, and its L1 mass over
the manifold settles at an explicit positive limit: pointwise (and every
L^p) approximation fails even though the spectra converge.
"""

import math

import numpy as np

from lapeig import harness as H
from lapeig import kernels as K
from lapeig import singular as SG

config = SG.SensitivityConfig(alpha=0.0, m2_radius=1.0,
                              eps_grid=(0.2, 0.1, 0.05, 0.025),
                              quad_resolution=256)
sigma = K.sigma_eta(K.indicator_kernel(), 2)
h = lambda t1, t2: np.sin(np.asarray(t1, dtype=float))

print("smooth point (face midpoint): defect shrinks ~4x per eps halving")
mids = H.face_midpoint_deviations(config)
for eps, dev in mids:
    print(f"  eps={eps:5.3f}: |defect| = {dev:.6f}")

print("\nat arc distance eps/4, eps/2, 3 eps/4 and 3 eps/2 from the corner (0, 0):")
print("the defect grows like 1/eps inside the corner layer and fades outside it")
layer = np.array([0.25, 0.5, 0.75, 1.5])
for eps in config.eps_grid:
    theta0 = layer * eps * math.pi / 2.0
    vals = SG.sensitivity_operator(config, h, np.stack([theta0, 0.0 * theta0], axis=1),
                                   eps, rtol=1e-5)
    want = 0.5 * sigma * (math.pi / 2.0) ** 2 * np.sin(theta0)
    defects = "  ".join(f"{d:7.3f}" for d in np.abs(vals - want))
    print(f"  eps={eps:5.3f}: |defect| = {defects}")

print("\nL1 deviation over the whole product manifold vs its limit:")
rows = H.corner_l1_sweep(config)
for row in rows:
    print(f"  eps={row.eps:5.3f}: L1 = {row.l1_deviation:.4f} "
          f"(limit {row.limit_rhs:.4f})")
print("the limit is 2 pi (|sin a|+|cos a|) Vol(M2) Vol(B^1) int |h_2|"
      f" = pi^3/2 = {math.pi ** 3 / 2:.4f} at a = 0")
