"""A Lipschitz surface with slope jumps at every dyadic rational.

The radial bump is filled in level by level: each refinement inserts
quarter points as fixed convex combinations of their even neighbors,
weighted by a summable sequence theta.  Slopes stay uniformly bounded
while the slope jumps never die out, so the limit curve is Lipschitz yet
non-differentiable on a dense set.  Spun against a second circle it gives
a surface the graph pipeline still handles.  The kinks are extrinsic: the
surface is isometric to a flat torus of sides L (the curve's length) and
2 pi r, so its spectrum has a closed form to compare the graph against.
"""

from fractions import Fraction

import numpy as np

from lapeig import graph as G
from lapeig import kernels as K
from lapeig import manifolds as M
from lapeig import singular as SG
from lapeig import spectral as S

theta = SG.geometric_theta(0.5)
profile = SG.dyadic_profile(theta, 12)
print(f"levels filled: {profile.level}, sum theta = {profile.theta_sum:.6f}")

data = SG.dyadic_slopes(profile)
print(f"max |slope| = {np.max(np.abs(data.slopes)):.4f} "
      f"(bound 2 exp(sum theta) = {2 * np.exp(profile.theta_sum):.4f})")
print(f"total jump mass E_12 = {data.total_jump:.4f} "
      f"(bound 8 exp(4 sum theta) = {8 * np.exp(4 * profile.theta_sum):.4f})")

exact = SG.dyadic_profile_exact(lambda l: Fraction(1, 2 ** l), 12)
_, jumps = SG.dyadic_slopes_exact(exact)
smallest = min(abs(j) for j in jumps)
print(f"smallest |jump| at level 12 (exact rationals): {float(smallest):.3e} "
      "- nonzero at every dyadic point")

rep = SG.curve_speed_constant(profile)
print(f"\ncurve speed constant c = {rep.value:.6f} "
      f"(level-to-level change {rep.difference:.2e})")

model = M.SingularSurface(profile, m2_radius=1.0)
print(f"surface volume = {model.volume():.4f}")
cloud = M.sample_iid(model, 2048, seed=8)

# the schedule constant matters at desk scale: this surface has volume ~58,
# so the unit-constant scale sits below the connectivity threshold
for c in (1.0, 2.0):
    eps = G.epsilon_schedule(2048, 2, c)
    graph = G.build_graph(cloud, K.indicator_kernel(), eps)
    comps = G.connectivity_report(graph).components
    print(f"c={c}: eps={eps:.4f} -> {comps} component(s)")

_, rescaled = S.graph_spectrum(graph, 4, S.MODE_UNNORMALIZED, K.indicator_kernel(), 2)
target = M.analytic_spectrum(model, M.WEIGHTED, 4)
print("rescaled low spectrum against the flat-torus closed form (2 pi j / L)^2 + (k / r)^2,")
print("divided by the volume:")
print("  graph:      ", np.round(rescaled, 5))
print("  closed form:", np.round(target, 5))
print(f"  relative errors k=1..4: {np.round(np.abs(rescaled[1:] / target[1:] - 1), 3)}")
