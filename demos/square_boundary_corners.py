"""The spectral pipeline survives corners.

The square boundary has four genuine singularities as a submanifold of
the plane, yet it is intrinsically a circle of circumference four, so its
spectrum is known in closed form.  The graph eigenvalues converge to it
at the same scale as on the smooth circle; eigenvectors align with the
first nontrivial block too.
"""

import math

import numpy as np

from lapeig import graph as G
from lapeig import harness as H
from lapeig import kernels as K
from lapeig import manifolds as M
from lapeig import spectral as S

target = 0.25 * (math.pi / 2.0) ** 2
print(f"first nontrivial eigenvalue of the weighted operator: {target:.5f}")

config = H.ExperimentConfig(manifold="square", n_grid=(1024, 2048, 4096), trials=6,
                            k_max=2, master_seed=11)
report = H.run_convergence(config)
for n, (median, _) in sorted(report.medians().items()):
    print(f"  n={n:5d}: median rel error {median:.4f}")

print("\none cloud in detail (n = 4096):")
model = M.make_manifold("square")
cloud = M.sample_iid(model, 4096, seed=5)
eps = G.epsilon_schedule(4096, 1)
graph = G.build_graph(cloud, K.indicator_kernel(), eps)
print(f"  eps={eps:.4f}, components={G.connectivity_report(graph).components}")
_, rescaled = S.graph_spectrum(graph, 4, S.MODE_UNNORMALIZED, K.indicator_kernel(), 1)
targets = M.analytic_spectrum(model, "weighted", 4)
for k in range(5):
    print(f"  k={k}: rescaled={rescaled[k]:.5f} target={targets[k]:.5f}")
