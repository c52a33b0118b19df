"""Reference manifolds: sampling, metric sanity, closed-form spectra.

Chord never exceeds intrinsic distance, the reverse holds up to each
model's bi-Lipschitz constant, and the samplers hit the declared density.
"""

import math

import numpy as np

from lapeig import manifolds as M

for name in ("circle", "torus", "sphere", "square", "singular"):
    model = M.make_manifold(name, profile_level=6)
    cloud = M.sample_iid(model, 4000, seed=42)
    chord = np.linalg.norm(cloud.ambient[:2000] - cloud.ambient[2000:], axis=-1)
    intr = model.pair_distances(cloud.params[:2000], cloud.params[2000:])
    ratio = np.max(intr / np.maximum(chord, 1e-12))
    print(f"{name:9s} m={model.m} d={model.d} vol={model.volume():8.4f} "
          f"mass={M.total_mass(model):.6f} max intr/chord={ratio:.3f} "
          f"(bound {model.bilipschitz_bound:.3f})")

print("\ncircle sampler matches the cosine density:")
beta = 0.5
cloud = M.sample_iid(M.UnitCircle(M.cosine_density(beta)), 100_000, seed=3)
print(f"  mean cos(theta) = {np.mean(np.cos(cloud.params)):.4f} "
      f"(continuum value beta/2 = {beta / 2})")

print("\nclosed-form spectra (first five, normalized operator):")
for name in ("circle", "square"):
    vals = M.analytic_spectrum(M.make_manifold(name), "normalized", 4)
    print(f"  {name:7s} {np.round(vals, 5)}")

print("\nfinite-difference oracle for the weighted circle operator:")
oracle = M.oracle_spectrum_circle_weighted(M.cosine_density(beta), 4096, 4)
print(f"  beta={beta}: {np.round(oracle, 6)}")
flat = M.oracle_spectrum_circle_weighted(M.constant_density(), 4096, 2)
print(f"  constant:  {np.round(flat, 6)}  (k^2/(2 pi) = {1 / (2 * math.pi):.6f})")
