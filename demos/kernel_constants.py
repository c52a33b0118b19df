"""Kernel profiles and the constants that calibrate graph eigenvalues.

Every admissible kernel is non-increasing, vanishes beyond 1, and stays
positive at 3/4.  Two moments of the profile do all the normalization
work: sigma_eta (order m+1) rescales the unnormalized spectrum and
sigma_tilde_eta (order m-1) enters the degree weights.
"""

import numpy as np

from lapeig import kernels as K

profiles = [K.indicator_kernel(), K.triangular_kernel(1.0),
            K.truncated_gaussian_kernel()]

print("profile values eta(t) at t = 0, 1/2, 3/4, 1, 5/4:")
ts = np.array([0.0, 0.5, 0.75, 1.0, 1.25])
for kernel in profiles:
    print(f"  {kernel.label:14s} {np.round(kernel.eta(ts), 4)}")

print("\nmoment constants per intrinsic dimension:")
for kernel in profiles:
    for m in (1, 2, 3):
        c = K.kernel_constants(kernel, m)
        print(f"  {kernel.label:14s} m={m}  sigma_eta={c.sigma_eta:.6f}  "
              f"sigma_tilde_eta={c.sigma_tilde_eta:.6f}")

print("\nclosed forms agree with quadrature:")
for kernel in profiles:
    gap = abs(K.sigma_eta(kernel, 2, "closed") - K.sigma_eta(kernel, 2, "quadrature"))
    print(f"  {kernel.label:14s} |closed - quad| = {gap:.2e}")

print("\nvalidation catches broken profiles:")
increasing = K.custom_kernel(lambda t: np.minimum(t, 1.0), lipschitz_bound=1.0)
report = K.validate_kernel(increasing)
print(f"  increasing ramp -> ok={report.ok}, kinds={sorted(report.kinds())}")

print("\nscaling eta(3t/4) against eps -> 3eps/4 leaves the product invariant:")
ind = K.indicator_kernel()
stretched = ind.stretched(0.75)
eps = 0.3
lhs = K.sigma_eta(ind, 1) * eps ** 3
rhs = K.sigma_eta(stretched, 1) * (0.75 * eps) ** 3
print(f"  sigma*eps^3: {lhs:.10f} vs {rhs:.10f}")
