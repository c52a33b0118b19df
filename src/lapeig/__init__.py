"""Spectral approximation of weighted manifold Laplacians by neighborhood graphs.

Pipeline: sample points from a density on a reference manifold, build the
eps-neighborhood graph Laplacian, solve its plain or degree-weighted
eigenproblem, rescale, and compare against the continuum spectrum.  The
singular test geometries (square boundary, densely non-smooth surface)
probe the regime where pointwise Laplacian approximation fails but the
spectra still converge.
"""

from .errors import LapeigError
from .graph import build_graph, connectivity_report, epsilon_schedule, quadratic_form
from .harness import (ExperimentConfig, fit_rate, run_convergence,
                      run_eigvec_alignment, splitmix64)
from .interp import (InterpolationContext, dirichlet_energy_1d, lambda_eps,
                     restrict, theta_eps, transport_map)
from .kernels import (KernelProfile, indicator_kernel, kernel_constants,
                      parse_kernel, sigma_eta, sigma_tilde_eta,
                      triangular_kernel, truncated_gaussian_kernel,
                      validate_kernel)
from .manifolds import (CliffordTorus, DensitySpec, PointCloud, SingularSurface,
                        SquareBoundary, UnitCircle, UnitSphere, ambient_cloud,
                        analytic_spectrum, constant_density, cosine_density,
                        make_manifold, oracle_spectrum_circle_weighted,
                        sample_iid)
from .singular import (DyadicProfile, SensitivityConfig, corner_defect_l1_limit,
                       corner_defect_profile, curve_speed_constant, dyadic_profile,
                       dyadic_slopes, geometric_theta, sensitivity_operator,
                       singular_embedding, square_boundary_point)
from .spectral import (AlignmentReport, Spectrum, eigenvalue_comparison_check,
                       eigenvector_comparison, normalized_spectrum,
                       rescale_normalized, rescale_unnormalized,
                       subspace_alignment, unnormalized_spectrum)

__version__ = "0.1.0"
