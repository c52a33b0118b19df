"""Exception types raised by the library."""


class LapeigError(Exception):
    """Base class for all library errors."""


class UnsupportedDensity(LapeigError):
    """A non-constant density was requested on a manifold without a sampler for it."""


class NoAnalyticSpectrum(LapeigError):
    """The model has no closed-form spectrum; use a numerical oracle instead."""


class GridTooSmall(LapeigError):
    """The requested discretization grid is below the supported minimum."""


class EmptyCloud(LapeigError):
    """Graph construction needs at least two points."""


class NonFiniteCloud(LapeigError):
    """A point cloud holds a NaN or infinite coordinate."""


class GraphTooLarge(LapeigError):
    """The graph, or a step of its construction, does not fit in memory."""


class DimensionMismatch(LapeigError):
    """Vector length does not match the graph size."""


class SolverFailure(LapeigError):
    """The eigenvalue solver failed: ARPACK raised an error (no convergence
    within the restart limit among them), or an eigenpair's residual is
    above the tolerance (1e-8 relative to 2 max diag of the solved matrix)."""


class DisconnectedGraph(LapeigError):
    """The graph has more than one component over the positive entries of K."""


class KTooLarge(LapeigError):
    """More eigenpairs requested than the matrix admits."""


class DegenerateBasis(LapeigError):
    """A basis passed to the alignment routines is numerically dependent."""


class SpanTooLarge(LapeigError):
    """Grid search over spans is only supported up to dimension three."""


class GapViolation(LapeigError):
    """The spectral gap does not dominate the estimated comparison errors."""


class FExceedsOne(LapeigError):
    """The combined eigenvector-comparison bound is not informative (F >= 1)."""


class UndefinedAtPoint(LapeigError):
    """The interpolation operator is undefined where the local mass vanishes."""


class CoverageGap(LapeigError):
    """A quadrature node has no sample point within the allowed distance."""


class UnsupportedDimension(LapeigError):
    """The operation only supports one-dimensional chart models."""


class QuadratureNotConverged(LapeigError):
    """Refinement did not bring the quadrature below its error target."""


class LevelTooDeep(LapeigError):
    """Dyadic refinement level exceeds the array-size guard."""


class InsufficientGrid(LapeigError):
    """Rate fitting needs at least three distinct sample sizes."""
