"""Exception hierarchy.

Every error raised by this package derives from FracspaceError so callers
can catch the whole family at the CLI boundary.
"""


class FracspaceError(Exception):
    """Base class for all package errors."""


# ---- spectral models


class NonPositiveEigenvalue(FracspaceError):
    """An eigenvalue <= 0 was supplied; the operator must be positive."""


class NotOrthonormal(FracspaceError):
    """Basis Gram matrix deviates from the identity beyond tolerance."""


class DimensionMismatch(FracspaceError):
    """Vector or matrix dimensions are inconsistent with the model."""


class InvalidExponentOrder(FracspaceError):
    """Exponent pair (alpha, beta) violates beta >= alpha >= 0."""


# ---- K-functional / interpolation


class NonPositiveT(FracspaceError):
    """K-functional parameter t must be positive."""


class SingularSystem(FracspaceError):
    """A linear system that should be SPD failed to factorize."""


class ConvergenceFailure(FracspaceError):
    """An iterative minimizer stalled above its tolerance."""


class ThetaOutOfRange(FracspaceError):
    """Interpolation parameter theta must lie strictly inside (0, 1)."""


class QuadratureNotConverged(FracspaceError):
    """Panel doubling hit max_panels before reaching the tolerance."""


# ---- discrete operators


class EigensolveFailure(FracspaceError):
    """Dense symmetric eigendecomposition did not converge."""


class EmptyNullspace(FracspaceError):
    """Divergence operator has no null space; grid is degenerate."""


class FactorizationFailure(FracspaceError):
    """Rank-revealing factorization failed."""


class SolverFailure(FracspaceError):
    """Direct linear solve failed."""


class SingularConstrainedOperator(FracspaceError):
    """Constrained operator is numerically singular."""


# ---- retractions


class RetractionIdentityViolated(FracspaceError):
    """T z != z on the subspace; the retraction precondition fails."""


# ---- experiments


class AmbiguousClassification(FracspaceError):
    """Partial-sum data fits none of the divergence classes."""


# ---- CLI / config


class UnknownExperiment(FracspaceError):
    """Requested experiment name is not registered."""


class InvalidConfig(FracspaceError):
    """Run configuration failed validation."""
