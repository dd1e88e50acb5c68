"""Exception hierarchy and the failure policy.

Every error raised by this package derives from FracspaceError, so callers
can catch the whole family at the CLI boundary. Three kinds of error cover
every failure of a routine:

- InvalidConfig: an argument outside its domain (t, theta, an exponent,
  a size, a config key). The CLI exits 2.
- DimensionMismatch: shapes that do not fit together.
- SolverFailure: a numerical routine failed on the data it was given. A
  factorization, an eigensolve or a Lanczos run failed, or a computed
  result failed a structural check (SPD, symmetry, orthonormality,
  positivity, agreement of two routes), or a non-finite value reached a
  report. The paper's identities need SPD form pairs and positive
  operators, so a routine that meets a violation of that hypothesis raises
  instead of clamping it into a plausible number.

Four more name a cause the caller can act on: QuadratureNotConverged (the
quadrature config can fix it), RetractionIdentityViolated and
AmbiguousClassification (verification outcomes), and UnknownExperiment
(the CLI exits 2 on it).
"""


class FracspaceError(Exception):
    """Base class for all package errors."""


class InvalidConfig(FracspaceError):
    """An argument or run configuration lies outside its domain."""


class DimensionMismatch(FracspaceError):
    """Vector or matrix dimensions are inconsistent with the model."""


class SolverFailure(FracspaceError):
    """A factorization, eigensolve or Lanczos run failed, or its result
    failed a structural check, or a report holds a non-finite value."""


class QuadratureNotConverged(FracspaceError):
    """Panel doubling hit max_panels before reaching the tolerance."""


class RetractionIdentityViolated(FracspaceError):
    """T z != z on the subspace; the retraction precondition fails."""


class AmbiguousClassification(FracspaceError):
    """Partial-sum data fits none of the divergence classes."""


class UnknownExperiment(FracspaceError):
    """Requested experiment name is not registered."""
