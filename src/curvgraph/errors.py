"""Exception types shared across the package."""


class CurvGraphError(Exception):
    """Base class for all curvgraph errors."""


class InvalidInput(CurvGraphError, ValueError):
    """A file or JSON argument does not have the documented form."""


class SpheroidNonConvergence(CurvGraphError):
    """The iterative inverse geodesic failed (typically a near-antipodal pair)."""


class UnsupportedManifold(CurvGraphError):
    """The requested operation is not defined on this manifold."""


class SamplingFailure(CurvGraphError):
    """Rejection sampling exceeded its attempt cap; indicates a broken density."""


class Disconnected(CurvGraphError):
    """Operation requires a connected graph."""


class NoConnectedLength(CurvGraphError):
    """No connection length in the search bracket produced a connected graph."""

    def __init__(self, message, best_length=None):
        super().__init__(message)
        self.best_length = best_length


class EmptyInput(CurvGraphError):
    """An aggregate was requested over an empty collection."""


class TriangleInequalityViolated(CurvGraphError):
    """Side lengths fail the strict triangle inequalities."""


class RootNotFound(CurvGraphError):
    """The curvature equation's root was not found, or is not a finite nonzero float."""


class NoCandidate(CurvGraphError):
    """Triangle construction found no valid vertex triple within the retry budget."""


class TooFewAccepted(CurvGraphError):
    """Too few samples survived rejection for a meaningful report."""


class DegenerateFit(CurvGraphError):
    """A least-squares fit was degenerate (rank deficient or unusable data)."""


class LevelTooLarge(CurvGraphError):
    """Requested fractal iteration exceeds the memory guard."""


class SamplingStalled(CurvGraphError):
    """Sampling cannot progress: too many consecutive rejections, or nothing to draw."""


class NonPositiveCurvature(CurvGraphError):
    """A radius was requested for a non-positive curvature value."""
