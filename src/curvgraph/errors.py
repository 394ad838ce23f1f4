"""Exception types shared across the package."""


class CurvGraphError(Exception):
    """Base class for all curvgraph errors."""


class InvalidInput(CurvGraphError, ValueError):
    """An argument, file or JSON input does not have the documented form or range."""


class SpheroidNonConvergence(CurvGraphError):
    """``Spheroid.distances_from`` met an inverse geodesic that did not converge.

    Typically a near-antipodal pair; ``Spheroid.distance`` and
    ``Spheroid.direct`` answer NaN for such an element instead.
    """


class SamplingFailure(CurvGraphError):
    """Rejection sampling exceeded its attempt cap; indicates a broken density."""


class Disconnected(CurvGraphError):
    """Operation requires a connected graph."""


class NoConnectedLength(CurvGraphError):
    """No connection length in the search bracket produced a connected graph."""


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
    """Requested fractal level is above 6, where all-pairs hop distances stop."""


class SamplingStalled(CurvGraphError):
    """Sampling cannot progress: too many consecutive rejections, or nothing to draw."""
