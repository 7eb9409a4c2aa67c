"""Exception types shared across the library."""


class FoamlabError(Exception):
    """Base class for all library errors."""


class GeometryDomainError(FoamlabError, ValueError):
    """Input outside the valid domain of a geometric operation."""


class NotConcurrent(FoamlabError):
    """Three carriers through a common point have no common second point.

    Signals a quasi-equilibrium (angles fine, curvatures incompatible)
    or invalid input.
    """


class StructuralError(FoamlabError):
    """A cluster violates a combinatorial invariant (degrees, walks, labels)."""


class ClusterFormatError(FoamlabError, ValueError):
    """Malformed cluster document; message names the offending field."""


class PathInconsistent(FoamlabError):
    """Curvature sums disagree across paths; pressures are not well defined.

    ``defect`` is the largest edge residual |p_left - p_right - kappa| of the
    least-squares pressures.
    """

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class NonConvergence(FoamlabError):
    """Iterative solve failed to reach tolerance.

    Carries the residual-norm history for diagnosis.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class TopologyBreakdown(FoamlabError):
    """A chart point leaves its type: a chord or an arc degenerates, a star turns, or arcs overlap."""
