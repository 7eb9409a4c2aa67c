"""Oriented carriers as points of de Sitter spacetime.

An oriented circle or line in the plane is a carrier (A, B, D), the
Hermitian matrix

    M = [[A, B], [conj(B), D]],   A, D real, B complex,

of the equation A|z|^2 + B z + conj(B z) + D = 0, normalized so that
det M = AD - |B|^2 = -1, held as arrays like every carrier
(``Cluster.carriers``).  The global sign of (A, B, D) encodes the
orientation: A is the signed curvature, positive on a counterclockwise
circle.  The one linear map t = (A+D)/2, z = (A-D)/2, x + iy = B
(:func:`coordinates`, inverted by :func:`carrier`) sends these matrices
onto the unit de Sitter quadric t^2 - x^2 - y^2 - z^2 = -1; a de Sitter
point is its (t, x, y, z) array, shape (..., 4).

Three oriented carriers meet at a point with 120-degree spacing exactly when
their de Sitter points lie on one spacelike geodesic, evenly spaced at
distance 2*pi/3; a geodesic is the intersection of the quadric with a
2-plane through the origin, so collinearity is a rank-2 condition on the
3x4 coordinate matrix, the same condition that puts three carriers in one
pencil, through common points (``geometry.second_intersection`` meets three
through the origin).  Even spacing means every pairwise
Minkowski form value equals +1/2 (the value realized by three concurrent
lines at 120 degrees).  Reversing an orientation negates the point, so the
two traversals of each cluster edge give an antipodal pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .cluster import Cluster
from .errors import GeometryDomainError

#: Minkowski form value between distinct members of an evenly spaced triple,
#: calibrated on three concurrent lines at 120 degrees.
FORM_120 = 0.5

#: Bound on each junction's collinearity and spacing defects and on each
#: edge's antipodality defect, all dimensionless.
CORRESPONDENCE_TOL = 1e-8

#: ``carrier`` refuses a point whose quadric value t^2 - x^2 - y^2 - z^2 is
#: off -1 by more than this fraction of t^2 + x^2 + y^2 + z^2.
QUADRIC_TOL = 1e-9


def coordinates(A, B, D) -> np.ndarray:
    """(t, x, y, z) = ((A+D)/2, Re B, Im B, (A-D)/2) of carriers (A, B, D),
    stacked on a new last axis of length 4."""
    return np.stack([0.5 * (A + D), B.real, B.imag, 0.5 * (A - D)], axis=-1)


def carrier(X):
    """The carriers (A, B, D) = (t + z, x + iy, t - z) of de Sitter points X
    of shape (..., 4).  Raises :class:`GeometryDomainError` unless every
    point lies on the quadric t^2 - x^2 - y^2 - z^2 = -1, to within
    ``QUADRIC_TOL`` relative to the size of its entries."""
    t, x, y, z = np.moveaxis(np.asarray(X, dtype=float), -1, 0)
    tt, ss = t * t, x * x + y * y + z * z
    off = ~(np.abs(tt - ss + 1.0) <= QUADRIC_TOL * (tt + ss))
    if off.any():
        raise GeometryDomainError(f"quadric value {(tt - ss)[off].flat[0]:.3e} is not -1")
    return t + z, x + 1j * y, t - z


def minkowski_form(X, Y) -> np.ndarray:
    """Polarization of the determinant over the last axis: t t' - x x' - y y' - z z'."""
    P = np.multiply(X, Y)
    return P[..., 0] - P[..., 1] - P[..., 2] - P[..., 3]


def junction_triples(cluster: Cluster, centre=0j, scale: float = 1.0) -> np.ndarray:
    """Per vertex, the outgoing carriers' de Sitter points in ccw order,
    shape (v, 3, 4), in coordinates (z - centre) / scale; ``centre`` may be
    an (e, 2) array of one centre per half-edge.

    Raises :class:`StructuralError` unless every vertex is a triple junction.
    """
    return coordinates(*cluster.carriers(centre, scale)).reshape(-1, 4)[cluster.topology.stars]


@dataclass(frozen=True)
class CorrespondenceReport:
    collinearity: np.ndarray  # per vertex: sigma_3 / sigma_1 of the 3x4 matrix
    form_values: np.ndarray  # per vertex: the three pairwise form values
    spacing: np.ndarray  # per vertex: max |form value - 1/2|
    antipodality: np.ndarray  # per edge: |point(fwd) + point(rev)| / |point(fwd)|
    tol: float
    passed: bool

    def to_json(self) -> Dict:
        return {
            "collinearity": self.collinearity.tolist(),
            "form_values": self.form_values.tolist(),
            "spacing": self.spacing.tolist(),
            "antipodality": self.antipodality.tolist(),
            "tol": self.tol,
            "passed": self.passed,
        }


def verify_correspondence(cluster: Cluster) -> CorrespondenceReport:
    """Check the triple-on-a-geodesic structure of an equilibrium cluster.

    Per junction: the three outgoing carriers' points must span only a
    2-plane through the origin (collinearity, measured by sigma_3/sigma_1)
    and be evenly spaced (every pairwise Minkowski form value +1/2).  Per
    edge: the two traversal orientations must give antipodal points.  Every
    defect is held to ``CORRESPONDENCE_TOL``, the antipodality relative to
    the point's size.
    """
    # form values and antipodes are Mobius invariant: measure every junction
    # in coordinates centred on it and scaled by the diameter, where the
    # carrier coordinates stay of order one at every scale of the cluster
    points, ends, scale = cluster.points, cluster.ends, cluster.diameter()
    T = junction_triples(cluster, points[ends], scale)
    sigma = np.linalg.svd(T, compute_uv=False)
    collinearity = sigma[:, 2] / sigma[:, 0]
    form_values = minkowski_form(T, np.roll(T, -1, axis=1))  # pairs (0, 1), (1, 2), (2, 0)
    spacing = np.abs(form_values - FORM_120).max(axis=1)
    Y = coordinates(*cluster.carriers(points[ends[:, :1]], scale))  # both halves at the tail
    antipodality = np.linalg.norm(Y.sum(axis=1), axis=1) / np.linalg.norm(Y[:, 0], axis=1)
    passed = bool(
        collinearity.max(initial=0.0) < CORRESPONDENCE_TOL
        and spacing.max(initial=0.0) < CORRESPONDENCE_TOL
        and antipodality.max(initial=0.0) < CORRESPONDENCE_TOL
    )
    return CorrespondenceReport(
        collinearity, form_values, spacing, antipodality, CORRESPONDENCE_TOL, passed
    )
