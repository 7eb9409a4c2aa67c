"""Oriented carriers as points of de Sitter spacetime.

An oriented circle or line in the plane is a carrier (A, B, D), the
Hermitian matrix

    M = [[A, B], [conj(B), D]],   A, D real, B complex,

of the equation A|z|^2 + B z + conj(B z) + D = 0, normalized so that
det M = AD - |B|^2 = -1 (``geometry.HermitianCircle``).  The global sign of
(A, B, D) encodes the orientation: A is the signed curvature, positive on a
counterclockwise circle.  Under the Minkowski coordinates t = (A+D)/2,
z = (A-D)/2, x + iy = B these matrices sweep out the unit de Sitter quadric
t^2 - x^2 - y^2 - z^2 = -1.

Three oriented carriers meet at a point with 120-degree spacing exactly when
their de Sitter points lie on one spacelike geodesic, evenly spaced at
distance 2*pi/3; a geodesic is the intersection of the quadric with a
2-plane through the origin, so collinearity is a rank-2 condition on the
3x4 coordinate matrix, the same condition that puts three carriers in one
pencil (``geometry.pencil_meet``).  Even spacing means every pairwise
Minkowski form value equals +1/2 (the value realized by three concurrent
lines at 120 degrees).  Reversing an orientation negates the point, so the
two traversals of each cluster edge give an antipodal pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .cluster import Cluster
from .errors import GeometryDomainError
from .geometry import HermitianCircle

#: Minkowski form value between distinct members of an evenly spaced triple,
#: calibrated on three concurrent lines at 120 degrees.
FORM_120 = 0.5


@dataclass(frozen=True)
class DeSitterPoint:
    """Minkowski coordinates (t, x, y, z) of an oriented carrier."""

    t: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        tt, ss = self.t**2, self.x**2 + self.y**2 + self.z**2
        if not abs(tt - ss + 1.0) <= 1e-9 * (tt + ss):
            raise GeometryDomainError(f"quadric value {tt - ss:.3e} is not -1")

    def coords(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])

    def antipode(self) -> "DeSitterPoint":
        return DeSitterPoint(-self.t, -self.x, -self.y, -self.z)


def circle_to_point(h: HermitianCircle) -> DeSitterPoint:
    return DeSitterPoint(0.5 * (h.A + h.D), h.B.real, h.B.imag, 0.5 * (h.A - h.D))


def point_to_circle(p: DeSitterPoint) -> HermitianCircle:
    return HermitianCircle(p.t + p.z, complex(p.x, p.y), p.t - p.z)


def _coords(cluster: Cluster, centre=0j, scale: float = 1.0) -> np.ndarray:
    """(t, x, y, z) of every half-edge's carrier in coordinates
    (z - centre) / scale, shape (e, 2, 4); ``centre`` may be an (e, 2) array
    of one centre per half-edge."""
    A, B, D = cluster.carriers(centre, scale)
    return np.stack([0.5 * (A + D), B.real, B.imag, 0.5 * (A - D)], axis=-1)


def minkowski_form(p: DeSitterPoint, q: DeSitterPoint) -> float:
    """Polarization of the determinant: t t' - x x' - y y' - z z'."""
    return p.t * q.t - p.x * q.x - p.y * q.y - p.z * q.z


def junction_triples(cluster: Cluster) -> List[Tuple[DeSitterPoint, ...]]:
    """Per vertex, the outgoing carriers' de Sitter points in ccw order.

    Raises :class:`StructuralError` unless every vertex is a triple junction.
    """
    X = _coords(cluster).reshape(-1, 4)[cluster.topology.stars]
    return [tuple(DeSitterPoint(*x) for x in triple) for triple in X]


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


def verify_correspondence(cluster: Cluster, tol: float = 1e-8) -> CorrespondenceReport:
    """Check the triple-on-a-geodesic structure of an equilibrium cluster.

    Per junction: the three outgoing carriers' points must span only a
    2-plane through the origin (collinearity, measured by sigma_3/sigma_1)
    and be evenly spaced (every pairwise Minkowski form value +1/2).  Per
    edge: the two traversal orientations must give antipodal points, up to
    ``tol`` relative to the point's size.
    """
    if not tol > 0:
        raise GeometryDomainError("tol must be positive")
    # form values and antipodes are Mobius invariant: measure every junction
    # in coordinates centred on it and scaled by the diameter, where the
    # carrier coordinates stay of order one at every scale of the cluster
    points, ends, scale = cluster.points, cluster.ends, cluster.diameter()
    X = _coords(cluster, points[ends], scale)
    T = X.reshape(-1, 4)[cluster.topology.stars]  # (v, 3, 4) ccw triples
    sigma = np.linalg.svd(T, compute_uv=False)
    collinearity = sigma[:, 2] / sigma[:, 0]
    # the pairs (0, 1), (1, 2), (2, 0) under the form t t' - x x' - y y' - z z'
    P = T * np.roll(T, -1, axis=1)
    form_values = P[..., 0] - P[..., 1] - P[..., 2] - P[..., 3]
    spacing = np.abs(form_values - FORM_120).max(axis=1)
    Y = _coords(cluster, points[ends[:, :1]], scale)  # both halves at the tail
    antipodality = np.linalg.norm(Y.sum(axis=1), axis=1) / np.linalg.norm(Y[:, 0], axis=1)
    passed = bool(
        collinearity.max(initial=0.0) < tol
        and spacing.max(initial=0.0) < tol
        and antipodality.max(initial=0.0) < tol
    )
    return CorrespondenceReport(
        collinearity, form_values, spacing, antipodality, tol, passed
    )
