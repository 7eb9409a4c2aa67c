"""Oriented circles/lines as points of de Sitter spacetime.

An oriented circle or line in the plane is encoded by a Hermitian matrix

    M = [[A, B], [conj(B), D]],   A, D real, B complex,

representing the equation A|z|^2 + B z + conj(B z) + D = 0, normalized so
that det M = AD - |B|^2 = -1.  The global sign of (A, B, D) encodes the
orientation: a counterclockwise circle has A > 0.  Under the Minkowski
coordinates t = (A+D)/2, z = (A-D)/2, x + iy = B these matrices sweep out
the unit de Sitter quadric t^2 - x^2 - y^2 - z^2 = -1.

Three oriented carriers meet at a point with 120-degree spacing exactly when
their de Sitter points lie on one spacelike geodesic, evenly spaced at
distance 2*pi/3; a geodesic is the intersection of the quadric with a
2-plane through the origin, so collinearity is a rank-2 condition on the
3x4 coordinate matrix.  Even spacing means every pairwise Minkowski form
value equals +1/2 (the value realized by three concurrent lines at 120
degrees).  Reversing an orientation negates the point, so the two
traversals of each cluster edge give an antipodal pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .cluster import Cluster
from .errors import GeometryDomainError
from .geometry import OrientedCircleLine, Point, arc_carrier

#: Minkowski form value between distinct members of an evenly spaced triple,
#: calibrated on three concurrent lines at 120 degrees.
FORM_120 = 0.5


@dataclass(frozen=True)
class HermitianCircle:
    """Normalized Hermitian-matrix encoding of an oriented circle or line."""

    A: float
    B: complex
    D: float

    def __post_init__(self):
        q = self.A * self.D - abs(self.B) ** 2
        if abs(q + 1.0) > 1e-9:
            raise GeometryDomainError(f"determinant {q:.3e} is not -1")

    @property
    def is_line(self) -> bool:
        return abs(self.A) < 1e-12

    def negated(self) -> "HermitianCircle":
        return HermitianCircle(-self.A, -self.B, -self.D)


@dataclass(frozen=True)
class DeSitterPoint:
    """Minkowski coordinates (t, x, y, z) of an oriented carrier."""

    t: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        q = self.t**2 - self.x**2 - self.y**2 - self.z**2
        if abs(q + 1.0) > 1e-9:
            raise GeometryDomainError(f"quadric value {q:.3e} is not -1")

    def coords(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])

    def antipode(self) -> "DeSitterPoint":
        return DeSitterPoint(-self.t, -self.x, -self.y, -self.z)


def carrier_to_hermitian(c: OrientedCircleLine) -> HermitianCircle:
    if c.kind == "circle":
        c0 = c.center.z
        sign = 1.0 if c.ccw else -1.0
        s = sign / c.radius
        return HermitianCircle(s, -s * c0.conjugate(), s * (abs(c0) ** 2 - c.radius**2))
    # line through p with unit travel direction d: the limit of large
    # counterclockwise circles whose centers lie far to the left of d
    d = c.direction
    p = c.point.z
    return HermitianCircle(0.0, 1j * d.conjugate(), 2.0 * (p * d.conjugate()).imag)


def hermitian_to_carrier(h: HermitianCircle) -> OrientedCircleLine:
    if h.is_line:
        d = 1j * h.B.conjugate()
        d /= abs(d)
        p = -0.5 * h.D * h.B.conjugate() / abs(h.B) ** 2
        return OrientedCircleLine(kind="line", point=Point.of(p), direction=d)
    center = -h.B.conjugate() / h.A
    return OrientedCircleLine(
        kind="circle",
        center=Point.of(center),
        radius=1.0 / abs(h.A),
        ccw=h.A > 0,
    )


def hermitian_to_point(h: HermitianCircle) -> DeSitterPoint:
    return DeSitterPoint(0.5 * (h.A + h.D), h.B.real, h.B.imag, 0.5 * (h.A - h.D))


def point_to_hermitian(p: DeSitterPoint) -> HermitianCircle:
    return HermitianCircle(p.t + p.z, complex(p.x, p.y), p.t - p.z)


def circle_to_point(c: OrientedCircleLine) -> DeSitterPoint:
    return hermitian_to_point(carrier_to_hermitian(c))


def point_to_circle(p: DeSitterPoint) -> OrientedCircleLine:
    return hermitian_to_carrier(point_to_hermitian(p))


def minkowski_form(p: DeSitterPoint, q: DeSitterPoint) -> float:
    """Polarization of the determinant: t t' - x x' - y y' - z z'."""
    return p.t * q.t - p.x * q.x - p.y * q.y - p.z * q.z


def junction_triples(cluster: Cluster) -> List[Tuple[DeSitterPoint, ...]]:
    """Per vertex, the outgoing carriers' de Sitter points in ccw order.

    Raises :class:`StructuralError` unless every vertex is a triple junction.
    """
    cluster.frame.require_trivalent()
    return [
        tuple(circle_to_point(arc_carrier(cluster.half_edge_arc(he))) for he in star)
        for star in cluster.vertex_stars
    ]


@dataclass(frozen=True)
class CorrespondenceReport:
    collinearity: np.ndarray  # per vertex: sigma_3 / sigma_1 of the 3x4 matrix
    form_values: np.ndarray  # per vertex: the three pairwise form values
    spacing: np.ndarray  # per vertex: max |form value - 1/2|
    antipodality: np.ndarray  # per edge: |point(fwd) + point(rev)|
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
    edge: the two traversal orientations must give antipodal points.
    """
    triples = junction_triples(cluster)
    collinearity = np.zeros(cluster.v)
    form_values = np.zeros((cluster.v, 3))
    spacing = np.zeros(cluster.v)
    for i, triple in enumerate(triples):
        coords = np.array([p.coords() for p in triple])
        sigma = np.linalg.svd(coords, compute_uv=False)
        collinearity[i] = sigma[2] / sigma[0]
        pairs = [(0, 1), (1, 2), (2, 0)]
        form_values[i] = [minkowski_form(triple[a], triple[b]) for a, b in pairs]
        spacing[i] = np.abs(form_values[i] - FORM_120).max()
    antipodality = np.zeros(cluster.e)
    for j in range(cluster.e):
        fwd = circle_to_point(arc_carrier(cluster.half_edge_arc((j, True))))
        rev = circle_to_point(arc_carrier(cluster.half_edge_arc((j, False))))
        antipodality[j] = float(np.linalg.norm(fwd.coords() + rev.coords()))
    passed = bool(
        collinearity.max(initial=0.0) < tol
        and spacing.max(initial=0.0) < tol
        and antipodality.max(initial=0.0) < 1e-10
    )
    return CorrespondenceReport(
        collinearity, form_values, spacing, antipodality, tol, passed
    )
