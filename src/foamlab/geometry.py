"""Circular-arc primitives, oriented circles/lines, and Mobius transformations.

An arc is stored by its chord endpoints plus the signed area between the arc
and the chord ("bulge").  Storing the area instead of a curvature keeps arcs
larger than a semicircle unambiguous.  The derived half-angle ``phi`` (half
the central angle, signed) lives in (-pi, pi):

  * ``phi > 0``: the arc curves counterclockwise (to the left along travel)
    and lies to the right of the tail->head chord;
  * ``phi = 0``: straight segment;
  * arc length  = c * phi / sin(phi)
  * curvature   = 2 sin(phi) / c          (signed, ccw positive)
  * bulge area  = c^2 (phi - sin phi cos phi) / (4 sin^2 phi)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import GeometryDomainError, NotConcurrent

# half-angles closer to +-pi than this are rejected (arc nearly a full circle)
PHI_LIMIT = math.pi - 1e-9


class Point(NamedTuple):
    x: float
    y: float

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    @staticmethod
    def of(z: complex) -> "Point":
        return Point(z.real, z.imag)


@dataclass(frozen=True)
class Arc:
    """Oriented circular arc (or straight segment) between two points."""

    tail: Point
    head: Point
    bulge: float  # signed area between arc and chord

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.tail, *self.head, self.bulge))):
            raise GeometryDomainError("non-finite arc data")
        if self.chord_length() <= 0.0:
            raise GeometryDomainError("arc endpoints coincide")

    def chord_length(self) -> float:
        return abs(self.head.z - self.tail.z)

    def chord_dir(self) -> complex:
        w = self.head.z - self.tail.z
        return w / abs(w)

    @property
    def phi(self) -> float:
        return bulge_angle_from_area(self.chord_length(), self.bulge)

    def reversed(self) -> "Arc":
        return Arc(self.head, self.tail, -self.bulge)


def _sinc(x: float) -> float:
    if abs(x) < 1e-8:
        return 1.0 - x * x / 6.0
    return math.sin(x) / x


def segment_area(phi: float, chord_length: float) -> float:
    """Signed area between the arc of half-angle ``phi`` and its chord."""
    c = chord_length
    if abs(phi) < 0.05:
        # (phi - sin phi cos phi)/(4 sin^2 phi)
        #   = phi/6 + phi^3/45 + phi^5/315 + 2 phi^7/4725 + ...
        # the closed form cancels catastrophically near zero
        p2 = phi * phi
        return c * c * phi * (
            1.0 / 6.0 + p2 * (1.0 / 45.0 + p2 * (1.0 / 315.0 + p2 * 2.0 / 4725.0))
        )
    s = math.sin(phi)
    return c * c * (phi - s * math.cos(phi)) / (4.0 * s * s)


def segment_area_dphi(phi: float, chord_length: float) -> float:
    """d(segment_area)/d(phi) = c^2 (sin phi - phi cos phi) / (2 sin^3 phi),
    with the series branch of ``segment_area`` differentiated term by term."""
    c = chord_length
    if abs(phi) < 0.05:
        p2 = phi * phi
        return c * c * (1.0 / 6.0 + p2 * (1.0 / 15.0 + p2 * (1.0 / 63.0 + p2 * 2.0 / 675.0)))
    s = math.sin(phi)
    return c * c * (s - phi * math.cos(phi)) / (2.0 * s ** 3)


def bulge_angle_from_area(chord_length: float, area: float) -> float:
    """Invert ``segment_area`` in ``phi`` for a fixed chord.

    The map is odd and strictly increasing, with range (-inf, inf) as
    phi -> +-pi, so every finite area has a unique half-angle; areas that
    would need |phi| >= pi - 1e-9 are rejected.  Safeguarded Newton with a
    bisection fallback; series branch for very small areas.
    """
    c = chord_length
    if not (c > 0.0) or not math.isfinite(area):
        raise GeometryDomainError("chord_length must be positive, area finite")
    if abs(area) < 1e-8 * c * c:
        return 6.0 * area / (c * c)

    sign = 1.0 if area > 0 else -1.0
    a = abs(area)

    def f(phi):
        return segment_area(phi, c) - a

    # bracket: f(0) < 0; expand toward pi
    lo, hi = 0.0, math.pi / 2
    while f(hi) < 0.0:
        hi = 0.5 * (hi + math.pi)
        if math.pi - hi < 1e-9:
            raise GeometryDomainError(
                "segment area too large for a sub-full-circle arc"
            )
        lo = max(lo, 2.0 * hi - math.pi)

    phi = min(hi, max(lo, 6.0 * a / (c * c)))
    for _ in range(100):
        val = f(phi)
        if val > 0.0:
            hi = phi
        else:
            lo = phi
        step = val / segment_area_dphi(phi, c)
        new = phi - step
        if not (lo < new < hi):
            new = 0.5 * (lo + hi)
        if abs(new - phi) <= 1e-16 * max(1.0, abs(phi)):
            phi = new
            break
        phi = new
    if phi >= PHI_LIMIT:
        raise GeometryDomainError("segment area too large for a sub-full-circle arc")
    return sign * phi


@dataclass(frozen=True)
class OrientedCircleLine:
    """Carrier of an arc: an oriented circle or an oriented straight line."""

    kind: str  # 'circle' | 'line'
    center: Optional[Point] = None
    radius: float = 0.0
    ccw: bool = True
    point: Optional[Point] = None
    direction: complex = 1.0 + 0.0j  # unit travel direction, lines only

    def __post_init__(self):
        if self.kind == "circle":
            if self.center is None or not self.radius > 0.0:
                raise GeometryDomainError("circle needs center and radius > 0")
        elif self.kind == "line":
            if self.point is None or not abs(abs(self.direction) - 1.0) < 1e-9:
                raise GeometryDomainError("line needs a point and unit direction")
        else:
            raise GeometryDomainError(f"unknown carrier kind {self.kind!r}")

    def signed_curvature(self) -> float:
        if self.kind == "line":
            return 0.0
        return (1.0 if self.ccw else -1.0) / self.radius


def arc_point(arc: Arc, t: float) -> Point:
    """Point at angular fraction ``t`` in [0, 1] along the arc."""
    phi = arc.phi
    tau = arc.tail.z
    c = arc.chord_length()
    ratio = t * _sinc(phi * t) / _sinc(phi)
    return Point.of(tau + c * ratio * cmath.exp(1j * phi * (t - 1.0)) * arc.chord_dir())


def arc_tangent(arc: Arc, t: float) -> complex:
    """Unit tangent (travel direction) at angular fraction ``t``."""
    return arc.chord_dir() * cmath.exp(1j * arc.phi * (2.0 * t - 1.0))


def arc_midpoint(arc: Arc) -> Point:
    return arc_point(arc, 0.5)


def arc_carrier(arc: Arc) -> OrientedCircleLine:
    phi = arc.phi
    if abs(phi) < 1e-12:
        return OrientedCircleLine(kind="line", point=arc.tail, direction=arc.chord_dir())
    c = arc.chord_length()
    radius = c / (2.0 * abs(math.sin(phi)))
    mid = 0.5 * (arc.tail.z + arc.head.z)
    # center sits on the chord's left normal at signed height (c/2) cot(phi)
    center = mid + 1j * arc.chord_dir() * (c / 2.0) / math.tan(phi)
    return OrientedCircleLine(kind="circle", center=Point.of(center), radius=radius, ccw=phi > 0)


def arc_length(arc: Arc) -> float:
    return arc.chord_length() / _sinc(arc.phi)


def arc_through(tail: Point, mid: Point, head: Point) -> Arc:
    """The unique arc from ``tail`` to ``head`` passing through ``mid``.

    Uses the inscribed-angle relation: with beta = arg((head-mid)/(tail-mid)),
    the half-angle is phi = beta -+ pi, which stays well conditioned even for
    nearly straight arcs (no circumcenter solve).
    """
    u = tail.z - mid.z
    v = head.z - mid.z
    if abs(u) == 0.0 or abs(v) == 0.0:
        raise GeometryDomainError("arc_through: coincident sample points")
    beta = cmath.phase(v / u)
    if abs(beta) < 1e-9:
        raise GeometryDomainError("arc_through: arc is nearly a full circle")
    phi = beta - math.pi if beta > 0 else beta + math.pi
    c = abs(head.z - tail.z)
    if c == 0.0:
        raise GeometryDomainError("arc_through: endpoints coincide")
    return Arc(tail, head, segment_area(phi, c))


# ---------------------------------------------------------------------------
# carrier intersections / second intersection point


def _circle_circle(c1: OrientedCircleLine, c2: OrientedCircleLine):
    z1, z2 = c1.center.z, c2.center.z
    r1, r2 = c1.radius, c2.radius
    d = abs(z2 - z1)
    if d < 1e-15 * (r1 + r2):
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    if h2 < -1e-12 * r1 * r1:
        return []
    h = math.sqrt(max(h2, 0.0))
    u = (z2 - z1) / d
    base = z1 + a * u
    if h == 0.0:
        return [Point.of(base)]
    return [Point.of(base + 1j * h * u), Point.of(base - 1j * h * u)]


def _line_circle(ln: OrientedCircleLine, ci: OrientedCircleLine):
    p, u = ln.point.z, ln.direction
    z0, r = ci.center.z, ci.radius
    # |p + t u - z0|^2 = r^2
    w = p - z0
    b = (w * u.conjugate()).real
    disc = b * b - (abs(w) ** 2 - r * r)
    if disc < -1e-12 * r * r:
        return []
    s = math.sqrt(max(disc, 0.0))
    if s == 0.0:
        return [Point.of(p - b * u)]
    return [Point.of(p + (-b + s) * u), Point.of(p + (-b - s) * u)]


def _line_line(l1: OrientedCircleLine, l2: OrientedCircleLine):
    p1, u1 = l1.point.z, l1.direction
    p2, u2 = l2.point.z, l2.direction
    denom = (u1.conjugate() * u2).imag
    if abs(denom) < 1e-14:
        return []
    t = ((p2 - p1).conjugate() * u2).imag / denom
    return [Point.of(p1 + t * u1)]


def carrier_intersections(a: OrientedCircleLine, b: OrientedCircleLine):
    if a.kind == "circle" and b.kind == "circle":
        return _circle_circle(a, b)
    if a.kind == "line" and b.kind == "circle":
        return _line_circle(a, b)
    if a.kind == "circle" and b.kind == "line":
        return _line_circle(b, a)
    return _line_line(a, b)


#: marker returned when three straight-line carriers meet again at infinity
AT_INFINITY = object()


def second_intersection(
    carriers: Sequence[OrientedCircleLine], p: Point, tol: float = 1e-6
):
    """Common second point of three carriers through ``p``.

    Returns :data:`AT_INFINITY` when all three carriers are straight lines
    (they meet again at the point at infinity).  Raises :class:`NotConcurrent`
    when the pairwise second intersections disagree beyond ``tol`` times the
    configuration scale.
    """
    if len(carriers) != 3:
        raise GeometryDomainError("second_intersection expects three carriers")
    kinds = [c.kind for c in carriers]
    if kinds.count("line") == 3:
        return AT_INFINITY
    scale = max(
        [c.radius for c in carriers if c.kind == "circle"] + [abs(p.z), 1.0]
    )
    if kinds.count("line") == 2:
        raise NotConcurrent("two straight lines meet again only at infinity")
    candidates = []
    pairs = [(0, 1), (0, 2), (1, 2)]
    for i, j in pairs:
        pts = carrier_intersections(carriers[i], carriers[j])
        pts = sorted(pts, key=lambda q: -abs(q.z - p.z))
        if not pts or abs(pts[-1].z - p.z) > tol * scale:
            raise NotConcurrent("carriers do not all pass through the base point")
        candidates.append(pts[0].z)  # farthest from p = the second point
    spread = max(abs(a - b) for a in candidates for b in candidates)
    if spread > tol * scale:
        raise NotConcurrent(
            f"pairwise second intersections disagree by {spread:.3e}"
        )
    q = sum(candidates) / 3.0
    if abs(q - p.z) <= tol * scale:
        raise NotConcurrent("second intersection coincides with the base point")
    return Point.of(q)


# ---------------------------------------------------------------------------
# Mobius (linear fractional) transformations


@dataclass(frozen=True)
class MobiusMap:
    """z -> (a z + b) / (c z + d), stored normalized to a d - b c = 1."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det) < 1e-12:
            raise GeometryDomainError("Mobius map is singular (ad - bc ~ 0)")

    def normalized(self) -> "MobiusMap":
        s = cmath.sqrt(self.a * self.d - self.b * self.c)
        return MobiusMap(self.a / s, self.b / s, self.c / s, self.d / s)

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(1, 0, 0, 1)

    @staticmethod
    def translation(w: complex) -> "MobiusMap":
        return MobiusMap(1, w, 0, 1)

    @staticmethod
    def rotation(theta: float, about: complex = 0j) -> "MobiusMap":
        r = cmath.exp(1j * theta)
        return MobiusMap(r, about * (1 - r), 0, 1)

    @staticmethod
    def scaling(s: float) -> "MobiusMap":
        return MobiusMap(s, 0, 0, 1)

    @staticmethod
    def inversion_about(q: complex) -> "MobiusMap":
        # z -> 1 / (z - q)
        return MobiusMap(0, 1, 1, -q)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def pole(self) -> Optional[complex]:
        if abs(self.c) < 1e-15 * max(abs(self.a), abs(self.d), 1.0):
            return None
        return -self.d / self.c

    def apply(self, z: complex) -> complex:
        m = self.normalized()
        denom = m.c * z + m.d
        if abs(denom) < 1e-9:
            raise GeometryDomainError("point too close to the Mobius pole")
        return (m.a * z + m.b) / denom


def mobius_apply_point(m: MobiusMap, p: Point) -> Point:
    return Point.of(m.apply(p.z))


def mobius_apply_arc(m: MobiusMap, arc: Arc, samples: int = 33) -> Arc:
    """Image of an arc, via the exact circle through three image points."""
    pole = m.normalized().pole()
    if pole is not None:
        scale = max(arc.chord_length(), 1.0)
        dmin = min(
            abs(arc_point(arc, k / (samples - 1)).z - pole) for k in range(samples)
        )
        if dmin < 1e-6 * scale:
            raise GeometryDomainError("Mobius pole lies on or near the arc")
    t0 = mobius_apply_point(m, arc.tail)
    t1 = mobius_apply_point(m, arc_midpoint(arc))
    t2 = mobius_apply_point(m, arc.head)
    return arc_through(t0, t1, t2)
