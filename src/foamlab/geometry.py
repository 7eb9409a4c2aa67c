"""Circular-arc primitives, oriented carriers, and Mobius transformations.

An arc is its chord endpoints plus its half-angle ``phi`` (half the central
angle, signed) in (-pi, pi), which keeps arcs larger than a semicircle
unambiguous and makes every arc quantity closed form.  Its bulge, the signed
area between the arc and the chord, is what the JSON format stores;
``bulge_angle_from_area`` inverts it:

  * ``phi > 0``: the arc curves counterclockwise (to the left along travel)
    and lies to the right of the tail->head chord;
  * ``phi = 0``: straight segment;
  * arc length  = c * phi / sin(phi)
  * curvature   = 2 sin(phi) / c          (signed, ccw positive)
  * bulge area  = c^2 (phi - sin phi cos phi) / (4 sin^2 phi)

An oriented circle or line, the carrier of an arc, is one Hermitian triple
(A, B, D) of arrays (real, complex, real), one entry per carrier: the set
A|z|^2 + 2 Re(B z) + D = 0 with AD - |B|^2 = -1, built by one formula from a
point, the unit tangent and the signed curvature there.  In w = 1 / conj(z)
a carrier through the origin is the line A + 2 Re(B w) = 0, so carriers
through one point meet again where their lines do.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import GeometryDomainError, NotConcurrent

# half-angles closer to +-pi than this are rejected (arc nearly a full circle)
PHI_LIMIT = math.pi - 1e-9
#: Mobius images must stay below this, so chord^2 segment_area(PHI_LIMIT, 1) (~4e17) is finite.
IMAGE_LIMIT = 1e140
#: ``bulge_angle_from_area``'s Newton stops at a step of at most this
#: fraction of phi, two units in the last place.
NEWTON_STOP = 4e-16


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


#: The gap (x - sin x) / x^3 = 1/3! - x^2/5! + ... is summed below |x| = 2, where x - sin x
#: cancels, to a double's resolution; above it the closed form loses under 1.5 ulp.
_GAP_SERIES = 2.0
_GAP_TERMS = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(12))


def _unit_segment(phi: float) -> Tuple[float, float]:
    """a(phi) = segment_area(phi, 1) and a'(phi) from r = sin(phi) / phi (1 at 0), cos phi and
    the gap at 2 phi: as phi - sin phi cos phi = 4 phi^3 gap and sin phi - phi cos phi =
    sin^3 phi - cos phi (phi - sin phi cos phi), a = phi gap / r^2 with no cancellation and
    a' = 1/2 - 2 cos(phi) gap / r^3, losing at most a factor 3."""
    if math.isinf(phi):  # math.sin raises there; a non-finite chart gives a non-finite bulge
        return math.nan, math.nan
    x = phi + phi
    y = x * x
    if y < _GAP_SERIES * _GAP_SERIES:  # Horner's rule in y
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _GAP_TERMS
        gap = c0 + y * (c1 + y * (c2 + y * (c3 + y * (c4 + y * (c5 + y * (c6 + y * (c7 + y * (
            c8 + y * (c9 + y * (c10 + y * c11))))))))))
    else:
        gap = (x - math.sin(x)) / (x * x * x)
    r = math.sin(phi) / phi if phi else 1.0
    q = gap / (r * r)
    return phi * q, 0.5 - 2.0 * math.cos(phi) * q / r


def segment_area(phi: float, chord_length: float) -> float:
    """Signed area between the arc of half-angle ``phi`` and its chord."""
    return chord_length * chord_length * _unit_segment(phi)[0]


def segment_area_dphi(phi: float, chord_length: float) -> float:
    """d(segment_area)/d(phi) = c^2 (sin phi - phi cos phi) / (2 sin^3 phi)."""
    return chord_length * chord_length * _unit_segment(phi)[1]


def bulge_angle_from_area(chord_length: float, area: float) -> float:
    """Invert ``segment_area`` in ``phi`` for a fixed chord.

    The normalized area a(phi) = segment_area(phi, 1) is odd and strictly
    increasing, with range (-inf, inf) as phi -> +-pi, so every finite area
    has a unique half-angle; areas that would need |phi| >= ``PHI_LIMIT``
    are rejected.  On [0, pi) a is convex (all its Taylor coefficients are
    positive), a(phi) >= phi / 6, and a(phi) >= pi / (8 (pi - phi)^2) on
    [pi/2, pi).  So the start 6a, or pi - sqrt(pi / (8a)) if lower and
    a > 1 / (2 pi), is at or right of the root, and Newton decreases
    monotonically onto it, evaluating a and a' together.  A relative stop
    (step <= ``NEWTON_STOP`` phi) keeps near-straight arcs accurate.
    """
    c = chord_length
    if not (c > 0.0) or not math.isfinite(area):
        raise GeometryDomainError("chord_length must be positive, area finite")
    a = abs(area) / c / c
    phi = 6.0 * a
    if a > 0.5 / math.pi:
        phi = min(phi, math.pi - math.sqrt(math.pi / (8.0 * a)))
    while True:  # segment_area and segment_area_dphi at c = 1, from one sine, cosine and gap
        f, df = _unit_segment(phi)
        step = (f - a) / df
        phi -= step
        if step <= NEWTON_STOP * phi:
            break
    if phi >= PHI_LIMIT:
        raise GeometryDomainError("segment area too large for a sub-full-circle arc")
    return math.copysign(phi, area)


def arc_point(arc: Arc, t: float) -> Point:
    """Point at angular fraction ``t`` in [0, 1] along the arc."""
    phi = arc.phi
    tau = arc.tail.z
    c = arc.chord_length()
    ratio = t * np.sinc(phi * t / math.pi) / np.sinc(phi / math.pi)
    return Point.of(tau + c * ratio * cmath.exp(1j * phi * (t - 1.0)) * arc.chord_dir())


def arc_tangent(arc: Arc, t: float) -> complex:
    """Unit tangent (travel direction) at angular fraction ``t``."""
    return arc.chord_dir() * cmath.exp(1j * arc.phi * (2.0 * t - 1.0))


def arc_length(arc: Arc) -> float:
    return arc.chord_length() / np.sinc(arc.phi / math.pi)


def arc_through(tail: Point, mid: Point, head: Point) -> Arc:
    """The unique arc from ``tail`` to ``head`` passing through ``mid``.

    Uses the inscribed-angle relation: with beta = arg((head-mid)/(tail-mid)),
    the half-angle is phi = beta -+ pi, which stays well conditioned even for
    nearly straight arcs (no circumcenter solve).  So |phi| = pi - |beta|,
    and an arc with |phi| beyond ``PHI_LIMIT`` is refused.
    """
    u = tail.z - mid.z
    v = head.z - mid.z
    if abs(u) == 0.0 or abs(v) == 0.0:
        raise GeometryDomainError("arc_through: coincident sample points")
    beta = cmath.phase(v / u)
    phi = beta - math.pi if beta > 0 else beta + math.pi
    if abs(phi) > PHI_LIMIT:
        raise GeometryDomainError("arc_through: arc is nearly a full circle")
    return Arc(tail, head, segment_area(phi, abs(head.z - tail.z)))


def half_angle(w: complex, tangent: complex) -> float:
    """Half-angle of the arc along the chord ``w`` (head - tail) leaving its
    tail along the (not necessarily unit) ``tangent``, the chord direction
    turned by -phi: phi = arg(w conj(tangent)), with no circle fitted; a
    tangent back along the chord gives +-pi.  The callers' results bound
    |phi| in :func:`validate`'s ``half_angles`` check."""
    turn = w * tangent.conjugate()  # cmath.phase raises OverflowError if arg turn underflows
    return math.atan2(turn.imag, turn.real)


# ---------------------------------------------------------------------------
# oriented carriers and their common points


def carrier_coefficients(p, t, kappa):
    """(A, B, D) of the carriers through points ``p`` with unit tangents ``t``
    and signed curvatures ``kappa`` there, broadcast elementwise:

        A = kappa,  B = i conj(t) - kappa conj(p),  D = kappa |p|^2 + 2 Im(p conj(t)).

    AD - |B|^2 = -1 holds identically, so a line (kappa = 0) is no special case.
    """
    return (
        kappa,
        1j * np.conj(t) - kappa * np.conj(p),
        kappa * np.abs(p) ** 2 + 2.0 * np.imag(p * np.conj(t)),
    )


def arc_carrier(arc: Arc) -> Tuple[float, complex, float]:
    """Carrier (A, B, D) of an arc, from its tail, tail tangent and curvature."""
    phi, c = arc.phi, arc.chord_length()
    t = arc.chord_dir() * cmath.exp(-1j * phi)
    A, B, D = carrier_coefficients(arc.tail.z, t, 2.0 * math.sin(phi) / c)
    return float(A), complex(B), float(D)


#: marker for the point at infinity, where straight carriers meet again
AT_INFINITY = object()

#: Distance, in units of :func:`second_intersection`'s scale, within which a
#: carrier counts as passing through a point; its reciprocal is infinity.
PENCIL_TOL = 1e-6


def second_intersection(A, B, D):
    """Common second point of three carriers (A, B, D) through the origin.

    In w = 1 / conj(z) such a carrier is the line A + 2 Re(B w) = 0, so the
    point is q = 1 / conj(w), w the least-squares meet of the three lines.
    Lengths are measured in the smallest radius, but at most the unit
    length: straight carriers whose curvatures are rounding noise still meet
    again at :data:`AT_INFINITY`, returned for q beyond 1 / ``PENCIL_TOL``
    of them.  ``decorate`` takes this point in closed form, and this meet is
    its test oracle.  Raises :class:`NotConcurrent` when, within
    ``PENCIL_TOL`` of that length, a carrier misses the origin or the meet,
    or q coincides with the origin.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (3,):
        raise GeometryDomainError("second_intersection expects three carriers")
    scale = 1.0 / max(1.0, float(np.abs(A).max()))
    if np.abs(D).max() > PENCIL_TOL * scale:
        raise NotConcurrent("carriers do not all pass through the base point")
    B = np.asarray(B, dtype=complex)
    rows = np.stack([2.0 * B.real, -2.0 * B.imag], axis=1)
    w = np.linalg.lstsq(rows, -A, rcond=None)[0]
    miss = float(np.abs(rows @ w + A).max()) * scale
    if miss > PENCIL_TOL:
        raise NotConcurrent(f"carriers share no second point (line residual {miss:.3e})")
    w = complex(*w)
    if abs(w) * scale <= PENCIL_TOL:
        return AT_INFINITY
    if abs(w) * scale >= 1.0 / PENCIL_TOL:
        raise NotConcurrent("second intersection coincides with the base point")
    return 1.0 / w.conjugate()


# ---------------------------------------------------------------------------
# Mobius (linear fractional) transformations

#: A map is singular when |ad - bc| is at most this fraction of |ad| + |bc|.
MOBIUS_SINGULAR = 1e-12
#: A map is affine, with its pole at infinity, when |c| is below this
#: fraction of max(|a|, |d|).
MOBIUS_AFFINE = 1e-15
#: A point is at the pole when |cz + d| is at most this fraction of
#: |cz| + |d|.
POLE_CLEARANCE = 1e-9
#: ``mobius_image`` refuses a pole within this many chord lengths of an
#: arc, of either end or, beside the arc, of its carrier.
ARC_POLE_CLEARANCE = 1e-6


@dataclass(frozen=True)
class MobiusMap:
    """z -> (a z + b) / (c z + d), stored as given."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        ad, bc = self.a * self.d, self.b * self.c
        if abs(ad - bc) <= MOBIUS_SINGULAR * (abs(ad) + abs(bc)):
            raise GeometryDomainError("Mobius map is singular (ad - bc ~ 0)")

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
        if abs(self.c) < MOBIUS_AFFINE * max(abs(self.a), abs(self.d)):
            return None
        return -self.d / self.c

    def apply(self, z):
        """(a z + b) / (c z + d), elementwise, once :meth:`_fraction`'s tests pass."""
        num, den = self._fraction(z)
        return num / den

    def _fraction(self, z):
        """(a z + b, c z + d) with the entries scaled by a power of two, the
        largest into [1/2, 1), which changes no rounding and lets no product
        overflow.  Raises :class:`GeometryDomainError` for a point within
        ``POLE_CLEARANCE`` (relative) of the pole, or an image that would
        reach ``IMAGE_LIMIT``."""
        s = 2.0 ** -math.frexp(max(abs(self.a), abs(self.b), abs(self.c), abs(self.d)))[1]
        a, b, c, d = self.a * s, self.b * s, self.c * s, self.d * s
        num, den = a * z + b, c * z + d
        if (np.abs(den) <= POLE_CLEARANCE * (np.abs(c * z) + abs(d))).any():
            raise GeometryDomainError("point too close to the Mobius pole")
        if not (np.abs(num) / IMAGE_LIMIT < np.abs(den)).all():
            raise GeometryDomainError(f"Mobius image has points beyond {IMAGE_LIMIT:g} in magnitude")
        return num, den


def mobius_image(m: MobiusMap, points, ends, phis) -> Tuple[np.ndarray, np.ndarray]:
    """Images under ``m`` of ``points``, and the half-angles of the images of
    the arcs ``points[ends[j]]`` with half-angles ``phis[j]``, in closed form.

    With w(z) = c z + d, m' = (ad - bc) / w^2 turns the tail tangent by
    -2 arg w(tail) and the chord by -arg(w(tail) w(head)), so phi becomes
    phi + arg(w(tail) / w(head)), wrapped to (-pi, pi].  Raises
    :class:`GeometryDomainError`, before dividing, where
    :meth:`MobiusMap.apply` does and when the pole lies within
    ``ARC_POLE_CLEARANCE`` chord lengths of an arc.  An image half-angle may
    reach ``PHI_LIMIT``: the callers' results bound it in :func:`validate`'s
    ``half_angles`` check.
    """
    z, phis = np.asarray(points, dtype=complex), np.asarray(phis, dtype=float)
    ends = np.asarray(ends, dtype=int).reshape(-1, 2)
    num, den = m._fraction(z)
    if (pole := m.pole()) is not None:
        # in the chord frame (tail 0, head 1) the carrier is sin(phi) |u|^2 -
        # Im(e^{i phi} u) = 0, whose value is the distance to first order;
        # it is tested divided by |u|, whose square may overflow
        u = (pole - z[ends[:, 0]]) / (z[ends[:, 1]] - z[ends[:, 0]])
        r = np.abs(u)
        near = np.abs(np.sin(phis) * r - (np.exp(1j * phis) * u).imag / r) <= ARC_POLE_CLEARANCE / r
        beside = (phis * u.imag < 0.0) | ((np.abs(u.imag) <= ARC_POLE_CLEARANCE) & (u.real >= 0.0) & (u.real <= 1.0))
        if ((np.minimum(r, np.abs(u - 1.0)) <= ARC_POLE_CLEARANCE) | (near & beside)).any():
            raise GeometryDomainError("Mobius pole lies on or near the arc")
    arg = np.angle(den)
    phi = math.pi - np.remainder(math.pi - phis - arg[ends[:, 0]] + arg[ends[:, 1]], 2.0 * math.pi)
    return num / den, phi

