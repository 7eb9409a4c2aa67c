import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foamlab.errors import GeometryDomainError, NotConcurrent
from foamlab.geometry import (
    AT_INFINITY,
    Arc,
    MobiusMap,
    Point,
    arc_carrier,
    arc_length,
    arc_point,
    arc_tangent,
    arc_through,
    bulge_angle_from_area,
    carrier_coefficients,
    half_angle,
    mobius_image,
    second_intersection,
    segment_area,
    segment_area_dphi,
)

finite = st.floats(-5.0, 5.0, allow_nan=False)
phis = st.floats(-3.0, 3.0, allow_nan=False)


def polyline_samples(arc, k=10_000):
    return np.array([arc_point(arc, t).z for t in np.linspace(0.0, 1.0, k + 1)])


class TestBulgeRoundTrip:
    @given(phi=phis, c=st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_area_to_angle_inverse(self, phi, c):
        area = segment_area(phi, c)
        assert bulge_angle_from_area(c, area) == pytest.approx(phi, abs=1e-12)

    def test_zero_bulge(self):
        assert segment_area(0.0, 2.0) == 0.0
        assert bulge_angle_from_area(2.0, 0.0) == 0.0

    def test_sign_convention(self):
        # positive bulge lies to the right of the tail -> head chord
        arc = Arc(Point(0, 0), Point(1, 0), segment_area(0.5, 1.0))
        assert arc_point(arc, 0.5).y < 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_near_straight_arcs_keep_relative_accuracy(self, c, sign):
        for phi in sign * np.geomspace(1e-9, 1e-3, 61):
            got = bulge_angle_from_area(c, segment_area(phi, c))
            assert abs(got - phi) <= 1e-15 * abs(phi)


def two_helper_inversion(chord_length, area):
    """The Newton loop of ``bulge_angle_from_area`` calling ``segment_area``
    and ``segment_area_dphi`` once each per step: the oracle of the fused
    loop, which must agree with it bit for bit."""
    c = chord_length
    if not (c > 0.0) or not math.isfinite(area):
        raise GeometryDomainError("chord_length must be positive, area finite")
    a = abs(area) / c / c
    phi = 6.0 * a
    if a > 0.5 / math.pi:
        phi = min(phi, math.pi - math.sqrt(math.pi / (8.0 * a)))
    while True:
        step = (segment_area(phi, 1.0) - a) / segment_area_dphi(phi, 1.0)
        phi -= step
        if step <= 4e-16 * phi:
            break
    if phi >= math.pi - 1e-9:
        raise GeometryDomainError("segment area too large for a sub-full-circle arc")
    return math.copysign(phi, area)


class TestFusedInversion:
    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_matches_the_two_helper_loop_bit_for_bit(self, c):
        for a in [0.0, *np.geomspace(1e-12, 1e3, 2001).tolist()]:
            for area in (a * c * c, -a * c * c):
                assert bulge_angle_from_area(c, area) == two_helper_inversion(c, area), (c, area)

    def test_raises_where_the_two_helper_loop_does(self):
        for c, area in [(0.0, 1.0), (-1.0, 1.0), (1.0, math.inf), (1.0, math.nan), (1e-200, 1.0)]:
            with pytest.raises(GeometryDomainError):
                two_helper_inversion(c, area)
            with pytest.raises(GeometryDomainError):
                bulge_angle_from_area(c, area)

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_round_trip_is_relatively_accurate(self, c):
        for phi in np.geomspace(1e-9, 3.0, 4001).tolist():
            for p in (phi, -phi):
                assert abs(bulge_angle_from_area(c, segment_area(p, c)) - p) <= 1e-12 * phi, (c, p)

    def test_round_trip_within_eight_ulp(self):
        # phi - sin phi cos phi cancels for small phi when formed from the
        # sine and cosine (700 ulp at phi = 0.0509); summed from the series
        # of x - sin x there, the round trip keeps the half-angle's digits
        for phi in np.geomspace(1e-9, 3.0, 200001).tolist():
            assert abs(bulge_angle_from_area(1.0, segment_area(phi, 1.0)) - phi) <= 8 * math.ulp(phi), phi


class TestArcEvaluation:
    def test_endpoints(self):
        arc = Arc(Point(0, 0), Point(2, 1), 0.3)
        assert abs(arc_point(arc, 0.0).z - arc.tail.z) < 1e-15
        assert abs(arc_point(arc, 1.0).z - arc.head.z) < 1e-15

    def test_semicircle(self):
        # half of the unit circle below the chord from (-1,0) to (1,0)
        arc = Arc(Point(-1, 0), Point(1, 0), segment_area(math.pi / 2, 2.0))
        assert arc_length(arc) == pytest.approx(math.pi, abs=1e-12)
        assert abs(arc_point(arc, 0.5).z - (-1j)) < 1e-12

    @given(phi=phis, hx=finite, hy=finite)
    @settings(max_examples=100, deadline=None)
    def test_length_against_polyline(self, phi, hx, hy):
        head = Point(hx, hy)
        if abs(head.z) < 0.1:
            return
        arc = Arc(Point(0, 0), head, segment_area(phi, abs(head.z)))
        pts = polyline_samples(arc, 2000)
        poly = float(np.abs(np.diff(pts)).sum())
        assert arc_length(arc) == pytest.approx(poly, rel=1e-6)

    def test_area_against_polyline(self):
        arc = Arc(Point(0, 0), Point(2, 0), segment_area(1.1, 2.0))
        pts = polyline_samples(arc)
        shoelace = 0.5 * float(
            np.sum(pts[:-1].real * pts[1:].imag - pts[1:].real * pts[:-1].imag)
        )
        # the chord lies on the x-axis, so closing head -> tail adds nothing;
        # traversing the bulge side then returning along the chord runs ccw
        assert shoelace == pytest.approx(arc.bulge, rel=1e-6)

    def test_tangent_matches_difference_quotient(self):
        arc = Arc(Point(0, 0), Point(1, 2), 0.4)
        h = 1e-7
        for t in (0.0, 0.3, 1.0):
            lo, hi = max(t - h, 0.0), min(t + h, 1.0)
            fd = (arc_point(arc, hi).z - arc_point(arc, lo).z) / (hi - lo)
            fd /= abs(fd)
            assert abs(arc_tangent(arc, t) - fd) < 1e-6

    def test_degenerate_endpoints_rejected(self):
        with pytest.raises(GeometryDomainError):
            Arc(Point(1, 1), Point(1, 1), 0.0)


class TestArcThrough:
    @given(phi=st.floats(-2.8, 2.8), hx=finite, hy=finite, t=st.floats(0.05, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_reconstructs_bulge(self, phi, hx, hy, t):
        head = Point(hx, hy)
        if abs(head.z) < 0.1:
            return
        arc = Arc(Point(0, 0), head, segment_area(phi, abs(head.z)))
        rebuilt = arc_through(arc.tail, arc_point(arc, t), arc.head)
        assert rebuilt.bulge == pytest.approx(arc.bulge, rel=1e-9, abs=1e-12)


class TestHalfAngle:
    @given(
        phi=st.floats(-math.pi + 1e-3, math.pi - 1e-3), hx=finite, hy=finite, tx=finite, ty=finite
    )
    @settings(max_examples=150, deadline=None)
    def test_tail_tangent_reconstructs_bulge(self, phi, hx, hy, tx, ty):
        tail, head = Point(tx, ty), Point(hx, hy)
        c = abs(head.z - tail.z)
        if c < 0.1:
            return
        arc = Arc(tail, head, segment_area(phi, c))
        rebuilt = Arc(tail, head, segment_area(half_angle(head.z - tail.z, arc_tangent(arc, 0.0)), c))
        # a unit tangent carries its direction to about 1e-16 rad, which
        # bounds the absolute accuracy of phi (and so of bulge / c^2)
        assert rebuilt.bulge == pytest.approx(arc.bulge, rel=1e-12, abs=1e-15 * c * c)

    def test_subnormal_turn_gives_a_straight_arc(self):
        # arg((head - tail) conj(tangent)) underflows to a subnormal here
        assert half_angle(-complex(3.0, 1.1125369292536007e-308), -1 - 3.708456430845337e-309j) == 0.0

    def test_tangent_back_along_chord_is_a_full_circle(self):
        # the callers' results bound it in validate's half_angles check
        assert half_angle(1, -1) == math.pi


class TestCarriers:
    def test_circle_carrier(self):
        # the unit circle, counterclockwise: |z|^2 - 1 = 0
        arc = Arc(Point(-1, 0), Point(1, 0), segment_area(math.pi / 2, 2.0))
        A, B, D = arc_carrier(arc)
        assert (A, D) == pytest.approx((1.0, -1.0), abs=1e-12)
        assert abs(B) < 1e-12

    def test_line_carrier(self):
        # a line is A = 0 with B = i conj(direction)
        A, B, D = arc_carrier(Arc(Point(0, 0), Point(3, 4), 0.0))
        assert A == 0.0
        assert abs(B - 1j * ((3 + 4j) / 5).conjugate()) < 1e-15
        assert abs(D) < 1e-15

    def test_curvature_sign(self):
        # an arc bulging right of its chord turns left: ccw, positive curvature
        right = arc_carrier(Arc(Point(0, 0), Point(1, 0), 0.1))[0]
        left = arc_carrier(Arc(Point(0, 0), Point(1, 0), -0.1))[0]
        assert right > 0 > left

    def test_formula_matches_center_and_radius(self):
        # at any point of the circle |z - c| = r with the travel tangent there
        c0, r = 0.3 - 1.2j, 0.7
        for theta in np.linspace(0.0, 6.0, 7):
            for s in (1.0, -1.0):
                p = c0 + r * cmath.exp(1j * theta)
                A, B, D = carrier_coefficients(p, s * 1j * cmath.exp(1j * theta), s / r)
                assert (A, D) == pytest.approx((s / r, s * (abs(c0) ** 2 - r * r) / r))
                assert abs(B + s * c0.conjugate() / r) < 1e-12

    @given(phi=phis, hx=finite, hy=finite, tx=finite, ty=finite)
    @settings(max_examples=150, deadline=None)
    def test_arc_points_on_carrier_and_reversal_negates(self, phi, hx, hy, tx, ty):
        tail, head = Point(tx, ty), Point(hx, hy)
        c = abs(head.z - tail.z)
        if c < 0.1:
            return
        arc = Arc(tail, head, segment_area(phi, c))
        A, B, D = arc_carrier(arc)
        zs = np.array([arc_point(arc, t).z for t in np.linspace(0.0, 1.0, 9)])
        # relative to the size of the terms over the arc's extent R
        R = np.abs(zs).max()
        size = abs(A) * R * R + 2.0 * abs(B) * R + abs(D)
        values = A * np.abs(zs) ** 2 + 2.0 * (B * zs).real + D
        assert np.abs(values).max() <= 1e-12 * size
        bA, bB, bD = arc_carrier(arc.reversed())
        scale = abs(A) + abs(B) + abs(D)
        assert abs(bA + A) + abs(bB + B) + abs(bD + D) <= 1e-12 * scale


class TestSecondIntersection:
    def test_concurrent_circles(self):
        # three circles through 0 and 2: centers on the perpendicular bisector
        carriers = [
            arc_carrier(arc_through(Point(0, 0), Point.of(1 + y * 1j), Point(2, 0)))
            for y in (0.5, 1.0, -0.7)
        ]
        q = second_intersection(*zip(*carriers))
        assert abs(q - 2.0) < 1e-9

    def test_three_lines_meet_at_infinity(self):
        carriers = [
            arc_carrier(Arc(Point(0, 0), Point.of(cmath.exp(1j * a)), 0.0))
            for a in (0.0, 2.1, 4.2)
        ]
        assert second_intersection(*zip(*carriers)) is AT_INFINITY

    def test_tiny_circles(self):
        # the same three circles scaled by 1e-7 meet again at 2e-7
        carriers = [
            arc_carrier(
                arc_through(Point(0, 0), Point.of(1e-7 * (1 + y * 1j)), Point(2e-7, 0))
            )
            for y in (0.5, 1.0, -0.7)
        ]
        q = second_intersection(*zip(*carriers))
        assert abs(q - 2e-7) < 1e-9 * 2e-7

    def test_non_concurrent_raises(self):
        carriers = [
            arc_carrier(arc_through(Point(0, 0), Point.of(1 + y * 1j), Point(2, 0)))
            for y in (0.5, 1.0)
        ]
        shifted = arc_carrier(
            arc_through(Point(0, 0), Point(1, -1), Point(2.3, 0.1))
        )
        with pytest.raises(NotConcurrent):
            second_intersection(*zip(*carriers, shifted))

    def test_carrier_missing_the_origin_raises(self):
        carriers = [
            arc_carrier(arc_through(Point(0, 0), Point.of(1 + y * 1j), Point(2, 0)))
            for y in (0.5, 1.0)
        ]
        missing = arc_carrier(arc_through(Point(1e-3, 0), Point(1, -0.7), Point(2, 0)))
        with pytest.raises(NotConcurrent, match="pass through the base point"):
            second_intersection(*zip(*carriers, missing))


class TestMobius:
    def test_group_operations(self):
        m = MobiusMap.rotation(0.7).compose(MobiusMap.translation(1 + 2j))
        inv = m.inverse()
        for z in (0.3 + 0.1j, -2j, 5.0):
            assert abs(inv.apply(m.apply(z)) - z) < 1e-12

    def test_inversion_round_trip(self):
        m = MobiusMap.inversion_about(1j)
        inv = m.inverse()
        for z in (0.5, 2 + 2j):
            assert abs(inv.apply(m.apply(z)) - z) < 1e-12

    def test_arc_image_pointwise(self):
        arc = Arc(Point(1, 0), Point(2, 1), 0.3)
        m = MobiusMap.inversion_about(-1 + 0.5j)
        (tail, head), (phi,) = mobius_image(m, [arc.tail.z, arc.head.z], [(0, 1)], [arc.phi])
        img = Arc(Point.of(tail), Point.of(head), segment_area(phi, abs(head - tail)))
        A, B, D = arc_carrier(img)
        zs = np.array([m.apply(arc_point(arc, t).z) for t in np.linspace(0.0, 1.0, 9)])
        # every mapped point lies on the image's carrier, relative to the
        # size of the carrier's terms over the image's extent R
        R = np.abs(zs).max()
        size = abs(A) * R * R + 2.0 * abs(B) * R + abs(D)
        values = A * np.abs(zs) ** 2 + 2.0 * (B * zs).real + D
        assert np.abs(values).max() <= 1e-12 * size
        # and on the image arc itself, not on the rest of its circle
        assert np.abs(arc_point(img, 0.5).z - zs).min() < 0.5 * img.chord_length()

    def test_pole_on_arc_rejected(self):
        with pytest.raises(GeometryDomainError, match="pole"):
            mobius_image(MobiusMap.inversion_about(0j), [-1.0, 1.0], [(0, 1)], [0.0])

    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
    def test_pole_test_is_relative_to_the_chord(self, s):
        # a semicircle below the chord from -s to s: poles within 1e-6 chords
        # of it are refused, poles off it or on the rest of its circle are not
        def image(z):
            return mobius_image(MobiusMap.inversion_about(z), [-s, s], [(0, 1)], [math.pi / 2])

        for z in (-1j * s, -1j * s * (1 + 5e-7), s * (1 + 5e-7), -s):
            with pytest.raises(GeometryDomainError, match="pole"):
                image(z)
        for z in (1j * s, -1j * s * (1 + 1e-5), 0j, 2 * s):
            image(z)

    def test_apply_point(self):
        assert MobiusMap.scaling(2.0).apply(1 + 1j) == 2 + 2j
        # the determinant and pole tests are relative to the map's entries
        for s in (1e-13, 1e20):
            assert MobiusMap.scaling(s).apply(1 + 1j) == complex(s, s)
