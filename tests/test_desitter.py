import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foamlab as fl
from foamlab.desitter import FORM_120
from foamlab.errors import GeometryDomainError
from foamlab.geometry import carrier_coefficients


def circle(cx, cy, r, ccw=True):
    """|z - c|^2 = r^2 oriented by sign s: (A, B, D) = s (1, -conj(c), |c|^2 - r^2) / r."""
    s = (1.0 if ccw else -1.0) / r
    c = complex(cx, cy)
    return fl.HermitianCircle(s, -s * c.conjugate(), s * (abs(c) ** 2 - r * r))


def line(px, py, theta):
    return fl.HermitianCircle(
        *carrier_coefficients(complex(px, py), cmath.exp(1j * theta), 0.0)
    )


def center(h):
    return -h.B.conjugate() / h.A


class TestCalibration:
    def test_unit_ccw_circle(self):
        p = fl.circle_to_point(circle(0, 0, 1))
        assert (p.t, p.x, p.y, p.z) == (0.0, 0.0, 0.0, 1.0)

    def test_orientation_is_antipode(self):
        p = fl.circle_to_point(circle(0, 0, 1, ccw=False))
        assert (p.t, p.x, p.y, p.z) == (0.0, 0.0, 0.0, -1.0)

    def test_three_concurrent_lines_at_120(self):
        pts = [
            fl.circle_to_point(line(0, 0, 2 * math.pi * k / 3)) for k in range(3)
        ]
        for a in range(3):
            for b in range(a + 1, 3):
                assert fl.minkowski_form(pts[a], pts[b]) == pytest.approx(
                    FORM_120, abs=1e-12
                )

    def test_quadric_value(self):
        p = fl.circle_to_point(circle(3, 0, 1))
        assert fl.minkowski_form(p, p) == pytest.approx(-1.0, abs=1e-12)
        assert fl.minkowski_form(p, p.antipode()) == pytest.approx(1.0, abs=1e-12)


class TestRoundTrip:
    @given(
        cx=st.floats(-4, 4),
        cy=st.floats(-4, 4),
        r=st.floats(0.05, 5.0),
        ccw=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_circles(self, cx, cy, r, ccw):
        c = circle(cx, cy, r, ccw)
        back = fl.point_to_circle(fl.circle_to_point(c))
        assert back.A != 0.0
        assert abs(center(back) - center(c)) < 1e-10 * max(1.0, abs(center(c)))
        assert 1.0 / abs(back.A) == pytest.approx(r, rel=1e-10)
        assert (back.A > 0) == ccw

    @given(px=st.floats(-4, 4), py=st.floats(-4, 4), theta=st.floats(0, 6.28))
    @settings(max_examples=150, deadline=None)
    def test_lines(self, px, py, theta):
        c = line(px, py, theta)
        back = fl.point_to_circle(fl.circle_to_point(c))
        assert back.A == 0.0
        # B = i conj(direction)
        assert abs(back.B - c.B) < 1e-10
        # the base point lies on the recovered line
        p = complex(px, py)
        assert abs(2.0 * (back.B * p).real + back.D) < 1e-9

    def test_hermitian_round_trip(self):
        h = circle(1, 2, 0.5, ccw=False)
        back = fl.point_to_circle(fl.circle_to_point(h))
        assert back.A < 0 and 1.0 / abs(back.A) == pytest.approx(0.5)
        flipped = back.negated()
        ccw = circle(1, 2, 0.5)
        assert (flipped.A, flipped.B, flipped.D) == pytest.approx((ccw.A, ccw.B, ccw.D))

    def test_normalization_is_relative(self):
        # a radius-1.3e-4 circle centred near 12.5 has entries near 1e6, so
        # AD - |B|^2 = -1 holds only to their rounding, here 3.8e-6
        c = circle(10.3, 7.1, 1.3e-4)
        back = fl.point_to_circle(fl.circle_to_point(c))
        assert center(back) == pytest.approx(10.3 + 7.1j, rel=1e-12)
        assert 1.0 / back.A == pytest.approx(1.3e-4, rel=1e-9)

    def test_invalid_point_rejected(self):
        with pytest.raises(GeometryDomainError):
            fl.DeSitterPoint(1.0, 0.0, 0.0, 0.0)


class TestJunctionTriples:
    def test_counts(self, triple):
        triples = fl.junction_triples(triple)
        assert len(triples) == triple.v
        assert all(len(t) == 3 for t in triples)

    def test_double_bubble_antipodal_triples(self, double):
        a, b = fl.junction_triples(double)
        # the same three carriers leave both junctions with opposite
        # orientations: the two triples are antipodal as point sets
        for p in a:
            assert min(
                np.linalg.norm(p.coords() + q.coords()) for q in b
            ) < 1e-12

    def test_rotation_preserves_form_values(self, triple, rng):
        m = fl.MobiusMap.rotation(0.7, about=0.3 + 0.1j)
        img = fl.mobius_apply_cluster(m, triple)
        before = fl.junction_triples(triple)
        after = fl.junction_triples(img)
        for ta, tb in zip(before, after):
            fa = sorted(
                fl.minkowski_form(ta[i], ta[j]) for i in range(3) for j in range(i)
            )
            fb = sorted(
                fl.minkowski_form(tb[i], tb[j]) for i in range(3) for j in range(i)
            )
            assert fa == pytest.approx(fb, abs=1e-9)


class TestVerifyCorrespondence:
    @pytest.mark.parametrize("s", [1e-6, 1e-4, 1e-3, 1e3, 1e4, 1e6])
    def test_scaled_equilibrium_presets_pass(self, equilibrium_presets, s):
        for name, c in equilibrium_presets.items():
            scaled = fl.mobius_apply_cluster(fl.MobiusMap.scaling(s), c)
            rep = fl.verify_correspondence(scaled, tol=1e-8)
            assert rep.passed, (name, rep.collinearity.max(), rep.spacing.max())

    def test_equilibrium_presets_pass(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            rep = fl.verify_correspondence(c, tol=1e-8)
            assert rep.passed, (name, rep.collinearity.max(), rep.spacing.max())
            assert rep.antipodality.max() < 1e-10, name

    def test_quasi_fails_collinearity_not_spacing(self, quasi_presets):
        for name, c in quasi_presets.items():
            rep = fl.verify_correspondence(c, tol=1e-8)
            assert not rep.passed, name
            assert rep.spacing.max() < 1e-8, name
            assert rep.collinearity.max() > 1e-6, name

    def test_perturbation_defect_scales(self, triple):
        rng = np.random.default_rng(1)
        x = triple.chart()
        pert = triple.with_chart(x + 1e-3 * rng.standard_normal(x.size))
        rep = fl.verify_correspondence(pert)
        worst = max(rep.collinearity.max(), rep.spacing.max())
        assert 1e-4 < worst < 1e-2

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_bad_tol_is_a_domain_error(self, triple, tol):
        with pytest.raises(GeometryDomainError):
            fl.verify_correspondence(triple, tol=tol)

    def test_form_values_match_junction_triples(self, equilibrium_presets, rng):
        # the batched form values, taken in coordinates centred on each
        # junction, against the pairwise forms of the uncentred points: the
        # form is Mobius invariant
        for name, c in equilibrium_presets.items():
            img = fl.mobius_apply_cluster(fl.random_mobius(c, rng), c)
            for d in (c, img):
                rep = fl.verify_correspondence(d)
                pairs = [
                    [fl.minkowski_form(t[a], t[b]) for a, b in ((0, 1), (1, 2), (2, 0))]
                    for t in fl.junction_triples(d)
                ]
                assert np.abs(rep.form_values - pairs).max() < 1e-8, name

    def test_report_serializes(self, double):
        doc = fl.verify_correspondence(double).to_json()
        assert doc["passed"] is True
        assert len(doc["collinearity"]) == double.v
        assert len(doc["antipodality"]) == double.e
