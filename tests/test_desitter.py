import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foamlab as fl
from foamlab.desitter import FORM_120, carrier, coordinates
from foamlab.errors import GeometryDomainError
from foamlab.geometry import carrier_coefficients


def circle(cx, cy, r, ccw=True):
    """|z - c|^2 = r^2 oriented by sign s: (A, B, D) = s (1, -conj(c), |c|^2 - r^2) / r."""
    s = (1.0 if ccw else -1.0) / r
    c = complex(cx, cy)
    return s, -s * c.conjugate(), s * (abs(c) ** 2 - r * r)


def line(px, py, theta):
    return carrier_coefficients(complex(px, py), cmath.exp(1j * theta), 0.0)


def center(A, B, D):
    return -B.conjugate() / A


class TestCalibration:
    def test_unit_ccw_circle(self):
        assert coordinates(*circle(0, 0, 1)).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_orientation_is_antipode(self):
        assert coordinates(*circle(0, 0, 1, ccw=False)).tolist() == [0.0, 0.0, 0.0, -1.0]

    def test_three_concurrent_lines_at_120(self):
        # the pairs (0, 1), (1, 2), (2, 0), formed over the last axis
        X = coordinates(*carrier_coefficients(0j, np.exp(2j * math.pi * np.arange(3) / 3), 0.0))
        assert X.shape == (3, 4)
        form = fl.minkowski_form(X, np.roll(X, -1, axis=0))
        assert form == pytest.approx([FORM_120] * 3, abs=1e-12)

    def test_quadric_value(self):
        p = coordinates(*circle(3, 0, 1))
        assert fl.minkowski_form(p, p) == pytest.approx(-1.0, abs=1e-12)
        assert fl.minkowski_form(p, -p) == pytest.approx(1.0, abs=1e-12)


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
        back = carrier(coordinates(*c))
        assert back[0] != 0.0
        assert abs(center(*back) - center(*c)) < 1e-10 * max(1.0, abs(center(*c)))
        assert 1.0 / abs(back[0]) == pytest.approx(r, rel=1e-10)
        assert (back[0] > 0) == ccw

    @given(px=st.floats(-4, 4), py=st.floats(-4, 4), theta=st.floats(0, 6.28))
    @settings(max_examples=150, deadline=None)
    def test_lines(self, px, py, theta):
        c = line(px, py, theta)
        A, B, D = carrier(coordinates(*c))
        assert A == 0.0
        # B = i conj(direction)
        assert abs(B - c[1]) < 1e-10
        # the base point lies on the recovered line
        p = complex(px, py)
        assert abs(2.0 * (B * p).real + D) < 1e-9

    def test_hermitian_round_trip(self):
        h = circle(1, 2, 0.5, ccw=False)
        back = carrier(coordinates(*h))
        assert back[0] < 0 and 1.0 / abs(back[0]) == pytest.approx(0.5)
        flipped = carrier(-coordinates(*back))
        assert flipped == pytest.approx(circle(1, 2, 0.5))

    def test_normalization_is_relative(self):
        # a radius-1.3e-4 circle centred near 12.5 has entries near 1e6, so
        # AD - |B|^2 = -1 holds only to their rounding, here 3.8e-6
        c = circle(10.3, 7.1, 1.3e-4)
        back = carrier(coordinates(*c))
        assert center(*back) == pytest.approx(10.3 + 7.1j, rel=1e-12)
        assert 1.0 / back[0] == pytest.approx(1.3e-4, rel=1e-9)

    @pytest.mark.parametrize(
        "X", [[1.0, 0.0, 0.0, 0.0], [[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]], [math.nan] * 4]
    )
    def test_invalid_point_rejected(self, X):
        with pytest.raises(GeometryDomainError):
            carrier(X)

    def test_preset_carriers_round_trip(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            carriers = c.carriers()
            X = coordinates(*carriers)
            assert X.shape == (c.e, 2, 4)
            assert np.abs(fl.minkowski_form(X, X) + 1.0).max() < 1e-12, name
            for got, want in zip(carrier(X), carriers):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


class TestJunctionTriples:
    def test_counts(self, triple):
        assert fl.junction_triples(triple).shape == (triple.v, 3, 4)

    def test_double_bubble_antipodal_triples(self, double):
        a, b = fl.junction_triples(double)
        # the same three carriers leave both junctions with opposite
        # orientations: the two triples are antipodal as point sets
        for p in a:
            assert min(np.linalg.norm(p + q) for q in b) < 1e-12

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
            rep = fl.verify_correspondence(scaled)
            assert rep.passed, (name, rep.collinearity.max(), rep.spacing.max())

    def test_equilibrium_presets_pass(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            rep = fl.verify_correspondence(c)
            assert rep.passed, (name, rep.collinearity.max(), rep.spacing.max())
            assert rep.antipodality.max() < 1e-10, name

    def test_quasi_fails_collinearity_not_spacing(self, quasi_presets):
        for name, c in quasi_presets.items():
            rep = fl.verify_correspondence(c)
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
