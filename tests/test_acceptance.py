"""Acceptance suite: end-to-end properties with pinned tolerances.

Each test class corresponds to one acceptance criterion.  Expected counts
that differ from the generic-position predictions (the symmetric necklace
cases) carry comments explaining the measured geometry.
"""

import math

import numpy as np
import pytest

import foamlab as fl
from foamlab.geometry import (
    Arc,
    Point,
    arc_carrier,
    arc_length,
    arc_point,
    bulge_angle_from_area,
    segment_area,
)
from foamlab.variation import RANK_REL

from conftest import face_area


def outer_centers(cluster):
    """Centers -conj(B)/A of the outer edges' carriers."""
    carriers = [
        arc_carrier(cluster.arc_of(j))
        for j in range(cluster.e)
        if fl.EXTERIOR in (cluster.edges[j].left, cluster.edges[j].right)
    ]
    return [-B.conjugate() / A for A, B, D in carriers]


class TestCriterion1LawOfCosines:
    """Center distance of a double bubble: d^2 = r1^2 + r2^2 - r1*r2."""

    def test_identity_on_random_radii(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            r1 = float(rng.uniform(0.3, 2.0))
            r2 = float(rng.uniform(0.3, 2.0))
            a, b = outer_centers(fl.double_bubble(r1, r2))
            d = abs(a - b)
            assert d * d == pytest.approx(r1 * r1 + r2 * r2 - r1 * r2, abs=1e-9)

    def test_distance_minimized_at_half_radius(self):
        def dist(r2):
            a, b = outer_centers(fl.double_bubble(1.0, r2))
            return abs(a - b)

        h = 1e-5
        deriv = lambda r2: (dist(r2 + h) - dist(r2 - h)) / (2 * h)
        assert deriv(0.5 - 2e-4) < 0 < deriv(0.5 + 2e-4)
        lo, hi = 0.3, 0.8
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if deriv(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(0.5, abs=1e-4)


class TestCriterion2EulerCounts:
    def test_all_presets(self, equilibrium_presets, quasi_presets):
        for name, c in {**equilibrium_presets, **quasi_presets}.items():
            assert c.v == 2 * (c.n - 1), name
            assert c.e == 3 * (c.n - 1), name


class TestCriterion3AreaJacobianRank:
    def test_full_rank_with_clear_gap(self, equilibrium_presets):
        for name in ("double", "triple", "four", "two_lens", "flower", "necklace6"):
            c = equilibrium_presets[name]
            s = np.linalg.svd(fl.area_jacobian(c), compute_uv=False)
            cutoff = RANK_REL * s[0]
            assert int((s > cutoff).sum()) == c.n, name
            assert s[-1] / cutoff >= 100.0, name


class TestCriterion4EquilibriumChecker:
    def test_equilibrium_presets(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            rep = fl.residuals(c)
            kscale = max(1.0, np.abs(c.kappas).max(), 1.0 / c.diameter())
            assert rep.angle_sup < 1e-9, name
            assert rep.cocycle_sup < 1e-9 * kscale, name
            p = fl.pressures(c)
            for ed in c.edges:
                kappa = arc_carrier(c.arc_of(ed.id))[0]
                assert abs(p[ed.left] - p[ed.right] - kappa) < 1e-9 * kscale, name

    def test_quasi_presets(self, quasi_presets):
        for name, c in quasi_presets.items():
            assert fl.classify(c) is fl.Verdict.QUASI_EQUILIBRIUM, name
            rep = fl.residuals(c)
            assert rep.angle_sup < 1e-9, name
            assert rep.cocycle_sup > 1e-9, name


class TestCriterion5MobiusInvariance:
    def test_fifty_random_maps(self, triple):
        rng = np.random.default_rng(7)
        for i in range(50):
            m = fl.random_mobius(triple, rng)
            img = fl.mobius_apply_cluster(m, triple)
            assert fl.classify(img) is fl.Verdict.EQUILIBRIUM, i
            rep = fl.residuals(img)
            assert rep.angle_sup < 1e-8, i
            kscale = max(1.0, np.abs(img.kappas).max(), 1.0 / img.diameter())
            assert rep.cocycle_sup < 1e-8 * kscale, i

    def test_verdicts_hold_at_every_scale_and_image(self, equilibrium_presets):
        # every tolerance is read in the unit frame: copies scaled by 1e-6 and
        # 1e6 of each preset and of two random_mobius images give the
        # unit-scale classify verdict, pressures * diameter and stability
        # classification
        def verdicts(c):
            try:
                p = fl.pressures(c) * c.diameter()
            except fl.PathInconsistent:
                p = None
            return fl.classify(c), p, fl.stability_report(c, m=32).classification

        clusters = dict(equilibrium_presets, unstable=fl.necklace(7, 0.05))
        for name, c in clusters.items():
            for seed in (None, 2, 3):
                image = c
                if seed is not None:
                    image = fl.mobius_apply_cluster(fl.random_mobius(c, np.random.default_rng(seed)), c)
                verdict, p, label = verdicts(image)
                for s in (1e-6, 1e6):
                    got = verdicts(fl.mobius_apply_cluster(fl.MobiusMap.scaling(s), image))
                    assert got[0] is verdict and got[2] == label, (name, seed, s)
                    if p is None:
                        assert got[1] is None, (name, seed, s)
                    else:
                        assert np.abs(got[1] - p).max() <= 1e-9 * np.abs(p).max(), (name, seed, s)


class TestCriterion6DimensionCounts:
    # nullity modulo rigid motions: (free areas, fixed areas)
    EXPECTED = {
        "double": (2, 0),
        "triple": (3, 0),
        "four": (4, 0),
        "two_lens": (4, 1),
        "flower": (5, 0),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_generic_presets(self, name, equilibrium_presets):
        c = equilibrium_presets[name]
        free = fl.tangent_dimension(c)
        fixed = fl.tangent_dimension(c, fix_areas=True)
        assert (free.nullity, fixed.nullity) == self.EXPECTED[name]
        assert free.gap_ratio > 100.0 and fixed.gap_ratio > 100.0

    def test_free_nullity_equals_region_count_when_strictly_stable(
        self, equilibrium_presets
    ):
        for name in ("double", "triple", "four", "flower"):
            c = equilibrium_presets[name]
            assert fl.tangent_dimension(c).nullity == c.n, name

    def test_necklace_six(self, necklace6):
        # At k = 6 the 120-degree angle conditions force straight chamber
        # walls, so the chamber pressure equals the bubble pressure and the
        # zero-pressure sliding family does not exist: the cluster is
        # isolated modulo rigid motions once areas are fixed.
        assert fl.tangent_dimension(necklace6, fix_areas=True).nullity == 0

    def test_necklace_seven(self, necklace7):
        # The zero-pressure chamber exists from k = 7 on.  Sliding the seven
        # bubbles gives k - 2 parameters, minus 2 forced closures and minus a
        # rotation: k - 5 = 2 generic family directions.  The symmetric
        # necklace is additionally a critical point of the chamber-area
        # function along the sliding family, so fixing the chamber area cuts
        # no tangent directions there and the linearized count is k - 3 = 4.
        assert fl.tangent_dimension(necklace7, fix_areas=True).nullity == 4


class TestCriterion7Continuation:
    def test_twenty_random_targets(self, triple):
        rng = np.random.default_rng(11)
        base = fl.region_areas(triple)
        for i in range(20):
            target = base * (1.0 + rng.uniform(-0.05, 0.05, base.size))
            family = fl.continue_family(triple, target, steps=4)
            assert fl.region_areas(family[-1]) == pytest.approx(
                target, abs=1e-8
            ), i
            assert fl.classify(family[-1]) is fl.Verdict.EQUILIBRIUM, i

    def test_distinct_targets_give_distinct_equilibria(self, triple):
        base = fl.region_areas(triple)
        a = fl.continue_family(triple, base * np.array([1.04, 1.0, 1.0]), steps=4)
        b = fl.continue_family(triple, base * np.array([1.0, 1.04, 1.0]), steps=4)
        assert np.linalg.norm(a[-1].chart() - b[-1].chart()) > 1e-6


class TestCriterion8DeSitterVerifier:
    def test_equilibrium_presets_pass(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            rep = fl.verify_correspondence(c)
            assert rep.collinearity.max() < 1e-8, name
            assert rep.spacing.max() < 1e-8, name
            assert rep.antipodality.max() < 1e-10, name
            assert rep.passed, name

    def test_quasi_presets_fail_collinearity(self, quasi_presets):
        for name, c in quasi_presets.items():
            rep = fl.verify_correspondence(c)
            assert (rep.collinearity > 1e-8).any(), name
            assert not rep.passed, name

    def test_perturbation_defect_window(self, triple):
        rng = np.random.default_rng(1)
        x = triple.chart()
        pert = triple.with_chart(x + 1e-3 * rng.standard_normal(x.size))
        rep = fl.verify_correspondence(pert)
        worst = max(rep.collinearity.max(), rep.spacing.max())
        assert 1e-4 < worst < 1e-2


class TestCriterion9Decoration:
    def test_round_trip_displacement(self, triple):
        c = fl.decorate(triple, 0, 0.25)
        back = fl.scale_three_sided(c, c.n, 0.0)
        assert back.v == triple.v and back.n == triple.n
        disp = max(
            min(abs(p.z - q.z) for q in back.vertices) for p in triple.vertices
        )
        assert disp < 1e-7

    def test_far_vertices_pinned_during_scaling(self, triple):
        c = fl.decorate(triple, 0, 0.25)
        walk = c.topology.walks[c.n]
        bubble_vertices = set(c.topology.ends.flat[walk].tolist())
        touched = set(bubble_vertices)
        for ed in c.edges:
            if ed.tail in bubble_vertices or ed.head in bubble_vertices:
                touched |= {ed.tail, ed.head}
        scaled = fl.scale_three_sided(c, c.n, 0.5)
        for i in range(c.v):
            if i not in touched:
                assert abs(scaled.vertices[i].z - c.vertices[i].z) < 1e-9


class TestCriterion10Stability:
    def test_double_bubble_strictly_stable_under_refinement(self, double):
        for m in (64, 128):
            rep = fl.stability_report(double, m=m)
            assert rep.classification == "StrictlyStable", m

    def test_two_lens_single_zero_mode(self, two_lens):
        assert fl.stability_report(two_lens).classification == "Degenerate(1)"

    def test_necklace_six(self, necklace6):
        # no zero-pressure chamber exists at k = 6 (straight walls force the
        # chamber pressure to match the bubbles), so there is no sliding
        # degeneracy: the cluster is strictly stable
        assert fl.stability_report(necklace6).classification == "StrictlyStable"

    def test_necklace_seven_degenerate(self, necklace7):
        # the floppy sliding modes of the zero-pressure chamber appear as
        # Hessian zero modes, matching the fixed-area tangent count
        assert fl.stability_report(necklace7).classification == "Degenerate(4)"

    def test_flower_strictly_stable(self, flower):
        assert fl.stability_report(flower).classification == "StrictlyStable"


class TestCriterion11NumericalHygiene:
    def test_bulge_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            phi = float(rng.uniform(-3.0, 3.0))
            c = float(rng.uniform(0.1, 10.0))
            assert bulge_angle_from_area(c, segment_area(phi, c)) == pytest.approx(
                phi, abs=1e-12
            )

    def test_arc_length_and_area_against_polyline(self):
        arc = Arc(Point(0, 0), Point(2, 0), segment_area(1.1, 2.0))
        z = np.array([arc_point(arc, t).z for t in np.linspace(0, 1, 10_001)])
        poly_len = float(np.abs(np.diff(z)).sum())
        shoelace = 0.5 * float(
            np.sum(z[:-1].real * z[1:].imag - z[1:].real * z[:-1].imag)
        )
        assert arc_length(arc) == pytest.approx(poly_len, rel=1e-6)
        assert arc.bulge == pytest.approx(shoelace, rel=1e-6)

    def test_discretization_second_order(self, double):
        exact = fl.perimeter(double)
        errs = [
            abs(fl.discretize(double, m).perimeter() - exact) for m in (16, 32, 64)
        ]
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 < s < 2.2 for s in slopes)

    def test_analytic_half_angle_jacobian_matches_finite_differences(self, triple):
        J = fl.area_jacobian(triple)
        h = 1e-6
        x0 = triple.chart()
        for j in range(triple.e):
            k = 2 * triple.v + j
            xp, xm = x0.copy(), x0.copy()
            xp[k] += h
            xm[k] -= h
            fd = (
                fl.region_areas(triple.with_chart(xp))
                - fl.region_areas(triple.with_chart(xm))
            ) / (2 * h)
            assert np.abs(J[:, k] - fd).max() < 1e-6

    def test_exact_vertex_jacobian_matches_finite_differences(self, equilibrium_presets):
        # the vertex columns are closed form; central differences of the
        # face-walk areas stay the oracle
        for name, c in equilibrium_presets.items():
            J = fl.area_jacobian(c)
            h = 1e-6 * c.diameter()
            x0 = c.chart()
            for k in range(2 * c.v):
                xp, xm = x0.copy(), x0.copy()
                xp[k] += h
                xm[k] -= h
                cp, cm = c.with_chart(xp), c.with_chart(xm)
                fd = np.array(
                    [
                        face_area(cp, cp.topology.walks[r]) - face_area(cm, cm.topology.walks[r])
                        for r in range(1, c.n + 1)
                    ]
                ) / (2 * h)
                assert np.abs(J[:, k] - fd).max() <= 1e-8 * np.abs(J).max(), (name, k)
