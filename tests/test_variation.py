import math

import numpy as np
import pytest

import foamlab as fl
from foamlab.variation import DiscreteCluster, rigid_motion_basis


class TestRigidMotionBasis:
    def test_orthonormal_rows(self, triple):
        R = rigid_motion_basis(triple)
        assert R.shape == (3, triple.chart().size)
        assert R @ R.T == pytest.approx(np.eye(3), abs=1e-12)

    def test_translations_kill_residual_change(self, triple):
        # translating all vertices leaves residuals and bulges unchanged
        R = rigid_motion_basis(triple)
        x = triple.chart() + 1e-4 * R[0]
        rep = fl.residuals(triple.with_chart(x))
        assert rep.angle_sup < 1e-12


class TestTangentDimension:
    # nullities modulo rigid motions: (free areas, fixed areas)
    EXPECTED = {
        "double": (2, 0),
        "triple": (3, 0),
        "four": (4, 0),
        "two_lens": (4, 1),
        "flower": (5, 0),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_counts(self, name, equilibrium_presets):
        c = equilibrium_presets[name]
        free = fl.tangent_dimension(c)
        fixed = fl.tangent_dimension(c, fix_areas=True)
        assert (free.nullity, fixed.nullity) == self.EXPECTED[name]
        assert not free.ambiguous and not fixed.ambiguous

    def test_gap_ratio_comfortable(self, double):
        rep = fl.tangent_dimension(double)
        assert rep.gap_ratio > 100.0

    def test_mode_basis_shape(self, two_lens):
        rep = fl.tangent_dimension(two_lens, fix_areas=True)
        assert rep.mode_basis.shape == (rep.nullity, two_lens.chart().size)

    def test_necklace_sliding_modes(self, necklace7):
        # seven bubbles sliding around a zero-pressure chamber: the generic
        # family has k - 5 = 2 parameters, but the symmetric necklace is a
        # critical point of the chamber-area function along the sliding
        # family, so the area constraint drops no directions there and two
        # additional linearized modes survive: k - 3 = 4
        rep = fl.tangent_dimension(necklace7, fix_areas=True)
        assert rep.nullity == 4

    def test_necklace_six_is_rigid(self, necklace6):
        # at k = 6 the chamber walls are straight and the chamber pressure
        # cannot vanish; no area-preserving sliding family exists
        rep = fl.tangent_dimension(necklace6, fix_areas=True)
        assert rep.nullity == 0


class TestDiscretize:
    def test_shapes_and_shared_junctions(self, double):
        d = fl.discretize(double, 16)
        assert isinstance(d, DiscreteCluster)
        # every edge contributes m - 1 interior samples plus shared vertices
        assert d.points.size == double.v + double.e * 15

    def test_convergence_order_two(self, double):
        exact_p = fl.perimeter(double)
        exact_a = fl.region_areas(double)
        errs = []
        for m in (16, 32, 64):
            d = fl.discretize(double, m)
            errs.append(
                abs(d.perimeter() - exact_p)
                + float(np.abs(d.region_areas() - exact_a).sum())
            )
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 < s < 2.2 for s in slopes)

    def test_region_areas_match_polyline_walks(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            d = fl.discretize(c, 16)
            for r in range(1, c.n + 1):
                z = []
                for he in c.region_walks[r]:
                    idx = d.point_index[he[0]]
                    z += [d.points[i] for i in (idx if he[1] else idx[::-1])[:-1]]
                z = np.array(z)
                shoelace = 0.5 * float(np.sum((z.conj() * np.roll(z, -1)).imag))
                assert d.region_areas()[r - 1] == pytest.approx(shoelace, abs=1e-14), name

    def test_rejects_coarse_sampling(self, double):
        with pytest.raises((ValueError, fl.GeometryDomainError)):
            fl.discretize(double, 4)


class TestStability:
    def test_double_bubble_strictly_stable(self, double):
        for m in (64, 128):
            rep = fl.stability_report(double, m=m)
            assert rep.classification == "StrictlyStable", m
            assert rep.zero_mode_count == 0

    def test_two_lens_degenerate(self, two_lens):
        for m in (64, 128):
            rep = fl.stability_report(two_lens, m=m)
            assert rep.classification == "Degenerate(1)", m

    def test_flower_strictly_stable(self, flower):
        assert fl.stability_report(flower).classification == "StrictlyStable"

    def test_necklace_seven_floppy(self, necklace7):
        # the four fixed-area tangent modes reappear as Hessian zero modes
        assert fl.stability_report(necklace7).classification == "Degenerate(4)"

    def test_necklace_six_strictly_stable(self, necklace6):
        assert fl.stability_report(necklace6).classification == "StrictlyStable"

    def test_negative_chamber_pressure_unstable(self):
        c = fl.necklace(7, inner_radius=0.05)
        rep = fl.stability_report(c)
        assert rep.classification.startswith("Unstable")

    def test_eigenvalues_sorted(self, double):
        rep = fl.stability_report(double)
        assert np.all(np.diff(rep.eigenvalues) >= 0)


class TestContinueFamily:
    def test_reaches_target(self, triple):
        target = 1.05 * fl.region_areas(triple)
        family = fl.continue_family(triple, target, steps=5)
        assert len(family) == 6
        assert fl.region_areas(family[-1]) == pytest.approx(target, abs=1e-9)
        for c in family:
            assert fl.classify(c) is fl.Verdict.EQUILIBRIUM

    def test_distinct_targets_distinct_clusters(self, triple):
        a = fl.continue_family(triple, np.array([1.05, 1.0, 1.0]), steps=4)[-1]
        b = fl.continue_family(triple, np.array([1.0, 1.05, 1.0]), steps=4)[-1]
        assert np.linalg.norm(a.chart() - b.chart()) > 1e-6
