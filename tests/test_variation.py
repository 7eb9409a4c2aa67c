import math

import numpy as np
import pytest

import foamlab as fl
from foamlab.cluster import shoelace_gradient
from foamlab.geometry import arc_point, arc_tangent
from foamlab.variation import DiscreteCluster, rigid_motion_basis


def dense_stability_eigenvalues(cluster, m):
    """Oracle for ``stability_report``, for m <= 64: the second variation
    assembled in position space (2P x 2P), reduced to junction motions and
    interior normal motions by the dense matrix B, projected onto the
    complement of the area and rigid-motion rows, and solved as the
    generalized pencil (Q^T H Q, Q^T M Q) through a Cholesky factor of
    Q^T M Q."""
    disc = fl.discretize(cluster, m)
    press = fl.pressures(cluster)
    pts = disc.points
    P = pts.size
    pairs, pair_edge = disc.segments

    H = np.zeros((2 * P, 2 * P))
    point_mass = np.zeros(P)
    for (a, b), j in zip(pairs, pair_edge):
        d = pts[b] - pts[a]
        u = np.array([d.real, d.imag]) / abs(d)
        blk = (np.eye(2) - np.outer(u, u)) / abs(d)
        sa, sb = slice(2 * a, 2 * a + 2), slice(2 * b, 2 * b + 2)
        H[sa, sa] += blk
        H[sb, sb] += blk
        H[sa, sb] -= blk
        H[sb, sa] -= blk
        # -kappa times the Hessian of the shoelace term (x_a y_b - y_a x_b) / 2
        ed = cluster.edges[j]
        w = -0.5 * (press[ed.left] - press[ed.right])
        H[2 * a, 2 * b + 1] += w
        H[2 * b + 1, 2 * a] += w
        H[2 * a + 1, 2 * b] -= w
        H[2 * b, 2 * a + 1] -= w
        point_mass[[a, b]] += 0.5 * abs(d)

    v = cluster.v
    D = 2 * v + cluster.e * (m - 1)
    B = np.zeros((2 * P, D))
    B[: 2 * v, : 2 * v] = np.eye(2 * v)
    col = 2 * v
    for j, idx in enumerate(disc.point_index):
        for k, pi in enumerate(idx[1:-1]):
            B[2 * pi, col] = disc.normals[j][k].real
            B[2 * pi + 1, col] = disc.normals[j][k].imag
            col += 1

    grads = cluster.topology.incidence @ shoelace_gradient(pts, pairs, pair_edge, cluster.e)
    rigid = np.zeros((3, 2 * P))
    rigid[0, 0::2] = 1.0
    rigid[1, 1::2] = 1.0
    rigid[2, 0::2] = -(pts.imag - pts.imag.mean())
    rigid[2, 1::2] = pts.real - pts.real.mean()
    constraints = np.vstack([grads, rigid]) @ B
    _, s, vt = np.linalg.svd(constraints, full_matrices=True)
    Q = vt[int((s > 1e-12 * s[0]).sum()) :].T

    Hp = Q.T @ B.T @ H @ B @ Q
    Mp = Q.T @ (B.T * np.repeat(point_mass, 2)) @ B @ Q
    Linv = np.linalg.inv(np.linalg.cholesky(Mp))
    return np.linalg.eigvalsh(Linv @ Hp @ Linv.T)


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

    def test_samples_match_arc_point_and_arc_tangent(self, equilibrium_presets):
        m = 16
        for name, c in equilibrium_presets.items():
            d = fl.discretize(c, m)
            assert d.point_index.shape == (c.e, m + 1) and d.normals.shape == (c.e, m - 1)
            tol = 1e-13 * c.diameter()
            for j in range(c.e):
                arc = c.arc_of(j)
                want = [arc_point(arc, k / m).z for k in range(m + 1)]
                assert np.abs(d.points[d.point_index[j]] - want).max() <= tol, name
                normals = [1j * arc_tangent(arc, k / m) for k in range(1, m)]
                assert np.abs(d.normals[j] - normals).max() <= 1e-13, name

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

    @pytest.mark.parametrize("m", [16, 32])
    def test_matches_dense_oracle(self, equilibrium_presets, m):
        for name, c in equilibrium_presets.items():
            rep = fl.stability_report(c, m=m)
            want = dense_stability_eigenvalues(c, m)
            assert rep.m == m and rep.eigenvalues.shape == want.shape, name
            assert np.abs(rep.eigenvalues - want).max() <= 1e-12 * np.abs(want).max(), name

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
