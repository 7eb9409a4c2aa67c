import math
import re
import time
import warnings

import numpy as np
import pytest

import foamlab as fl
from foamlab import variation
from foamlab.cluster import area_jacobian, shoelace_gradient
from foamlab.equilibrium import residual_jacobian
from foamlab.geometry import arc_point, arc_tangent
from foamlab.variation import (
    HESSIAN_ZERO,
    DiscreteCluster,
    eliminated_hessian,
    rigid_motion_basis,
)


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


def bisection_smallest(hess, k):
    """Oracle for ``EliminatedHessian.smallest``: plain bisection on
    ``count_below`` for all k targets at once, from [-bound, bound], where
    53 halvings reach the float resolution at the bound."""
    target = np.arange(k)
    lo, hi = np.full(k, -hess.bound), np.full(k, hess.bound)
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        above = hess.count_below(mid) > target
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    return 0.5 * (lo + hi)


def full_schur(hess, sigma):
    """Oracle for ``EliminatedHessian._evaluate``: each Z(sigma) assembled
    whole, all 81 entries of every edge's 9 x 9 term scattered into both
    triangles (``np.add.at`` adds a coinciding column pair's two entries),
    and the counts below each sigma."""
    W, J = hess.coupling, hess.junction_dofs
    counts, mus = [], []
    for s in sigma:
        Z = hess.border.copy()
        Z[np.arange(J), np.arange(J)] -= s
        for lam, w, cols in zip(hess.lam, W, hess.columns):
            np.add.at(Z, (cols[:, None], cols[None, :]), -(w.T / (lam - s)) @ w)
        mu = np.linalg.eigvalsh(Z)
        counts.append((hess.lam < s).sum() + (mu < 0).sum() - hess.rank)
        mus.append(mu)
    return np.array(counts), np.array(mus)


class TestRigidMotionBasis:
    def test_orthonormal_rows(self, triple):
        R = rigid_motion_basis(triple)
        assert R.shape == (3, triple.chart().size)
        assert R @ R.T == pytest.approx(np.eye(3), abs=1e-12)

    def test_translations_kill_residual_change(self, triple):
        # translating all vertices leaves residuals and half-angles unchanged
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

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_counts_hold_at_every_scale_and_mobius_image(self, equilibrium_presets, scale):
        # the unit-scale (free, fixed) nullities on scaled copies and their
        # random_mobius images, whose bubbles differ in size by orders of
        # magnitude; the modes, mapped back from the unit chart, must be
        # kernel vectors of the chart Jacobian relative to its size
        expected = {**self.EXPECTED, "necklace6": (7, 0), "necklace7": (12, 4)}
        for name, c in equilibrium_presets.items():
            scaled = fl.mobius_apply_cluster(fl.MobiusMap.scaling(scale), c)
            for seed in (1, 2, 3):
                try:
                    m = fl.random_mobius(scaled, np.random.default_rng(seed))
                except fl.GeometryDomainError:  # double's seed-1 draw puts the pole on it
                    continue
                image = fl.mobius_apply_cluster(m, scaled)
                free = fl.tangent_dimension(image)
                fixed = fl.tangent_dimension(image, fix_areas=True)
                assert (free.nullity, fixed.nullity) == expected[name], (name, seed)
                assert not free.ambiguous and not fixed.ambiguous, (name, seed)
                J = np.vstack([residual_jacobian(image), area_jacobian(image)])
                for rep, stack in ((free, J[: 3 * image.v]), (fixed, J)):
                    B = rep.mode_basis
                    size = np.linalg.norm(stack) * np.linalg.norm(B)
                    assert np.linalg.norm(stack @ B.T) <= 1e-12 * size, (name, seed)


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
                for k in c.topology.walks[r].tolist():
                    idx = d.point_index[k >> 1]
                    z += [d.points[i] for i in (idx[::-1] if k & 1 else idx)[:-1]]
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
        with pytest.raises(fl.GeometryDomainError, match="m must be at least 8"):
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

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the zero band |lambda| diam^2 < 1 hides these "
        "negative modes, so the report says Degenerate(4)",
    )
    def test_slightly_negative_chamber_pressure_unstable(self):
        # the chamber pressure vanishes at r0; at 0.98 r0 it is -0.020 and
        # the four sliding modes have lambda diam^2 near -0.51 and -0.35
        r0 = math.sin(math.pi / 6 - math.pi / 7) / math.sin(math.pi / 7)
        c = fl.necklace(7, inner_radius=0.98 * r0)
        assert fl.stability_report(c, m=64).classification == "Unstable(4)"

    @pytest.mark.parametrize("r2", [0.9, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.005])
    def test_lopsided_double_bubbles_strictly_stable(self, r2):
        # the small bubble's two vertices span far less than the large arcs:
        # a band read against the vertex span counted the large arcs' modes
        # as zero modes (Degenerate(21) at r2 = 0.05)
        rep = fl.stability_report(fl.double_bubble(1.0, r2), m=64)
        assert rep.classification == "StrictlyStable"

    def test_lopsided_images_strictly_stable(self, double, triple):
        image = fl.mobius_apply_cluster(fl.random_mobius(double, np.random.default_rng(5)), double)
        lopsided = fl.solve(triple, (1.611, 1.611, 100.0))
        for c in (image, lopsided):
            assert fl.stability_report(c, m=64).classification == "StrictlyStable"

    def test_edge_blocks_tend_to_the_dirichlet_spectrum(self, double, triple, flower):
        # each edge block's smallest eigenvalues tend to the continuum
        # Dirichlet spectrum (k pi / L)^2 - kappa^2 of its arc at second
        # order: the error falls 4x per doubling of m
        k = np.arange(1, 4)
        for c in (double, triple, flower, fl.necklace(7, inner_radius=0.05)):
            unit = c.unit()
            exact = (k * np.pi / unit.lengths[:, None]) ** 2 - unit.kappas[:, None] ** 2
            errors = []
            for m in (32, 64, 128, 256):
                lam = eliminated_hessian(unit, m).lam[:, :3]
                errors.append(np.abs(lam - exact).max() / np.abs(exact).max())
            ratios = np.array(errors[:-1]) / errors[1:]
            assert np.all((3.8 <= ratios) & (ratios <= 4.2)), ratios

    @pytest.fixture(scope="class")
    def oracle_cases(self, equilibrium_presets):
        """The presets, an unstable necklace, and Möbius images of four and
        necklace(7), whose arcs differ in length and turn, so that every edge
        block has its own diagonal and off-diagonal; seed 1 draws maps with a
        pole."""
        cases = dict(equilibrium_presets, unstable=fl.necklace(7, inner_radius=0.05))
        poles = 0
        for name in ("four", "necklace7"):
            c = equilibrium_presets[name]
            for seed in (1, 2):
                m = fl.random_mobius(c, np.random.default_rng(seed))
                poles += m.pole() is not None
                cases[f"{name}_mobius{seed}"] = fl.mobius_apply_cluster(m, c)
        assert poles > 0
        return cases

    @pytest.mark.parametrize("m", [16, 32])
    def test_matches_dense_oracle(self, oracle_cases, m):
        for name, c in oracle_cases.items():
            rep = fl.stability_report(c, m=m)
            want = dense_stability_eigenvalues(c, m)
            k = rep.eigenvalues.size
            assert rep.m == m and k == min(6, want.size), name
            assert np.abs(rep.eigenvalues - want[:k]).max() <= 1e-12 * np.abs(want).max(), name
            tau = HESSIAN_ZERO / c.extent() ** 2
            negative, zero = int((want < -tau).sum()), int((np.abs(want) <= tau).sum())
            assert rep.zero_mode_count == zero, name
            if negative:
                assert rep.classification == f"Unstable({negative})", name
            else:
                assert not rep.classification.startswith("Unstable"), name
            if name == "unstable":
                assert negative == 4

    def test_count_below_matches_dense_oracle(self, oracle_cases):
        # counts at midpoints between oracle eigenvalues; the symmetric
        # presets have exact pairs ~1e-17 apart, and a count between those
        # is roundoff, so only gaps above 1e-9 relative are probed
        m = 16
        for name, c in oracle_cases.items():
            hess = eliminated_hessian(c, m)
            want = dense_stability_eigenvalues(c, m)
            assert hess.size == want.size, name
            assert np.abs(want).max() <= hess.bound, name
            gap = np.diff(want) > 1e-9 * np.abs(want).max()
            mid = 0.5 * (want[:-1] + want[1:])[gap]
            # batches of at most 64 sigmas keep the Schur stack small
            for chunk in np.array_split(mid, mid.size // 64 + 1):
                assert np.array_equal(hess.count_below(chunk), np.searchsorted(want, chunk)), name

    @pytest.mark.parametrize("m", [64, 128])
    def test_smallest_matches_bisection_oracle(self, oracle_cases, m):
        # both end within 2 * bound * 2^-53 brackets; the double bubble's
        # count is not monotone within ~1e-9 of its third eigenvalue, which
        # the two searches may resolve to different sides
        for name, c in oracle_cases.items():
            hess = eliminated_hessian(c.unit(), m)
            got, want = hess.smallest(6), bisection_smallest(hess, 6)
            assert np.abs(got - want).max() <= 1e-13 * hess.bound, (name, m)

    def test_evaluation_budget(self, equilibrium_presets):
        # the bisection from +-bound took 53 batches plus the verdict probes;
        # these 16 reports take 216 batches and 648 sigmas (7 to 19 batches
        # and 20 to 70 sigmas per report)
        clusters = dict(equilibrium_presets, unstable=fl.necklace(7, inner_radius=0.05))
        total = np.zeros(2, dtype=int)
        for m in (64, 128):
            for name, c in clusters.items():
                rep = fl.stability_report(c, m=m)
                batches, sigmas = rep.evaluations
                assert batches <= 24 and sigmas <= 80, (name, m)
                assert rep.rank == c.n + 3, (name, m)
                assert not rep.ambiguous, (name, m)
                total += rep.evaluations
        assert total[0] <= 220 and total[1] <= 680, total

    def test_evaluation_budget_on_similarity_images(self, triple):
        # the counts move with roundoff, so the cap is also read on seeded
        # rotations, scalings by e^U(-1/2, 1/2) and translations of triple,
        # where each report at m = 128 takes 15 to 21 batches
        centroid = sum(p.z for p in triple.vertices) / triple.v
        for seed in range(20):
            rng = np.random.default_rng(seed)
            move = fl.MobiusMap.rotation(rng.uniform(0.0, 2.0 * math.pi), about=centroid)
            move = fl.MobiusMap.scaling(math.exp(rng.uniform(-0.5, 0.5))).compose(move)
            move = fl.MobiusMap.translation(complex(*rng.normal(0.0, 0.3 * triple.diameter(), 2))).compose(move)
            rep = fl.stability_report(fl.mobius_apply_cluster(move, triple), m=128)
            assert rep.classification == "StrictlyStable", seed
            assert rep.evaluations[0] <= 24, (seed, rep.evaluations)

    @pytest.mark.parametrize("m", [16, 64])
    def test_lower_triangle_matches_full_schur(self, oracle_cases, m):
        # Z's lower triangle takes one entry per pair of an edge's columns;
        # a pair that shares a column (the exterior's zero area column and
        # region 1's) has a zero coupling, so its one entry is exact
        shared = 0
        for name, c in oracle_cases.items():
            hess = eliminated_hessian(c.unit(), m)
            for w, cols in zip(hess.coupling, hess.columns):
                a, b = np.nonzero(np.triu(cols[:, None] == cols[None, :], 1))
                assert np.all(w[:, a] * w[:, b] == 0.0), name
                shared += a.size
            sigma = np.linspace(-10.0, 100.0, 12)
            gap = np.abs(hess.lam_sorted[:, None] - sigma).min(axis=0)
            sigma = sigma[gap > 1e-9 * hess.bound]
            assert sigma.size >= 6, name
            count, mu, _ = hess._evaluate(sigma)
            want_count, want_mu = full_schur(hess, sigma)
            assert np.array_equal(count, want_count), name
            scale = np.abs(want_mu).max(axis=1, keepdims=True)
            assert np.all(np.abs(mu - want_mu) <= 1e-13 * scale), name
        assert shared > 0

    def test_smallest_k_is_at_most_the_size(self, triple):
        # a size-92 space has no 93rd eigenvalue: slicing for one would
        # report the Gershgorin bound
        hess = eliminated_hessian(triple.unit(), 16)
        assert hess.size == 92
        want = dense_stability_eigenvalues(triple.unit(), 16)
        got = hess.smallest(hess.size)
        assert np.abs(got - want).max() <= 1e-12 * hess.bound
        assert hess.smallest(0).shape == (0,)
        for bad in (93, 94, -1):
            with pytest.raises(fl.GeometryDomainError, match=f"got {bad}$"):
                hess.smallest(bad)
        for bad in (2.5, True, "6", None):
            with pytest.raises(fl.GeometryDomainError, match="k must be an integer"):
                hess.smallest(bad)

    def test_count_below_rejects_non_finite_sigma_and_poles(self, triple):
        # neither numpy's LinAlgError nor, on a pole, its divide-by-zero and
        # invalid-value warnings may escape
        hess = eliminated_hessian(triple.unit(), 16)
        pole = float(hess.lam.min())
        cases = {math.nan: "finite, got nan", math.inf: "finite, got inf",
                 -math.inf: "finite, got -inf", pole: f"sigma {pole!r} is an edge eigenvalue"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sigma, message in cases.items():
                with pytest.raises(fl.GeometryDomainError, match=re.escape(message)):
                    hess.count_below(np.array([[1.0, sigma]]))
            assert hess.count_below(pole + 1e-9 * hess.bound) >= 0

    @pytest.fixture()
    def batches(self, monkeypatch):
        """Every sigma batch that ``_evaluate`` is called with, in order."""
        seen = []
        evaluate = variation.EliminatedHessian._evaluate

        def record(self, sigma):
            seen.append(np.array(sigma))
            return evaluate(self, sigma)

        monkeypatch.setattr(variation.EliminatedHessian, "_evaluate", record)
        return seen

    def test_degenerate_pair_shares_one_sigma(self, triple, batches):
        # triple's 8.1058 and 29.628 (lambda diam^2) are double: the two
        # targets of each pair propose points a few ulps apart, which are
        # evaluated as one sigma, and both copies are still reported
        hess = eliminated_hessian(triple.unit(), 64)
        w = 2.0 * hess.bound * 2.0**-53
        got = hess.smallest(6)
        assert len(batches) > 10
        for sigma in batches:
            assert np.all(np.diff(np.sort(sigma)) >= w), sigma
        for pair, value in ((0, 8.1058), (4, 29.628)):
            assert got[pair : pair + 2] == pytest.approx([value, value], rel=1e-4)
            assert got[pair + 1] - got[pair] <= 1e-9 * value

    def test_first_batch_is_probes_and_ladder(self, double, batches):
        # the probes are the band +-HESSIAN_ZERO read against the arcs'
        # extent in the unit frame
        fl.stability_report(double, m=64)
        probe = HESSIAN_ZERO / double.unit().extent() ** 2
        want = sorted({-probe, probe, *variation.SLICE_LADDER})
        assert batches[0].tolist() == want

    def test_phase_timings(self, triple):
        start = time.perf_counter()
        rep = fl.stability_report(triple, m=64)
        wall = time.perf_counter() - start
        assert 0.0 < rep.assembly_s and 0.0 < rep.slicing_s
        assert rep.assembly_s + rep.slicing_s <= wall

    @pytest.mark.parametrize("bad", [8.5, None, "64", True, np.float64(64.0), np.bool_(True)])
    def test_non_integer_m_is_a_domain_error(self, double, bad):
        with pytest.raises(fl.GeometryDomainError, match="m must be an integer"):
            fl.stability_report(double, m=bad)
        with pytest.raises(fl.GeometryDomainError, match="m must be an integer"):
            fl.discretize(double, bad)

    def test_numpy_integer_m(self, double):
        rep = fl.stability_report(double, m=np.int64(16))
        assert rep.m == 16 and type(rep.m) is int
        assert rep.classification == fl.stability_report(double, m=16).classification
        assert fl.discretize(double, np.int32(16)).m == 16

    def test_probe_on_an_eigenvalue_is_ambiguous(self, double, monkeypatch):
        # a verdict probe on an eigenvalue leaves Z(sigma) singular up to
        # roundoff, so the side the count lands on means nothing
        unit = double.unit()
        lam = eliminated_hessian(unit, 64).smallest(1)[0]
        monkeypatch.setattr(variation, "HESSIAN_ZERO", lam * unit.extent() ** 2)
        assert fl.stability_report(double, m=64).ambiguous

    def test_scale_covariant(self, equilibrium_presets):
        # the chart scaling (vertices * s, half-angles kept) is an exact
        # similarity, so every eigenvalue scales by 1 / s^2: lambda * diam^2,
        # the zero modes and the verdict must not move
        clusters = dict(equilibrium_presets, unstable=fl.necklace(7, inner_radius=0.05))
        for name, c in clusters.items():
            x, J = c.chart(), 2 * c.v
            base = fl.stability_report(c, m=64)
            want = base.eigenvalues * c.diameter() ** 2
            for s in (1e-6, 1e-3, 1e3, 1e6):
                scaled = c.with_chart(np.concatenate([s * x[:J], x[J:]]))
                rep = fl.stability_report(scaled, m=64)
                assert rep.classification == base.classification, (name, s)
                assert rep.zero_mode_count == base.zero_mode_count, (name, s)
                got = rep.eigenvalues * scaled.diameter() ** 2
                assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), (name, s)

    def test_necklace_seven_first_order_convergence(self, necklace7):
        # the four sliding modes are spurious zeros of the polyline Hessian:
        # lambda * diam^2 halves per doubling of m (first-order convergence)
        scaled = []
        for m in (64, 128, 256):
            rep = fl.stability_report(necklace7, m=m)
            assert rep.classification == "Degenerate(4)", m
            scaled.append(rep.eigenvalues[:4] * necklace7.diameter() ** 2)
        for coarse, fine in zip(scaled, scaled[1:]):
            assert np.all((1.8 <= coarse / fine) & (coarse / fine <= 2.2))

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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_target_is_a_domain_error(self, triple, bad):
        with pytest.raises(fl.GeometryDomainError, match="target"):
            fl.continue_family(triple, [bad, 1.0, 1.0], steps=2)

    @pytest.mark.parametrize(
        "target, why",
        [
            ((1.0, 1.0, 0.0), "target areas"),
            ((1.0, 1.0, -1.0), "target areas"),
            ((1.0, 1.0, 1e-320), "target areas"),
            ((1e308, 1e308, 1e308), "target areas must have a finite sum"),
            ((1.0, 1.0), "one area per interior region"),
            ((1.0, 1.0, 1.0, 1.0), "one area per interior region"),
        ],
    )
    def test_bad_target_is_refused_before_the_first_solve(self, triple, target, why, monkeypatch):
        calls, solve = [], variation.solve
        monkeypatch.setattr(variation, "solve", lambda *args: calls.append(args) or solve(*args))
        with pytest.raises(fl.GeometryDomainError, match=why):
            fl.continue_family(triple, target)
        assert calls == []

    @pytest.mark.parametrize("bad", [2.5, True, None, "2", np.float64(2.0)])
    def test_non_integer_steps_is_a_domain_error(self, triple, bad):
        target = 1.05 * fl.region_areas(triple)
        with pytest.raises(fl.GeometryDomainError, match="steps must be an integer"):
            fl.continue_family(triple, target, steps=bad)

    def test_numpy_integer_steps(self, triple):
        target = 1.05 * fl.region_areas(triple)
        assert len(fl.continue_family(triple, target, steps=np.int64(2))) == 3

    def test_secant_start_falls_back_to_the_last_point(self, monkeypatch):
        # step 2's secant start of this lopsided path dies; that step is
        # solved again from step 1's cluster, and the path reaches its target
        errors, solve = [], variation.solve

        def recorded(*args):
            try:
                return solve(*args)
            except fl.FoamlabError as err:
                errors.append(err)
                raise

        monkeypatch.setattr(variation, "solve", recorded)
        path = fl.continue_family(fl.triple_bubble(), (1.0, 1.0, 100.0), steps=4)
        assert [(type(err), str(err)) for err in errors] == [
            (fl.TopologyBreakdown, "edge 4 approaching a full circle")
        ]
        assert all(fl.classify(c) is fl.Verdict.EQUILIBRIUM for c in path[1:])
        assert fl.region_areas(path[-1]) == pytest.approx([1.0, 1.0, 100.0], abs=1e-9 * path[-1].diameter() ** 2)

    def test_secant_start_takes_short_corrector_runs(self, monkeypatch):
        # from the third step on, the secant start is within two
        # Gauss-Newton steps of each point (three or four from the last point)
        lengths, minimize = [], fl.equilibrium.lm_minimize

        def recorded(*args):
            out, history = minimize(*args)
            lengths.append(len(history))
            return out, history

        t = fl.triple_bubble((1.0, 1.0, 1.0))
        start = fl.decorate(t, 0, 0.3 / t.chords[t.topology.stars[0] >> 1].min())
        monkeypatch.setattr(fl.equilibrium, "lm_minimize", recorded)
        path = fl.continue_family(start, (1.0, 1.0, 1.0, 1.0), steps=16)
        assert len(lengths) == 16 and max(lengths[2:]) <= 3
        assert sum(lengths) - len(lengths) < 16 * 3
        assert fl.region_areas(path[-1]) == pytest.approx([1.0] * 4, abs=1e-9)

    def test_iteration_budget_reaches_each_solve(self, triple):
        target = 1.3 * fl.region_areas(triple)
        with pytest.raises(fl.NonConvergence):
            fl.continue_family(triple, target, steps=2, max_iter=1)
        with pytest.raises(fl.GeometryDomainError):
            fl.continue_family(triple, target, steps=2, max_iter=0)

    @pytest.mark.parametrize("bad", [2.5, True, None, "100", np.float64(100.0)])
    def test_non_integer_iteration_budget_is_a_domain_error(self, triple, bad):
        target = 1.05 * fl.region_areas(triple)
        with pytest.raises(fl.GeometryDomainError, match="max_iter must be an integer"):
            fl.continue_family(triple, target, steps=2, max_iter=bad)
