
import math
import re
import warnings

import numpy as np
import pytest

import foamlab as fl
from foamlab.cluster import _END_SIGN, rigid_motion_basis
from foamlab.constructions import _quasi_rows
from foamlab.errors import GeometryDomainError
from foamlab.geometry import AT_INFINITY, Point, arc_carrier, second_intersection

from conftest import tiny_decorated_image


class TestDoubleBubble:
    def test_outer_radii(self):
        c = fl.double_bubble(1.0, 0.6)
        outer = sorted(
            1.0 / abs(arc_carrier(c.arc_of(j))[0])
            for j in range(c.e)
            if c.edges[j].left == fl.EXTERIOR or c.edges[j].right == fl.EXTERIOR
        )
        assert outer == pytest.approx([0.6, 1.0], abs=1e-12)

    def test_interface_radius(self):
        # 1/r_interface = 1/r_small - 1/r_large
        c = fl.double_bubble(1.0, 0.6)
        iface = next(
            j
            for j in range(c.e)
            if fl.EXTERIOR not in (c.edges[j].left, c.edges[j].right)
        )
        assert abs(arc_carrier(c.arc_of(iface))[0]) == pytest.approx(1.0 / 0.6 - 1.0, abs=1e-12)

    def test_rejects_bad_radii(self):
        with pytest.raises((GeometryDomainError, ValueError)):
            fl.double_bubble(1.0, -1.0)


class TestPresetHalfAngles:
    """Presets are built from the closed-form half-angles their docstrings derive."""

    @pytest.mark.parametrize("r1, r2", [(1.0, 0.6), (1.0, 1.0), (0.7, 2.0)])
    def test_double_bubble(self, r1, r2):
        # x, d - x and y in the docstring's forms, which do not cancel
        d = math.sqrt(r1 * r1 + r2 * r2 - r1 * r2)
        x, w, y = r1 * (2 * r1 - r2) / (2 * d), r2 * (2 * r2 - r1) / (2 * d), 0.5 * math.sqrt(3) * r1 * r2 / d
        want = [math.pi - math.atan2(y, x), math.pi - math.atan2(y, w), math.asin(y * (1 / r1 - 1 / r2))]
        assert fl.double_bubble(r1, r2).phis.tolist() == want

    @pytest.mark.parametrize("k", range(3, 9))
    def test_double_bubble_at_tiny_radius_ratios(self, k):
        # radius ratios 10^-k either way: the vertices keep their digits, so
        # the angle sums stay at roundoff
        for r1, r2 in [(1.0, 10.0**-k), (10.0**-k, 1.0)]:
            c = fl.double_bubble(r1, r2)
            assert fl.classify(c) is fl.Verdict.EQUILIBRIUM
            assert fl.residuals(c).angle_sup <= 2e-15

    def test_double_bubble_refuses_a_near_full_circle(self):
        with pytest.raises(GeometryDomainError, match="near-full-circle"):
            fl.double_bubble(1.0, 1e-9)

    def test_triple_bubble(self, triple):
        assert triple.phis.tolist() == [0.0] * 3 + [math.pi / 2] * 3

    @pytest.mark.parametrize("k", [5, 6, 7, 9])
    def test_necklace(self, k):
        want = [0.0, math.pi / 6 + math.pi / k, math.pi / k - math.pi / 6] * k
        assert fl.necklace(k).phis.tolist() == want
        assert fl.necklace(k, 0.05).phis.tolist() == want

    def test_flower(self, flower):
        assert flower.phis.tolist() == [5 * math.pi / 12, 0.0, math.pi / 12] * 4


class TestTripleBubble:
    def test_standard(self, triple):
        assert (triple.v, triple.e, triple.n) == (4, 6, 3)
        assert fl.classify(triple) is fl.Verdict.EQUILIBRIUM

    def test_prescribed_areas(self):
        c = fl.triple_bubble(areas=(1.2, 0.8, 1.0))
        assert fl.region_areas(c) == pytest.approx([1.2, 0.8, 1.0], abs=1e-8)

    def test_areas_without_a_finite_sum_are_refused_before_the_rescale(self):
        # each area is finite, but the seed's rescale sqrt(sum / area_0) is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryDomainError, match="target areas must have a finite sum"):
                fl.triple_bubble((1e308, 1e308, 1e308))
            c = fl.triple_bubble((1e307, 1e307, 1e307))
        assert fl.classify(c) is fl.Verdict.EQUILIBRIUM
        assert fl.region_areas(c) == pytest.approx([1e307] * 3, rel=1e-9)


class TestDecoration:
    def test_inserts_three_sided_region(self, triple):
        c = fl.decorate(triple, 0, 0.2)
        assert (c.v, c.e, c.n) == (triple.v + 2, triple.e + 3, triple.n + 1)
        assert fl.classify(c) is fl.Verdict.EQUILIBRIUM
        walk = c.topology.walks[c.n]
        assert len(walk) == 3

    def test_preserves_far_geometry(self, triple):
        c = fl.decorate(triple, 0, 0.2)
        far = [
            i
            for i in range(triple.v)
            if i != 0
        ]
        # untouched vertices keep their exact coordinates
        kept = sum(
            any(abs(q.z - triple.vertices[i].z) < 1e-14 for q in c.vertices)
            for i in far
        )
        assert kept == len(far)

    def test_round_trip_identity(self, triple):
        c = fl.scale_three_sided(fl.decorate(triple, 1, 0.25), triple.n + 1, 0.0)
        assert c.v == triple.v and c.e == triple.e and c.n == triple.n
        disp = max(
            min(abs(p.z - q.z) for q in c.vertices) for p in triple.vertices
        )
        assert disp < 1e-7
        assert fl.region_areas(c) == pytest.approx(
            fl.region_areas(triple), abs=1e-9
        )

    @pytest.mark.parametrize("factor", [-1.0, math.nan, math.inf])
    def test_bad_factor_rejected(self, triple, factor):
        c = fl.decorate(triple, 0, 0.25)
        with pytest.raises(GeometryDomainError, match="factor"):
            fl.scale_three_sided(c, c.n, factor)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda c: fl.decorate(c, 1.5, 0.3), "vertex must be an integer, got 1.5"),
            (lambda c: fl.decorate(c, True, 0.3), "vertex must be an integer, got True"),
            (lambda c: fl.decorate(c, c.v, 0.3), "no vertex 4"),
            (lambda c: fl.scale_three_sided(fl.decorate(c, 0, 0.25), 4.0, 0.5), "region must be an integer, got 4.0"),
            (lambda c: fl.scale_three_sided(fl.decorate(c, 0, 0.25), 5, 0.5), "no interior region 5"),
            (lambda c: fl.necklace(7.5), "k must be an integer, got 7.5"),
        ],
        ids=["float_vertex", "bool_vertex", "vertex_past_the_end", "float_region", "region_past_the_end", "float_k"],
    )
    def test_indices_are_integers_in_range(self, triple, call, message):
        with pytest.raises(GeometryDomainError, match=f"^{re.escape(message)}$"):
            call(triple)

    def test_partial_shrink_stays_equilibrium(self, triple):
        c = fl.decorate(triple, 0, 0.25)
        half = fl.scale_three_sided(c, c.n, 0.5)
        assert fl.classify(half) is fl.Verdict.EQUILIBRIUM
        assert fl.region_areas(half)[-1] < fl.region_areas(c)[-1]

    @pytest.mark.parametrize("region", [1, 2])
    def test_coincident_common_points_are_a_domain_error(self, region):
        with pytest.raises(GeometryDomainError, match="common point"):
            fl.scale_three_sided(tiny_decorated_image(), region, 0.5)


def scaled(c, s):
    return fl.mobius_apply_cluster(fl.MobiusMap.scaling(s), c)


def assert_similar(a, b):
    """Same vertices and bulges, to 1e-12 of the diameter and its square."""
    va = np.array([p.z for p in a.vertices])
    vb = np.array([p.z for p in b.vertices])
    d = a.diameter()
    assert np.abs(va - vb).max() <= 1e-12 * d
    bulges = np.array([[ea.bulge, eb.bulge] for ea, eb in zip(a.edges, b.edges)])
    assert np.abs(bulges[:, 0] - bulges[:, 1]).max() <= 1e-12 * d * d


def assert_undone(back, c, vertex):
    """``back`` is ``c`` with ``vertex`` moved last, up to 1e-9 of the
    diameter (and its square for bulges); the edges keep their order, and
    those at ``vertex`` may now leave it."""
    assert (back.v, back.e, back.n) == (c.v, c.e, c.n)
    order = [i for i in range(c.v) if i != vertex] + [vertex]
    d = c.diameter()
    for j in range(c.e):
        a, b = back.arc_of(j), c.arc_of(j)
        if order[back.edges[j].tail] != c.edges[j].tail:
            a = a.reversed()
        assert abs(a.tail.z - b.tail.z) <= 1e-9 * d and abs(a.head.z - b.head.z) <= 1e-9 * d
        assert abs(a.bulge - b.bulge) <= 1e-9 * d * d


def junction_picture(c, vertex):
    """wq = 1 / (q - p), q the second common point of the junction's
    carriers by the pencil meet, or 0 where it is at infinity."""
    p, scale, star = c.points[vertex], c.diameter(), c.topology.stars[vertex]
    q = second_intersection(*(x.flat[star] for x in c.carriers(p, scale)))
    return 0j if q is AT_INFINITY else 1.0 / (scale * q)


def closed_form_picture(c, vertex):
    """wq = -(i/3) sum kappa conj(t) over the junction's leaving tangents."""
    star = c.topology.stars[vertex]
    kappas = (c.kappas[:, None] * _END_SIGN).flat[star]
    return -1j / 3.0 * (kappas * np.exp(-1j * c.alphas.flat[star])).sum()


def shortest_chord(c, vertex):
    return c.chords[c.topology.stars[vertex] >> 1].min()


VERTEX_COUNTS = {
    "double": 2, "triple": 4, "four": 6, "two_lens": 4,
    "necklace6": 12, "necklace7": 14, "flower": 8,
}


class TestJunctionPicture:
    """In w = 1 / (z - p) the carrier leaving p along t with curvature kappa
    is the line Im(t w) = -kappa / 2; at 120 degrees the three lines meet at
    the closed form exactly when the curvatures sum to zero."""

    def test_closed_form_is_the_pencil_meet(self, equilibrium_presets):
        rng = np.random.default_rng(4)
        for name, c in equilibrium_presets.items():
            copies = [c, scaled(c, 1e-6), scaled(c, 1e6)]
            copies += [fl.mobius_apply_cluster(fl.random_mobius(c, rng), c) for _ in range(2)]
            for copy in copies:
                d = copy.diameter()
                for vertex in range(copy.v):
                    got, want = closed_form_picture(copy, vertex), junction_picture(copy, vertex)
                    assert abs(got - want) * d <= 1e-12, (name, vertex)

    def test_quasi_junctions_are_not_concurrent(self, quasi_presets):
        # the junctions whose curvature sums fail the cocycle test, and only those
        refused = {"two_lens_recurved": [0, 1, 2, 3], "four_stretched": [1, 2, 4, 5]}
        for name, c in quasi_presets.items():
            got = []
            for vertex in range(c.v):
                try:
                    fl.decorate(c, vertex, 0.02)
                except fl.NotConcurrent:
                    got.append(vertex)
            assert got == refused[name]


class TestDecorationScaleCovariance:
    """``size`` is the circumradius in the :func:`_graft` picture of the
    junction, where |dz| = |dP| at p, in units of the junction's shortest
    chord: the same ``size`` decorates every similar copy alike."""

    @pytest.mark.parametrize(
        "make, vertex, size",
        [
            (lambda: fl.necklace(7), 0, 0.002),
            (lambda: fl.double_bubble(1.0, 0.7), 0, 0.1),
            (lambda: fl.two_lens(), 1, 0.1),
        ],
        ids=["necklace7", "double", "two_lens"],
    )
    def test_tiny_copy(self, make, vertex, size):
        c, s = make(), 1e-7
        want = scaled(fl.decorate(c, vertex, size), s)
        assert_similar(fl.decorate(scaled(c, s), vertex, size), want)

    def test_tiny_copy_at_straight_junction(self, triple):
        s = 1e-7
        want = scaled(fl.decorate(triple, 0, 0.2), s)
        assert_similar(fl.decorate(scaled(triple, s), 0, 0.2), want)

    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3, 1e6])
    @pytest.mark.parametrize(
        "name, vertex", [(name, v) for name, n in VERTEX_COUNTS.items() for v in range(n)]
    )
    def test_scaled_copy_and_round_trip(self, equilibrium_presets, name, vertex, s):
        c, size = equilibrium_presets[name], 0.02
        copy = scaled(c, s)
        decorated = fl.decorate(copy, vertex, size)
        assert_similar(decorated, scaled(fl.decorate(c, vertex, size), s))
        assert_undone(fl.scale_three_sided(decorated, c.n + 1, 0.0), copy, vertex)

    @pytest.mark.parametrize("name, vertex", [(name, v) for name, n in VERTEX_COUNTS.items() for v in range(n)])
    def test_area_share_is_scale_free(self, equilibrium_presets, name, vertex):
        c = equilibrium_presets[name]
        shares = []
        for s in (1e-6, 1.0, 1e6):
            areas = fl.region_areas(fl.decorate(scaled(c, s), vertex, 0.2))
            shares.append(areas[-1] / areas.sum())
        assert shares == pytest.approx([shares[1]] * 3, rel=1e-9)

    def test_mobius_images(self, equilibrium_presets, rng):
        """The circumradius at the junction scales by |m'(p)|: size times
        the shortest chord there, before and after the map."""
        for name, c in equilibrium_presets.items():
            for s in (1e-6, 1.0, 1e6):
                m = fl.MobiusMap.scaling(s).compose(fl.random_mobius(c, rng))
                image = fl.mobius_apply_cluster(m, c)
                for vertex in range(c.v):
                    p, size = c.vertices[vertex].z, 0.02
                    stretch = abs(m.a * m.d - m.b * m.c) / abs(m.c * p + m.d) ** 2
                    size_image = stretch * size * shortest_chord(c, vertex) / shortest_chord(image, vertex)
                    want = fl.mobius_apply_cluster(m, fl.decorate(c, vertex, size))
                    assert_similar(fl.decorate(image, vertex, size_image), want)

    def test_repeated_decoration_stays_in_equilibrium(self, triple):
        # each bubble is sized by its own junction's chords, so one next to
        # a small decoration is not far smaller still
        c = triple
        for vertex in [0, 5, 1, 2, 9, 11, 9, 15, 11, 16, 19, 14, 12, 8, 14, 14, 17, 31, 33, 26, 31, 44]:
            c = fl.decorate(c, vertex, 0.3)
        areas = fl.region_areas(c)
        assert c.n == 25 and fl.classify(c) is fl.Verdict.EQUILIBRIUM
        assert areas.min() > 1e-6 * areas.max()


class TestSurgerySweep:
    """Every decoration and every scaling of a three-sided region of it
    either raises a typed error or returns a valid equilibrium."""

    @staticmethod
    def judge(make, *args):
        try:
            c = make(*args)
        except fl.FoamlabError:
            return None
        assert fl.validate(c, check_disjoint=True).ok, (make.__name__, args[1:])
        assert fl.classify(c) is fl.Verdict.EQUILIBRIUM, (make.__name__, args[1:])
        return c

    @pytest.mark.parametrize("name", list(VERTEX_COUNTS))
    def test_unit_scale_presets_and_images(self, equilibrium_presets, name):
        c = equilibrium_presets[name]
        rng = np.random.default_rng(7)
        images = [c] + [fl.mobius_apply_cluster(fl.random_mobius(c, rng), c) for _ in range(2)]
        for image in images:
            for vertex in range(image.v):
                for size in (0.05, 0.2, 1.0):
                    decorated = self.judge(fl.decorate, image, vertex, size)
                    if decorated is None:
                        continue
                    walks = decorated.topology.walks
                    for region in (r for r in range(1, decorated.n + 1) if len(walks[r]) == 3):
                        for factor in (0.5, 2.0):
                            self.judge(fl.scale_three_sided, decorated, region, factor)


class TestFourBubble:
    def test_counts_and_verdict(self, four):
        assert (four.v, four.e, four.n) == (6, 9, 4)
        assert fl.classify(four) is fl.Verdict.EQUILIBRIUM

    def test_central_bubble_highest_pressure(self, four):
        p = fl.pressures(four)
        assert p[four.n] == pytest.approx(max(p), abs=1e-12)


class TestTwoLens:
    def test_counts_and_verdict(self, two_lens):
        assert (two_lens.v, two_lens.e, two_lens.n) == (4, 6, 3)
        assert fl.classify(two_lens) is fl.Verdict.EQUILIBRIUM

    def test_lens_pressures_equal(self, two_lens):
        p = fl.pressures(two_lens)
        assert p[2] == pytest.approx(p[3], rel=1e-9)
        assert p[1] < p[2]

    def test_ring_edges_border_big_region(self, two_lens):
        for j in (0, 1):
            ed = two_lens.edges[j]
            assert fl.EXTERIOR in (ed.left, ed.right)
            assert 1 in (ed.left, ed.right)


class TestNecklace:
    @pytest.mark.parametrize("k", [5, 6, 7, 9])
    def test_equilibrium(self, k):
        c = fl.necklace(k)
        assert (c.v, c.e, c.n) == (2 * k, 3 * k, k + 1)
        assert fl.classify(c) is fl.Verdict.EQUILIBRIUM

    def test_bubble_pressures_are_one(self, necklace7):
        p = fl.pressures(necklace7)
        assert p[1 : necklace7.n] == pytest.approx(np.ones(necklace7.n - 1), abs=1e-9)

    def test_chamber_pressure_zero_from_seven(self, necklace7):
        assert fl.pressures(necklace7)[-1] == pytest.approx(0.0, abs=1e-9)

    def test_six_bubble_chamber_walls_are_straight(self, necklace6):
        # at k = 6 the 120-degree conditions force flat chamber walls, so the
        # chamber pressure equals the bubble pressure: it cannot reach zero
        assert fl.pressures(necklace6)[-1] == pytest.approx(1.0, abs=1e-9)

    def test_small_chamber_negative_pressure(self):
        c = fl.necklace(7, inner_radius=0.05)
        assert fl.pressures(c)[-1] < 0.0
        assert fl.classify(c) is fl.Verdict.EQUILIBRIUM

    def test_rejects_small_k(self):
        with pytest.raises((GeometryDomainError, ValueError)):
            fl.necklace(4)


class TestFlower:
    def test_counts_and_verdict(self, flower):
        assert (flower.v, flower.e, flower.n) == (8, 12, 5)
        assert fl.classify(flower) is fl.Verdict.EQUILIBRIUM

    def test_four_equal_petals(self, flower):
        areas = fl.region_areas(flower)
        assert areas[:4] == pytest.approx(np.full(4, areas[0]), rel=1e-9)
        assert areas[4] < areas[0]

    def test_stated_numbering(self, flower):
        # corners k and separator ends 4 + k in direction k pi/2 from the
        # center; petal k + 1 counterclockwise of separator k, center 5
        center = sum(p.z for p in flower.vertices) / flower.v
        for k in range(4):
            for i in (k, 4 + k):
                w = flower.vertices[i].z - center
                assert w / abs(w) == pytest.approx(1j**k, abs=1e-12)
            assert abs(flower.vertices[k].z - center) < abs(flower.vertices[4 + k].z - center)
            petal, separator, inner = flower.edges[3 * k : 3 * k + 3]
            assert (petal.tail, petal.head, petal.left, petal.right) == (
                4 + k, 4 + (k + 1) % 4, k + 1, fl.EXTERIOR
            )
            assert (separator.tail, separator.head, separator.left) == (k, 4 + k, k + 1)
            assert (inner.tail, inner.head, inner.left, inner.right) == (k, (k + 1) % 4, 5, k + 1)
        assert flower.region_labels[5] == "center"

    def test_center_has_highest_pressure(self, flower):
        p = fl.pressures(flower)
        assert p[5] == pytest.approx(max(p), abs=1e-12)
        assert p[1] == pytest.approx(p[2], rel=1e-9)


class TestQuasiVariants:
    def test_verdicts(self, quasi_presets):
        for name, c in quasi_presets.items():
            assert fl.classify(c) is fl.Verdict.QUASI_EQUILIBRIUM, name

    def test_zero_amount_reproduces_base(self):
        assert fl.quasi_variant("two_lens_recurved", 0.0).chart() == pytest.approx(
            fl.two_lens().chart()
        )
        assert fl.quasi_variant("four_stretched", 0.0).chart() == pytest.approx(
            fl.four_bubble().chart()
        )

    def test_recurved_hits_curvature_targets(self, quasi_recurved, two_lens):
        for j in range(two_lens.e):
            want = two_lens.kappas[j] * (1.15 if j < 2 else 1.0)
            assert quasi_recurved.kappas[j] == pytest.approx(want, abs=1e-8)

    def test_recurved_is_an_isolated_point(self, quasi_recurved):
        # every curvature is stated, so the solved stack (angle rows, six
        # curvature pins, gauge rows) has full column rank where it stops;
        # the rows are read at the unit chart point, in the base's unit frame
        base, rows, jac = _quasi_rows("two_lens_recurved", 0.15)
        unit = quasi_recurved.with_chart(quasi_recurved.chart() / base.chart_units())
        sigma = np.linalg.svd(np.vstack([jac(unit), rigid_motion_basis(unit)]), compute_uv=False)
        assert sigma[-1] >= 1e-6 * sigma[0]
        assert np.abs(rows(unit)).max() < 1e-10
        assert fl.classify(quasi_recurved) is fl.Verdict.QUASI_EQUILIBRIUM
        assert fl.residuals(quasi_recurved).cocycle_sup > 1e-3

    def test_stretched_is_an_isolated_point(self, quasi_stretched, four):
        # the stretched chord, the straight stretched edge, the kept areas
        # and the gauge rows make the stack square and of full rank where it
        # stops: the preset is a point of the geometry, whatever the chart's metric
        base, rows, jac = _quasi_rows("four_stretched", 0.15)
        unit = quasi_stretched.with_chart(quasi_stretched.chart() / base.chart_units())
        J = np.vstack([jac(unit), rigid_motion_basis(unit)])
        sigma = np.linalg.svd(J, compute_uv=False)
        assert J.shape[0] == J.shape[1] and sigma[-1] >= 1e-6 * sigma[0]
        assert np.abs(rows(unit)).max() < 1e-10
        assert fl.region_areas(quasi_stretched) == pytest.approx(fl.region_areas(four), abs=1e-10)

    @pytest.mark.parametrize("amount", [0.15, 0.01])
    def test_stretched_keeps_the_base_gauge(self, four, amount):
        # lm_minimize's gauge rows place it: the base's vertex centroid and
        # orientation, read in the base's unit frame
        c = fl.quasi_variant("four_stretched", amount)
        unit = four.unit()
        x = c.chart() / four.chart_units()
        assert np.abs(rigid_motion_basis(unit) @ (x - unit.chart())).max() <= 1e-14

    @pytest.mark.parametrize("amount", [1e-9, 1e-6, 1e-3])
    def test_stretched_cocycle_defect(self, amount):
        # first order in the amount, about 11.7 per unit in the unit frame
        c = fl.quasi_variant("four_stretched", amount)
        assert fl.residuals(c.unit()).cocycle_sup == pytest.approx(11.697 * amount, rel=1e-3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(GeometryDomainError):
            fl.quasi_variant("bogus")

    @pytest.mark.parametrize("kind", ["two_lens_recurved", "four_stretched"])
    @pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf])
    def test_non_finite_amount_rejected(self, kind, amount):
        with pytest.raises(GeometryDomainError, match="amount"):
            fl.quasi_variant(kind, amount)


class TestConstructorsValidate:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: fl.decorate(fl.triple_bubble(), 0, 1e-10),
            lambda: fl.scale_three_sided(fl.four_bubble(), 4, 1e-12),
            lambda: fl.two_lens(1e-12, 0.8),
            lambda: fl.necklace(7, 1e-12),
            lambda: fl.flower(1e-12),
        ],
        ids=["decorate", "scale_three_sided", "two_lens", "necklace", "flower"],
    )
    def test_collapsed_chords_raise(self, build):
        # each returned a cluster with chords below the floor, which
        # validate rejects
        with pytest.raises(GeometryDomainError, match=r"^invalid cluster: edge_chords: degenerate edges"):
            build()


class TestMobiusInvariance:
    def test_random_maps_preserve_equilibrium(self, triple, rng):
        for _ in range(10):
            m = fl.random_mobius(triple, rng)
            img = fl.mobius_apply_cluster(m, triple)
            assert fl.classify(img) is fl.Verdict.EQUILIBRIUM
            rep = fl.residuals(img)
            assert rep.angle_sup < 1e-8

    def test_cluster_image_is_the_per_edge_image(self, equilibrium_presets, rng):
        for c in equilibrium_presets.values():
            for _ in range(3):
                m = fl.random_mobius(c, rng)
                img = fl.mobius_apply_cluster(m, c)
                for j, ends in enumerate(c.ends):  # each edge's two points alone
                    points, phi = fl.geometry.mobius_image(m, c.points[ends], [(0, 1)], c.phis[j : j + 1])
                    assert img.phis[j] == phi[0]
                    assert img.points[ends].tolist() == points.tolist()

    def test_image_matches_the_three_point_arc(self, equilibrium_presets):
        # the closed form against an oracle that maps points only: the arc
        # through the images of each arc's tail, midpoint and head
        images = 0
        for c in equilibrium_presets.values():
            for seed in range(1, 9):
                try:
                    m = fl.random_mobius(c, np.random.default_rng(seed))
                except GeometryDomainError:
                    continue
                img = fl.mobius_apply_cluster(m, c)
                images += 1
                mapped = [m.apply(z) for z in c.points.tolist()]
                assert np.abs(img.points - mapped).max() <= 1e-12 * img.diameter()
                for j in range(c.e):
                    arc = c.arc_of(j)
                    oracle = fl.arc_through(
                        *(Point.of(m.apply(p.z)) for p in (arc.tail, fl.arc_point(arc, 0.5), arc.head))
                    )
                    assert abs(img.phis[j] - oracle.phi) <= 1e-12
        assert images == 56

    @pytest.mark.parametrize(
        "m, message",
        [
            (fl.MobiusMap.translation(1e17), "invalid cluster: edge_chords: degenerate edges [3]"),
            (fl.MobiusMap.scaling(1e-170), "invalid cluster: positive_areas: areas [0.0, 0.0, 0.0]"),
            (fl.MobiusMap.scaling(1e170), "Mobius image has points beyond 1e+140 in magnitude"),
            # areas of 1e-310 and 1e-320: nonzero, but below the normal range
            (fl.MobiusMap.scaling(1e-155), "invalid cluster: positive_areas: areas ["),
            (fl.MobiusMap.scaling(1e-160), "invalid cluster: positive_areas: areas ["),
        ],
        ids=["far_translation", "tiny_scale", "huge_scale", "subnormal_areas", "subnormal_areas_2"],
    )
    def test_invalid_images_raise_without_warnings(self, m, message):
        # before, these returned clusters that validate rejects, or whose
        # areas overflow, and printed numpy warnings
        c = fl.triple_bubble((1, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryDomainError, match=re.escape(message)):
                fl.mobius_apply_cluster(m, c)

    def test_far_pole_of_a_tiny_cluster_is_tested_without_warnings(self):
        # |u|^2 of the pole in the chord frame, about 1e310, would overflow
        tiny = fl.mobius_apply_cluster(fl.MobiusMap.scaling(1e-140), fl.triple_bubble())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryDomainError, match="invalid cluster: edge_chords: degenerate edges"):
                fl.mobius_apply_cluster(fl.MobiusMap.inversion_about(1e15), tiny)

    def test_pole_inside_a_bubble_relabels_exterior(self):
        # -0.5 lies inside bubble 1, whose image becomes the unbounded face
        img = fl.mobius_apply_cluster(
            fl.MobiusMap.inversion_about(-0.5), fl.double_bubble(1.0, 0.6)
        )
        assert fl.validate(img).ok
        assert (fl.region_areas(img) > 0).all()
        assert fl.classify(img) is fl.Verdict.EQUILIBRIUM

    def test_areas_change_but_counts_do_not(self, triple, rng):
        m = fl.random_mobius(triple, rng)
        img = fl.mobius_apply_cluster(m, triple)
        assert (img.v, img.e, img.n) == (triple.v, triple.e, triple.n)
