
import cmath
import math

import numpy as np
import pytest

import foamlab as fl
from foamlab.cluster import _disjointness_scan, from_json_dict, to_json_dict
from foamlab.errors import ClusterFormatError, StructuralError
from foamlab.geometry import arc_point, arc_tangent


def walk_areas(c):
    """Region areas summed along the face walks: the oracle for the
    incidence formula behind ``region_areas``."""
    return np.array([c.face_area(c.region_walks[r]) for r in range(1, c.n + 1)])


def fd_area_columns(c, columns):
    """Central differences of the walk sums in the given chart columns."""
    h = 1e-6 * c.diameter()
    x0 = c.chart()
    fd = np.empty((c.n, len(columns)))
    for i, k in enumerate(columns):
        xp, xm = x0.copy(), x0.copy()
        xp[k] += h
        xm[k] -= h
        fd[:, i] = (walk_areas(c.with_chart(xp)) - walk_areas(c.with_chart(xm))) / (2 * h)
    return fd


class TestCombinatorics:
    def test_euler_counts(self, equilibrium_presets):
        # a standard cluster with n regions has 2(n-1) vertices, 3(n-1) edges
        for name, c in equilibrium_presets.items():
            assert c.v == 2 * (c.n - 1), name
            assert c.e == 3 * (c.n - 1), name

    def test_vertex_stars_are_triples(self, triple):
        assert all(len(star) == 3 for star in triple.vertex_stars)

    def test_stars_start_at_smallest_half_edge_in_ccw_order(self, equilibrium_presets, rng):
        for name, c in equilibrium_presets.items():
            img = fl.mobius_apply_cluster(fl.random_mobius(c, rng), c)
            for d in (c, img):
                for star in d.vertex_stars:
                    assert star[0] == min(star), name
                    # one ccw turn: the gaps between consecutive tangent
                    # directions sum to 2 pi (4 pi for a clockwise triple)
                    angles = [
                        cmath.phase(arc_tangent(d.half_edge_arc(he), 0.0)) for he in star
                    ]
                    gaps = np.mod(np.diff(angles + angles[:1]), 2 * math.pi)
                    assert gaps.sum() == pytest.approx(2 * math.pi), name

    def test_half_edge_walks_close(self, triple):
        for r, walk in triple.region_walks.items():
            for a, b in zip(walk, walk[1:] + walk[:1]):
                assert triple.end_vertex(a) == triple.start_vertex(b)


class TestTopology:
    def test_chart_copies_share_the_topology(self, triple, rng):
        x = triple.chart() + 1e-3 * rng.standard_normal(triple.chart().size)
        assert triple.with_chart(x).topology is triple.topology

    def test_solve_keeps_the_initial_topology(self, triple):
        out = fl.solve(triple, np.array([1.1, 0.9, 1.0]))
        assert out.topology is triple.topology

    def test_shared_walks_match_a_fresh_build(self, equilibrium_presets, rng):
        for name, c in equilibrium_presets.items():
            x = c.chart() + 1e-4 * c.diameter() * rng.standard_normal(c.chart().size)
            moved = c.with_chart(x)
            fresh = fl.Cluster(moved.vertices, moved.edges, moved.region_count)
            assert fresh.topology is not c.topology
            assert fresh.region_walks == moved.region_walks, name
            assert fresh.vertex_stars == moved.vertex_stars, name

    def test_disconnected_document_raises(self, double):
        # a second double bubble far away, its faces labelled 5 (outside), 3
        # and 4: every face has a label of its own, yet the region adjacency
        # graph falls apart, so pressures would not be defined
        relabel = {fl.EXTERIOR: 5, 1: 3, 2: 4}
        verts = double.vertices + tuple(fl.Point(p.x + 10.0, p.y) for p in double.vertices)
        edges = double.edges + tuple(
            fl.EdgeRecord(
                double.e + ed.id, double.v + ed.tail, double.v + ed.head, ed.bulge,
                relabel[ed.left], relabel[ed.right],
            )
            for ed in double.edges
        )
        c = fl.Cluster(verts, edges, 5)
        with pytest.raises(StructuralError, match="not connected"):
            c.topology
        with pytest.raises(StructuralError):
            fl.pressures(c)
        assert not fl.validate(c).ok


class TestAreas:
    def test_double_bubble_equal_lobes(self):
        c = fl.double_bubble(1.0, 1.0)
        areas = fl.region_areas(c)
        assert areas[0] == pytest.approx(areas[1], rel=1e-12)

    def test_areas_against_polyline(self, triple):
        areas = fl.region_areas(triple)
        for r, walk in triple.region_walks.items():
            if r == fl.EXTERIOR:
                continue
            pts = []
            for he in walk:
                arc = triple.half_edge_arc(he)
                pts += [arc_point(arc, t).z for t in np.linspace(0.0, 1.0, 2000)[:-1]]
            z = np.array(pts)
            shoelace = 0.5 * float(
                np.sum(z.real * np.roll(z, -1).imag - np.roll(z, -1).real * z.imag)
            )
            assert shoelace == pytest.approx(areas[r - 1], rel=1e-6)

    def test_incidence_formula_matches_walk_sums(self, equilibrium_presets, rng):
        for name, c in equilibrium_presets.items():
            img = fl.mobius_apply_cluster(fl.random_mobius(c, rng), c)
            for d in (c, img):
                scale = d.diameter() ** 2
                assert np.abs(fl.region_areas(d) - walk_areas(d)).max() < 1e-14 * scale, name

    def test_perimeter_positive_and_scales(self, double):
        p = fl.perimeter(double)
        grown = double.with_chart(
            np.concatenate(
                [2.0 * double.chart()[: 2 * double.v], 4.0 * double.chart()[2 * double.v :]]
            )
        )
        assert fl.perimeter(grown) == pytest.approx(2.0 * p, rel=1e-12)


class TestChart:
    def test_round_trip(self, triple):
        assert triple.with_chart(triple.chart()).chart() == pytest.approx(
            triple.chart()
        )

    def test_chart_dimension(self, equilibrium_presets):
        # 2 coordinates per vertex plus one bulge per edge: 7(n-1) numbers
        for name, c in equilibrium_presets.items():
            assert c.chart().size == 2 * c.v + c.e == 7 * (c.n - 1), name


class TestJsonCodec:
    def test_round_trip(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            again = fl.loads(fl.dumps(c))
            assert fl.dumps(again) == fl.dumps(c), name
            assert again.region_count == c.region_count

    def test_dumps_deterministic(self, double):
        assert fl.dumps(double) == fl.dumps(double)

    def test_bad_json_rejected(self):
        with pytest.raises(ClusterFormatError):
            fl.loads("{not json")

    def test_missing_field_rejected(self, double):
        doc = to_json_dict(double)
        del doc["edges"]
        with pytest.raises(ClusterFormatError):
            from_json_dict(doc)

    def test_bad_region_reference_rejected(self, double):
        doc = to_json_dict(double)
        doc["edges"][0]["left"] = 99
        with pytest.raises(ClusterFormatError):
            from_json_dict(doc)


class TestValidate:
    def test_presets_valid(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            report = fl.validate(c)
            assert report.ok, (name, report.failures)

    def test_disjointness_scan(self, double):
        assert fl.validate(double, check_disjoint=True).ok

    def test_disjointness_scan_matches_pairwise_samples(self, equilibrium_presets, rng):
        # oracle: every pair of edges, each sampled by arc_point
        def close_pairs(c, s):
            pts = [[arc_point(c.arc_of(j), (k + 0.5) / s).z for k in range(s)] for j in range(c.e)]
            length = c.frame.length
            return [
                (i, j)
                for i in range(c.e)
                for j in range(i + 1, c.e)
                if np.abs(np.subtract.outer(pts[i], pts[j])).min()
                < 0.25 * min(length[i], length[j]) / s
            ]

        found = 0
        for c in equilibrium_presets.values():
            for _ in range(5):
                x = c.chart()
                mask = rng.random(2 * c.v) < 0.2
                x[: 2 * c.v] += 0.3 * c.diameter() * mask * rng.standard_normal(2 * c.v)
                moved = c.with_chart(x)
                want = close_pairs(moved, 16)
                assert _disjointness_scan(moved, 16) == want
                found += len(want)
        assert found > 0


class TestAreaJacobian:
    def test_full_rank(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            s = np.linalg.svd(fl.area_jacobian(c), compute_uv=False)
            assert s.size == c.n and s[-1] > 1e-6 * s[0], name

    def test_bulge_columns_match_finite_differences(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            J = fl.area_jacobian(c)
            cols = range(2 * c.v, 2 * c.v + c.e)
            fd = fd_area_columns(c, cols)
            assert np.abs(J[:, cols] - fd).max() <= 1e-8 * np.abs(J).max(), name

    def test_vertex_columns_match_finite_differences(self, equilibrium_presets):
        # areas are bilinear in the vertex coordinates, so central
        # differences are exact up to roundoff
        for name, c in equilibrium_presets.items():
            J = fl.area_jacobian(c)
            cols = range(2 * c.v)
            fd = fd_area_columns(c, cols)
            assert np.abs(J[:, cols] - fd).max() <= 1e-8 * np.abs(J).max(), name


class TestInconsistentLabels:
    """Labels that disagree with the faces are a StructuralError, even where
    areas come from the labels alone."""

    @staticmethod
    def swapped(c, j):
        ed = c.edges[j]
        edges = list(c.edges)
        edges[j] = fl.EdgeRecord(ed.id, ed.tail, ed.head, ed.bulge, ed.right, ed.left)
        return fl.Cluster(c.vertices, tuple(edges), c.region_count, c.region_labels)

    @pytest.mark.parametrize("j", range(3))
    def test_swapped_edge_raises(self, double, j):
        bad = self.swapped(double, j)
        assert not fl.validate(bad).ok
        with pytest.raises(StructuralError):
            fl.solve(bad, fl.region_areas(double))
        with pytest.raises(StructuralError):
            fl.area_jacobian(bad)
        with pytest.raises(StructuralError):
            fl.stability_report(bad, m=16)


class TestSvg:
    def test_render_smoke(self, flower):
        svg = fl.to_svg(flower)
        assert svg.startswith("<svg") and svg.count("<path") == flower.e

    def test_render_with_fills(self, double):
        svg = fl.to_svg(double, fill_pressures=fl.pressures(double)[1:])
        assert svg.count("<path") == double.e + double.n

    def test_top_pressure_fill_is_full_red(self, necklace7):
        # the seven unit-pressure bubbles equal the maximum up to roundoff
        svg = fl.to_svg(necklace7, fill_pressures=fl.pressures(necklace7)[1:])
        assert svg.count('fill="rgb(255,120,0)"') == 7
