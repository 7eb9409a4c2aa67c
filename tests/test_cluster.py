
import cmath
import contextlib
import io
import json
import math

import numpy as np
import pytest

import foamlab as fl
import foamlab.cli
from foamlab.cluster import Topology, _disjointness_scan, _interned, _star_fault, from_json_dict, to_json_dict
from foamlab.errors import ClusterFormatError, StructuralError
from foamlab.geometry import arc_point, arc_tangent

from conftest import face_area, half_edge_arc


def walk_areas(c):
    """Region areas summed along the face walks: the oracle for the
    incidence formula behind ``region_areas``."""
    return np.array([face_area(c, c.topology.walks[r]) for r in range(1, c.n + 1)])


def sorted_stars(at, angle):
    """Stars and face-walk successors of the embedding whose half-edge k
    leaves vertex ``at[k]`` at ``angle[k]``, by a stable sort by vertex, then
    angle, each star rotated to its smallest half-edge; the successor is the
    half-edge clockwise next to the reverse.  The oracle for the label build."""
    order = np.lexsort((angle, at)).reshape(-1, 3).tolist()
    stars = [s[s.index(min(s)) :] + s[: s.index(min(s))] for s in order]
    clockwise = {k: star[p - 1] for star in stars for p, k in enumerate(star)}
    return sum(stars, []), [clockwise[k ^ 1] for k in range(len(at))]


def angle_sorted_type(c):
    """Stars, successors and region walks of ``c`` from its tangent angles,
    each walk from its smallest half-edge: the build that sorted angles."""
    stars, successor = sorted_stars(c.ends.ravel(), np.mod(c.alphas, 2.0 * math.pi).ravel())
    walks, left = [], c.labels.ravel().tolist()
    for r in range(c.n + 1):
        walk = [left.index(r)]
        while (k := successor[walk[-1]]) != walk[0]:
            walk.append(k)
        walks.append(walk)
    return stars, successor, walks


def type_clusters(equilibrium_presets, quasi_presets):
    """Clusters of many types and chart points: the presets, three
    ``random_mobius`` images of each and one under an inversion whose pole
    lies in bubble 1 (at the mean of its arcs' samples), decorations,
    ``scale_three_sided`` results and the quasi variants."""
    rng = np.random.default_rng(3)
    clusters = dict(equilibrium_presets)
    for name, c in equilibrium_presets.items():
        images = []
        while len(images) < 3:
            try:
                images.append(fl.mobius_apply_cluster(fl.random_mobius(c, rng), c))
            except fl.FoamlabError:
                continue
        clusters.update({f"{name} image {k}": img for k, img in enumerate(images)})
        at, _ = c.arc_samples(np.linspace(0.0, 1.0, 9))
        pole = complex(at[(c.labels == 1).any(axis=1)].mean())
        clusters[f"{name} pole in bubble 1"] = fl.mobius_apply_cluster(fl.MobiusMap.inversion_about(pole), c)
    triple = equilibrium_presets["triple"]
    for vertex in range(triple.v):
        decorated = fl.decorate(triple, vertex, 0.2)
        clusters[f"triple decorated at {vertex}"] = decorated
        clusters[f"triple decorated at {vertex}, halved"] = fl.scale_three_sided(decorated, decorated.n, 0.5)
    clusters["four decorated at 2"] = fl.decorate(equilibrium_presets["four"], 2, 0.1)
    return {**clusters, **quasi_presets}


def fd_area_columns(c, columns):
    """Central differences of the walk sums in the given chart columns, with
    steps of 1e-6 chart units (diameters, or radians for half-angles)."""
    x0 = c.chart()
    fd = np.empty((c.n, len(columns)))
    for i, k in enumerate(columns):
        h = 1e-6 * c.chart_units()[k]
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

    def test_vertex_stars_are_triples(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            stars = c.topology.stars
            assert stars.shape == (c.v, 3), name
            assert (c.topology.ends.flat[stars] == np.arange(c.v)[:, None]).all(), name

    def test_stars_start_at_smallest_half_edge_in_ccw_order(self, equilibrium_presets, rng):
        for name, c in equilibrium_presets.items():
            img = fl.mobius_apply_cluster(fl.random_mobius(c, rng), c)
            for d in (c, img):
                for star in d.topology.stars.tolist():
                    assert star[0] == min(star), name
                    # one ccw turn: the gaps between consecutive tangent
                    # directions sum to 2 pi (4 pi for a clockwise triple)
                    angles = [
                        cmath.phase(arc_tangent(half_edge_arc(d, k), 0.0)) for k in star
                    ]
                    gaps = np.mod(np.diff(angles + angles[:1]), 2 * math.pi)
                    assert gaps.sum() == pytest.approx(2 * math.pi), name

    def test_stars_and_successors_match_a_sorting_oracle(self):
        # random triple-junction embeddings, half of them with tied angles,
        # each face labelled as a region of its own: the labels alone give
        # back the embedding's stars and successors
        rng = np.random.default_rng(7)
        checked = 0
        for trial in range(3000):
            v = 2 * int(rng.integers(1, 8))
            at = rng.permutation(np.repeat(np.arange(v), 3))
            if trial % 2:
                angle = rng.choice([0.0, 1.0, 2.5, 4.0], at.size)
            else:
                angle = rng.uniform(0.0, 2.0 * math.pi, at.size)
            stars, successor = sorted_stars(at, angle)
            left, faces = [-1] * at.size, 0
            for k in range(at.size):
                if left[k] < 0:
                    while left[k] < 0:
                        left[k], k = faces, successor[k]
                    faces += 1
            labels = np.array(left).reshape(-1, 2)
            if (labels[:, 0] == labels[:, 1]).any():  # one face on both sides: no region order
                continue
            top = Topology.of(at.reshape(-1, 2), labels, faces - 1)
            assert top.stars.ravel().tolist() == stars
            assert top.successor.tolist() == successor
            checked += 1
        assert checked >= 100

    def test_label_build_matches_the_angle_sorted_oracle(self, equilibrium_presets, quasi_presets):
        clusters = type_clusters(equilibrium_presets, quasi_presets)
        for name, base in equilibrium_presets.items():  # the unbounded face is now bubble 1's image
            assert (clusters[f"{name} pole in bubble 1"].labels != base.labels).any(), name
        for name, c in clusters.items():
            assert fl.validate(c).ok, name
            stars, successor, walks = angle_sorted_type(c)
            assert c.topology.stars.ravel().tolist() == stars, name
            assert c.topology.successor.tolist() == successor, name
            assert [w.tolist() for w in c.topology.walks] == walks, name

    def test_regions_that_fit_no_order_name_the_vertex(self, double):
        # swapping the middle edge's labels leaves vertex 0 regions 1, 1 and 0
        # on the left of its half-edges, and 0, 2, 2 on their right
        labels = double.labels.copy()
        labels[2] = labels[2, ::-1]
        with pytest.raises(StructuralError, match="vertex 0 has regions that fit no counterclockwise order"):
            Topology.of(double.ends, labels, double.n)

    def test_half_edge_walks_close(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            ends, left = c.topology.ends, c.topology.labels
            for r, walk in enumerate(c.topology.walks):
                # each half-edge ends where the next one starts, with r on its left
                assert (ends.flat[walk ^ 1] == ends.flat[np.roll(walk, -1)]).all(), name
                assert (left.flat[walk] == r).all(), name
                assert [c.next_half_edge(k) for k in walk] == np.roll(walk, -1).tolist(), name


class TestTopology:
    def test_chart_copies_share_the_topology(self, triple, rng):
        x = triple.chart() + 1e-3 * rng.standard_normal(triple.chart().size)
        assert triple.with_chart(x).topology is triple.topology

    def test_solve_keeps_the_initial_topology(self, triple):
        out = fl.solve(triple, np.array([1.1, 0.9, 1.0]))
        assert out.topology is triple.topology

    def test_shared_walks_match_a_fresh_build(self, equilibrium_presets, rng):
        # a perturbed copy shares its type, which equals a build that
        # bypasses the interning and the angle-sorted oracle at the new point
        for name, c in equilibrium_presets.items():
            x = c.chart() + 1e-4 * c.diameter() * rng.standard_normal(c.chart().size)
            moved = c.with_chart(x)
            fresh = Topology.of(moved.ends, moved.labels, moved.n)
            assert fresh is not c.topology
            stars, successor, walks = angle_sorted_type(moved)
            for top in (fresh, moved.topology):
                assert [w.tolist() for w in top.walks] == walks, name
                assert top.stars.ravel().tolist() == stars, name
                assert top.successor.tolist() == successor, name

    def test_same_types_share_one_bounded_cache(self, triple, necklace7):
        read = fl.loads(fl.dumps(triple))
        rows = fl.Cluster(triple.vertices, triple.edges, triple.region_count)
        assert read.topology is triple.topology and rows.topology is triple.topology
        # every vertex renumbering is a type of its own
        size, rng = _interned.cache_info().maxsize, np.random.default_rng(2)
        assert size is not None
        types = set()
        for _ in range(size + 10):
            perm = rng.permutation(necklace7.v)
            points = np.empty_like(necklace7.points)
            points[perm] = necklace7.points
            c = fl.Cluster.from_arrays(points, perm[necklace7.ends], necklace7.phis, necklace7.labels, necklace7.n)
            types.add(id(c.topology))
        assert len(types) > size and _interned.cache_info().currsize <= size

    def test_a_mirror_turns_against_its_labels(self, triple):
        # every y and every half-angle negated, the labels kept: each star
        # turns clockwise, on a type seen before and on a new one alike
        def mirror(c):
            x = c.chart()
            x[1 : 2 * c.v : 2] *= -1.0
            x[2 * c.v :] *= -1.0
            return fl.Cluster.from_arrays(x[: 2 * c.v].view(complex), c.ends, x[2 * c.v :], c.labels, c.n)

        renumbered = fl.Cluster.from_arrays(
            triple.points[::-1].copy(), triple.v - 1 - triple.ends, triple.phis, triple.labels, triple.n
        )
        fl.loads(fl.dumps(triple)).topology  # interned, whatever the cache held before
        for c, hit in ((triple, True), (renumbered, False)):
            hits = _interned.cache_info().hits
            m = mirror(c)
            report = fl.validate(m)
            assert report.failures() == ["topology: vertex 0 turns against the order of its regions"]
            assert _interned.cache_info().hits == hits + hit
            assert _star_fault(m.alphas, Topology.of(m.ends, m.labels, m.n)) == 0
            with pytest.raises(StructuralError, match="turns against"):
                fl.classify(m)

    @pytest.mark.parametrize("name", ["triple", "double", "four", "flower"])
    def test_copies_share_the_type_but_not_its_verdict(self, name, request):
        # a copy of a valid cluster, moved to a seeded chart point, gets the
        # checks of the same arrays built afresh: the star test is its own
        c, rng = request.getfixturevalue(name), np.random.default_rng(36)
        turned = 0
        for _ in range(200):
            x = c.chart()
            x[: 2 * c.v] += rng.normal(0.0, 0.6, 2 * c.v)
            x[2 * c.v :] += rng.normal(0.0, 0.9, c.e)
            copy = c.with_chart(x)
            fresh = fl.Cluster.from_arrays(x[: 2 * c.v].view(complex), c.ends, x[2 * c.v :], c.labels, c.n)
            checks = fl.validate(copy).checks
            assert checks == fl.validate(fresh).checks
            if ("topology", False) in [(check, ok) for check, ok, _ in checks]:
                turned += 1
                for d in (copy, fresh):
                    with pytest.raises(StructuralError):
                        fl.classify(d)
        assert turned > 0

    def test_a_mirrored_copy_turns_against_its_labels(self, triple):
        x = triple.chart()
        x[1 : 2 * triple.v : 2] *= -1.0
        x[2 * triple.v :] *= -1.0
        m = triple.with_chart(x)
        assert fl.validate(m).failures() == ["topology: vertex 0 turns against the order of its regions"]
        with pytest.raises(StructuralError, match="turns against"):
            fl.classify(m)

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
        for r, walk in enumerate(triple.topology.walks):
            if r == fl.EXTERIOR:
                continue
            pts = []
            for k in walk:
                arc = half_edge_arc(triple, k)
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
        # scaling by 2 doubles the coordinates and keeps every half-angle
        grown = double.with_chart(np.concatenate([2.0 * double.points.view(float), double.phis]))
        assert fl.perimeter(grown) == pytest.approx(2.0 * p, rel=1e-12)


class TestChart:
    def test_round_trip(self, triple):
        assert triple.with_chart(triple.chart()).chart() == pytest.approx(
            triple.chart()
        )

    def test_chart_dimension(self, equilibrium_presets):
        # 2 coordinates per vertex plus one half-angle per edge: 7(n-1) numbers
        for name, c in equilibrium_presets.items():
            assert c.chart().size == 2 * c.v + c.e == 7 * (c.n - 1), name

    def test_array_views_match_the_records(self, equilibrium_presets, rng):
        for name, c in equilibrium_presets.items():
            x = c.chart() + 1e-3 * rng.standard_normal(c.chart().size)
            for d in (c, c.with_chart(x)):
                assert d.points.tolist() == [p.z for p in d.vertices], name
                assert d.bulges.tolist() == [ed.bulge for ed in d.edges], name
                assert d.ends.tolist() == [[ed.tail, ed.head] for ed in d.edges], name

    def test_array_views_are_read_only(self, triple):
        for c in (triple, triple.with_chart(triple.chart())):
            arrays = (c.directions, c.alphas, c.kappas, c.lengths)
            for view in (c.points, c.phis, c.bulges, c.chords, c.ends, c.labels, *arrays):
                with pytest.raises(ValueError):
                    view[0] = 0
            with pytest.raises(AttributeError):
                c.points = c.points

    def test_from_arrays_leaves_the_callers_arrays_writable(self, triple):
        points = triple.points.copy()
        c = fl.Cluster.from_arrays(
            points, triple.ends, triple.phis, triple.labels, triple.n, triple.region_labels
        )
        assert points.flags.writeable and not c.points.flags.writeable
        assert c.ends is triple.ends
        points[0] = 5.0
        assert c.points.tolist() == triple.points.tolist()

    def test_from_arrays_copies_a_read_only_strided_array(self):
        # the reversed points are a read-only view with a negative stride,
        # which cannot be viewed as floats until copied
        t = fl.triple_bubble()
        c = fl.Cluster.from_arrays(t.points[::-1], t.v - 1 - t.ends, t.phis, t.labels, t.n)
        assert fl.validate(c).ok
        assert c.chart().tolist() == np.concatenate([t.points[::-1].copy().view(float), t.phis]).tolist()

    def test_rows_round_trip_through_the_constructor(self, equilibrium_presets, quasi_presets):
        for name, c in {**equilibrium_presets, **quasi_presets}.items():
            again = fl.Cluster(c.vertices, c.edges, c.n, c.region_labels)
            for field in ("points", "ends", "bulges", "labels"):
                assert getattr(again, field).tolist() == getattr(c, field).tolist(), (name, field)
            assert fl.dumps(again) == fl.dumps(c), name

    def test_chart_points_build_no_rows(self, triple, monkeypatch):
        built = []

        def counting(cls):
            return lambda *args: built.append(cls) or cls(*args)

        monkeypatch.setattr(fl.cluster, "Point", counting(fl.Point))
        monkeypatch.setattr(fl.cluster, "EdgeRecord", counting(fl.EdgeRecord))
        triple.with_chart(triple.chart())
        fl.solve(triple, np.array([1.1, 0.9, 1.0]))
        assert built == []
        triple.vertices, triple.edges
        assert built.count(fl.Point) == triple.v and built.count(fl.EdgeRecord) == triple.e

    def test_chart_copies_share_ends_and_own_their_chart(self, triple):
        x = triple.chart()
        copy = triple.with_chart(x)
        assert copy.ends is triple.ends and copy.topology is triple.topology
        x[:] = 0.0
        assert copy.chart().tolist() == triple.chart().tolist()
        assert copy.points.tolist() == [p.z for p in copy.vertices]

    def test_extent_matches_fine_arc_samples(self, equilibrium_presets):
        # the closed-form bounding box of the arcs against 20001 samples per
        # arc, which miss an extreme point by at most R (pi / 20000)^2 / 2,
        # on the presets, a lopsided double bubble and Mobius images with
        # arcs of every turn; the extent never falls below the vertex span
        cases = dict(equilibrium_presets, lopsided=fl.double_bubble(1.0, 0.05))
        for name in ("double", "four", "necklace7"):
            c = equilibrium_presets[name]
            for seed in (2, 3):
                m = fl.random_mobius(c, np.random.default_rng(seed))
                cases[f"{name}_mobius{seed}"] = fl.mobius_apply_cluster(m, c)
        t = np.linspace(0.0, 1.0, 20001)
        for name, c in cases.items():
            at, _ = c.arc_samples(t)
            sampled = math.hypot(np.ptp(at.real), np.ptp(at.imag))
            extent = c.extent()
            assert 0.0 <= extent - sampled <= 1e-7 * extent, name
            assert extent >= c.diameter(), name


class TestHalfAngleChart:
    def test_only_a_loaded_document_inverts_its_bulges(self, monkeypatch):
        calls = []
        invert = fl.cluster.bulge_angle_from_area
        monkeypatch.setattr(
            fl.cluster, "bulge_angle_from_area", lambda c, b: calls.append(b) or invert(c, b)
        )
        c = fl.loads(fl.dumps(fl.triple_bubble()))
        assert calls == []  # reading keeps the document's bulges
        fl.classify(c)
        assert len(calls) == c.e  # the first analysis inverts each one once
        calls.clear()
        out = fl.solve(c, fl.region_areas(c) * [1.2, 0.9, 1.0])
        c.unit(), out.unit()
        fl.tangent_dimension(out, fix_areas=True)
        fl.stability_report(out)
        image = fl.mobius_apply_cluster(fl.random_mobius(out, np.random.default_rng(2)), out)
        fl.decorate(image, 1, 0.1)
        fl.dumps(fl.decorate(out, 2, 0.1))
        assert calls == []

    def test_presets_invert_no_bulge(self, monkeypatch):
        calls = []
        invert = fl.cluster.bulge_angle_from_area
        monkeypatch.setattr(
            fl.cluster, "bulge_angle_from_area", lambda c, b: calls.append(b) or invert(c, b)
        )
        presets = (
            fl.double_bubble(1.0, 0.6), fl.triple_bubble(), fl.four_bubble(), fl.two_lens(),
            fl.necklace(6), fl.necklace(7), fl.flower(),
        )
        for c in presets:
            c.phis
        assert calls == []
        fl.loads(fl.dumps(presets[0])).phis  # the patch does see a document's inversions
        assert len(calls) == presets[0].e

    def test_only_the_jacobians_form_chart_gradients(self, monkeypatch):
        calls = []
        gradients = fl.cluster._chart_gradients
        monkeypatch.setattr(fl.cluster, "_chart_gradients", lambda c: calls.append(c) or gradients(c))
        c = fl.loads(fl.dumps(fl.decorate(fl.triple_bubble(), 1, 0.25)))
        fl.validate(c, check_disjoint=True)
        fl.classify(c)
        fl.to_svg(c, fl.pressures(c)[1:])
        fl.verify_correspondence(c)
        assert calls == []
        assert not {"_scatter", "_columns"} & set(vars(c.topology))  # none built
        fl.solve(c, fl.region_areas(c) * [1.1, 0.9, 1.0, 1.0])
        assert calls
        calls.clear()
        fl.tangent_dimension(c)
        assert calls

    def test_the_jacobian_index_is_built_once_per_type(self, equilibrium_presets, triple):
        # with_chart and unit() copies and Mobius images share their topology
        # and its scatter index; a decorated cluster is a new type, which its
        # decorations of other sizes share
        index = triple.topology._scatter
        image = fl.mobius_apply_cluster(fl.MobiusMap.rotation(0.3, 0.5j), triple)
        for d in (triple.unit(), triple.with_chart(1.1 * triple.chart()), image, image.unit()):
            assert d.topology._scatter is index
        decorated = fl.decorate(triple, 1, 0.1)
        assert decorated.topology._scatter is not index
        for size in (0.05, 0.2):
            assert fl.decorate(triple, 1, size).topology._scatter is decorated.topology._scatter
        for name, c in equilibrium_presets.items():
            rows, cols = 3 * c.v + c.n + 1, 2 * c.v + c.e
            flat = c.topology._scatter
            assert flat.shape == (40 * c.e,) and 0 <= flat.min() and flat.max() < rows * cols, name

    def test_documents_round_trip_byte_for_byte(self, equilibrium_presets, quasi_presets, four):
        image = fl.mobius_apply_cluster(fl.random_mobius(four, np.random.default_rng(5)), four)
        clusters = {**equilibrium_presets, **quasi_presets, "decorated image": fl.decorate(image, 2, 0.1)}
        for name, c in clusters.items():
            text = fl.dumps(c)
            assert fl.dumps(fl.loads(text)) == text, name

    def test_scaling_keeps_the_half_angles(self, flower):
        # the unit frame divides coordinates by the diameter; half-angles,
        # dimensionless, are shared unchanged
        assert flower.unit().phis.tolist() == flower.phis.tolist()
        assert np.array_equal(flower.chart_units()[2 * flower.v :], np.ones(flower.e))


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

    def test_repeated_vertex_id_rejected(self, triple):
        doc = to_json_dict(triple)
        doc["vertices"].append(dict(doc["vertices"][1], x=5.0))
        with pytest.raises(ClusterFormatError, match="vertex ids"):
            from_json_dict(doc)

    def test_repeated_region_id_rejected(self, triple):
        doc = to_json_dict(triple)
        doc["regions"][3]["id"] = 2
        with pytest.raises(ClusterFormatError, match="region ids"):
            from_json_dict(doc)

    def test_edge_ids_checked_and_ordered(self, triple):
        doc = to_json_dict(triple)
        for eo in doc["edges"]:
            eo["id"] = 7
        with pytest.raises(ClusterFormatError, match="edge ids"):
            from_json_dict(doc)
        doc = to_json_dict(triple)
        doc["edges"].reverse()
        assert fl.dumps(from_json_dict(doc)) == fl.dumps(triple)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("vertices", 0), 5, r"vertices\[0\] must be an object"),
            (("regions", 2), "lobe", r"regions\[2\] must be an object"),
            (("edges",), 5, r"'edges' must be an array"),
            (("vertices",), {"0": {}}, r"'vertices' must be an array"),
            (("edges", 0, "tail"), None, r"edges\[0\]\.tail must be an integer"),
            (("edges", 3, "left"), 1.0, r"edges\[3\]\.left must be an integer"),
            (("edges", 2, "bulge"), None, r"edges\[2\]\.bulge must be a number"),
            (("vertices", 1, "x"), "0.5", r"vertices\[1\]\.x must be a number"),
            (("vertices", 1, "y"), True, r"vertices\[1\]\.y must be a number"),
            (("vertices", 1, "y"), 10**400, r"vertices\[1\]\.y must be a number"),
        ],
    )
    def test_malformed_entry_names_entry_and_field(self, triple, path, value, message):
        doc = to_json_dict(triple)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ClusterFormatError, match=message):
            from_json_dict(doc)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("version", True, "unsupported version True"),
            ("version", 1.0, "unsupported version 1.0"),
            ("exterior", False, "exterior region id must be 0"),
            ("exterior", 0.0, "exterior region id must be 0"),
        ],
    )
    def test_version_and_exterior_are_json_integers(self, triple, field, value, message):
        doc = to_json_dict(triple)
        doc[field] = value
        with pytest.raises(ClusterFormatError, match=message):
            from_json_dict(doc)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("edges", 0, "tail"), 10**30, r"edges\[0\]\.tail is not a vertex id"),
            (("edges", 1, "right"), -(10**30), r"edges\[1\]\.right is not a region id"),
            (("edges", 2, "bulge"), 10**400, r"edges\[2\]\.bulge must be a number"),
        ],
    )
    def test_huge_integers_are_range_errors(self, triple, path, value, message):
        doc = to_json_dict(triple)
        doc[path[0]][path[1]][path[2]] = value
        with pytest.raises(ClusterFormatError, match=message):
            from_json_dict(doc)

    def test_infinity_and_negative_zero_keep_their_values(self, triple):
        doc = to_json_dict(triple)
        doc["vertices"][1].update(x=math.inf, y=-0.0)
        c = from_json_dict(doc)
        assert c.points[1].real == math.inf and math.copysign(1.0, c.points[1].imag) == -1.0
        assert fl.validate(c).failures() == ["finite_chart: non-finite chart coordinates [2]"]

    def test_reading_builds_no_rows(self, triple, monkeypatch):
        built = []
        for name in ("Point", "EdgeRecord"):
            cls = getattr(fl.cluster, name)
            monkeypatch.setattr(fl.cluster, name, lambda *a, cls=cls: built.append(cls) or cls(*a))
        monkeypatch.setattr(fl.cluster.Cluster, "__init__", lambda *a: built.append("init"))
        doc = to_json_dict(triple)
        doc["edges"].reverse()
        c = from_json_dict(doc)
        assert built == []
        assert fl.dumps(c) == fl.dumps(triple)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_dumps_rejects_non_finite_numbers(self, triple, bad):
        c = triple.with_chart(np.append(triple.chart()[:-1], bad))
        with pytest.raises(ClusterFormatError, match="non-finite"):
            fl.dumps(c)


#: the values each field of a document is set to, besides being deleted
FUZZ_VALUES = (None, True, "1", 1.5, 10**30, -1, [], {}, math.inf, -0.0)
DELETE = object()


def _replaced(doc, path, value):
    """``doc`` with the field at ``path`` set to ``value`` (deleted for
    ``DELETE``), copying only the containers along the path."""
    if not path:
        return value
    out = list(doc) if isinstance(doc, list) else dict(doc)
    if len(path) == 1 and value is DELETE:
        del out[path[0]]
    else:
        out[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return out


def single_field_mutations(doc):
    """(name, document) for every single-field change of ``doc``: each
    field, top-level or of an entry, deleted or set to each of
    ``FUZZ_VALUES``, and each entry repeated (so its id is) or dropped."""
    fields = [(f,) for f in doc]
    fields += [(a, k, f) for a in ("vertices", "edges", "regions") for k, o in enumerate(doc[a]) for f in o]
    for path in fields:
        for value in (DELETE, *FUZZ_VALUES):
            yield f"{path} = {'deleted' if value is DELETE else repr(value)}", _replaced(doc, path, value)
    for a in ("vertices", "edges", "regions"):
        for k, entry in enumerate(doc[a]):
            yield f"{a}[{k}] repeated", dict(doc, **{a: doc[a] + [entry]})
            yield f"{a}[{k}] dropped", dict(doc, **{a: doc[a][:k] + doc[a][k + 1 :]})


class TestDecoderFuzz:
    def test_single_field_mutations_decode_or_raise_format_errors(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            for change, doc in single_field_mutations(to_json_dict(c)):
                try:
                    assert isinstance(from_json_dict(doc), fl.Cluster), (name, change)
                except ClusterFormatError:
                    pass

    def test_rejected_mutations_exit_1_or_2_without_traceback(self, equilibrium_presets, tmp_path):
        rejected = []
        for name in ("triple", "flower"):
            for change, doc in single_field_mutations(to_json_dict(equilibrium_presets[name])):
                try:
                    if fl.validate(from_json_dict(doc)).ok:
                        continue
                except ClusterFormatError:
                    pass
                rejected.append((name, change, doc))
        path = tmp_path / "mutated.json"
        for k in np.random.default_rng(28).choice(len(rejected), 40, replace=False).tolist():
            name, change, doc = rejected[k]
            path.write_text(json.dumps(doc))
            for verb, codes in (("check", (1, 2)), ("render", (2,))):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = fl.cli.run([verb, str(path)])
                assert code in codes, (name, change, verb)
                assert "Traceback" not in err.getvalue(), (name, change, verb)


class TestValidate:
    def test_presets_valid(self, equilibrium_presets):
        for name, c in equilibrium_presets.items():
            report = fl.validate(c)
            assert report.ok, (name, report.failures)

    def test_half_angles_are_what_a_document_can_hold(self, triple, equilibrium_presets, quasi_presets, rng):
        # a bulge inverts only below PHI_LIMIT: loads(dumps(.)) would give
        # these arcs other half-angles, as 3.083 for 3.2
        for phi in (3.2, -3.2, math.pi - 1e-10):
            phis = triple.phis.copy()
            phis[3] = phi
            c = fl.Cluster.from_arrays(triple.points, triple.ends, phis, triple.labels, triple.n)
            assert "half_angles" in [check for check, ok, _ in fl.validate(c).checks if not ok], phi
        # and a valid cluster's come back within the 8 ulp of a bulge's inversion
        for name, c in {**equilibrium_presets, **quasi_presets}.items():
            for d in [c] + [fl.mobius_apply_cluster(fl.random_mobius(c, rng), c) for _ in range(3)]:
                back = fl.loads(fl.dumps(d)).phis
                assert (np.abs(back - d.phis) <= 8 * np.spacing(np.abs(d.phis))).all(), name

    def test_disjointness_scan(self, double):
        assert fl.validate(double, check_disjoint=True).ok

    def test_disjointness_scan_matches_pairwise_samples(self, equilibrium_presets, rng):
        # oracle: every pair of edges, each sampled by arc_point
        def close_pairs(c, s):
            pts = [[arc_point(c.arc_of(j), (k + 0.5) / s).z for k in range(s)] for j in range(c.e)]
            length = c.lengths
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

    def test_half_angle_columns_match_finite_differences(self, equilibrium_presets):
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

    @pytest.mark.parametrize(
        "fills",
        [[1.0], [1.0, math.nan, 1.0], [1.0, 1.0, math.inf], np.ones((3, 1)), [1.0, 1.0, 1.0, 1.0]],
        ids=["one", "nan", "inf", "column", "four"],
    )
    def test_fills_are_one_finite_number_per_region(self, triple, fills):
        with pytest.raises(fl.GeometryDomainError, match="^fill_pressures must be 3 finite numbers"):
            fl.to_svg(triple, fill_pressures=fills)

    def test_top_pressure_fill_is_full_red(self, necklace7):
        # the seven unit-pressure bubbles equal the maximum up to roundoff
        svg = fl.to_svg(necklace7, fill_pressures=fl.pressures(necklace7)[1:])
        assert svg.count('fill="rgb(255,120,0)"') == 7

    def test_zero_pressure_fill_is_stable_under_roundoff(self, necklace7):
        # the chamber's pressure is 0 up to roundoff of either sign
        fills = fl.pressures(necklace7)[1:]
        svgs = set()
        for chamber in (0.0, 1e-15, -1e-15, fills[-1] + 1e-15, fills[-1] - 1e-15):
            svgs.add(fl.to_svg(necklace7, fill_pressures=np.append(fills[:-1], chamber)))
        assert len(svgs) == 1
        assert svgs.pop().count('fill="rgb(128,120,127)"') == 1

    def test_far_cluster_is_drawn_without_distortion(self):
        c = fl.mobius_apply_cluster(fl.MobiusMap.translation(1e9), fl.triple_bubble((1, 1, 1)))
        svg = fl.to_svg(c)
        for j, line in enumerate(svg.splitlines()[2 : 2 + c.e]):
            d = line.split('d="', 1)[1].split('"', 1)[0].split()
            ends = [complex(float(d[1]), float(d[2])), complex(float(d[-2]), float(d[-1]))]
            assert np.abs(ends - c.points[c.ends[j]]).max() <= 1e-9 * c.diameter(), j

    def test_fills_and_margin_are_scale_invariant(self):
        # the fill shades follow the largest pressure, the margin the extent
        base = fl.double_bubble(1.0, 0.6)
        fills, boxes = set(), []
        for s in (1e-12, 1.0, 1e13):
            c = fl.mobius_apply_cluster(fl.MobiusMap.scaling(s), base)
            svg = fl.to_svg(c, fill_pressures=fl.pressures(c)[1:])
            fills.add(tuple(line.split(" fill=", 1)[1] for line in svg.splitlines() if "rgb(" in line))
            head = svg.split('viewBox="', 1)[1]
            boxes.append([float(x) / c.extent() for x in head.split('"', 1)[0].split()[2:]])
        assert len(fills) == 1 and len(next(iter(fills))) == 2
        assert np.allclose(boxes, boxes[1], rtol=1e-8, atol=0.0)

    def test_view_box_holds_every_arc_point(self, equilibrium_presets):
        # rotated double bubbles, many of whose arcs peak between sample points
        clusters = [
            fl.mobius_apply_cluster(fl.MobiusMap.rotation(0.37 * k), fl.double_bubble(1.0, r2))
            for r2 in (0.6, 0.3, 0.1, 0.03)
            for k in range(6)
        ] + list(equilibrium_presets.values())
        for c in clusters:
            svg = fl.to_svg(c)
            head = svg.split('viewBox="', 1)[1]
            x, y, w, h = map(float, head.split('"', 1)[0].split())
            at, _ = c.arc_samples(np.linspace(0.0, 1.0, 401))
            # the drawing is flipped by scale(1,-1)
            px, py = at.real.ravel(), -at.imag.ravel()
            assert x <= px.min() and px.max() <= x + w
            assert y <= py.min() and py.max() <= y + h
