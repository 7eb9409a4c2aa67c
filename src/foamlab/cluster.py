"""Cluster data structure: combinatorics, areas, perimeter, serialization.

A cluster of ``n`` regions is a chart point of dimension ``2v + e = 7n - 7``:
vertex coordinates plus one signed bulge area per edge.  Every per-edge
quantity (half-angle, end tangents, curvature) and its exact chart gradient is
computed once per chart point in ``Cluster.frame``, and each half-edge's
oriented carrier (A, B, D) follows from it by one formula.  The combinatorial
type is a ``Topology``, derived once per type, not once per chart point: the
counterclockwise stars, the face walks obtained by rotating around vertices,
one boundary walk per region and the signed incidence S.  Building it is the
one structural check, and ``with_chart`` copies share it.  Areas and their
derivatives need no walk: a region's walk is exactly the set of half-edges
with it on the left, so they come from the edge labels through S.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ClusterFormatError, GeometryDomainError, StructuralError
from .geometry import (  # arc_tangent is unused here, but perfbench's tests resolve it
    Arc,
    HermitianCircle,
    Point,
    arc_tangent,
    bulge_angle_from_area,
    carrier_coefficients,
    segment_area_dphi,
)

EXTERIOR = 0


@dataclass(frozen=True)
class EdgeRecord:
    """One oriented arc: tail -> head with region labels on either side."""

    id: int
    tail: int
    head: int
    bulge: float
    left: int
    right: int


# a half-edge is (edge_index, forward); forward=True travels tail -> head
HalfEdge = Tuple[int, bool]


@dataclass(frozen=True)
class EdgeFrame:
    """Per-edge geometry of one chart point, with exact chart gradients.

    Edge j's quantities depend on the chart only through w = head - tail and
    its bulge b, so each gradient is stored as (d/d Re w, d/d Im w, d/db);
    the tail's coordinates get minus and the head's plus its first two
    entries.  End 0 is the tail, where the forward half-edge leaves; end 1 is
    the head, where the reversed half-edge leaves.
    """

    ends: np.ndarray  # (e, 2) tail and head vertex
    v: int
    chord: np.ndarray  # (e,) chord length c
    phi: np.ndarray  # (e,) bulge half-angle
    length: np.ndarray  # (e,) arc length c / sinc(phi)
    alpha: np.ndarray  # (e, 2) angle of the tangent leaving each end
    kappa: np.ndarray  # (e,) forward signed curvature 2 sin(phi) / c
    d_alpha: np.ndarray  # (e, 2, 3) gradient of alpha
    d_kappa: np.ndarray  # (e, 3) gradient of kappa

    def jacobian(self, rows, edges, grads, n_rows: int) -> np.ndarray:
        """Chart matrix of shape (n_rows, 2v + e) with the edge gradient
        ``grads[k]`` of edge ``edges[k]`` summed into row ``rows[k]``."""
        rows, edges = np.asarray(rows), np.asarray(edges)
        grads = np.asarray(grads, dtype=float).reshape(-1, 3)
        J = np.zeros((n_rows, 2 * self.v + self.chord.size))
        for end, sign in ((0, -1.0), (1, 1.0)):
            col = 2 * self.ends[edges, end]
            np.add.at(J, (rows, col), sign * grads[:, 0])
            np.add.at(J, (rows, col + 1), sign * grads[:, 1])
        np.add.at(J, (rows, 2 * self.v + edges), grads[:, 2])
        return J


def _grad(g: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Stack a complex gradient d/d Re w + i d/d Im w with d/db."""
    return np.stack([g.real, g.imag, db], axis=-1)


def _half_edge(k: int) -> HalfEdge:
    """Half-edge k = 2j + end, leaving end ``end`` of edge j (0: the tail)."""
    return (int(k) >> 1, not int(k) & 1)


def _index(he: HalfEdge) -> int:
    return 2 * he[0] + (not he[1])


def _face_walks(ends: np.ndarray, alpha: np.ndarray, v: int):
    """Stars, face-walk successors and faces (lists of half-edge indices) of
    the embedding with edge ends ``ends`` and leaving tangent angles
    ``alpha``, both (e, 2).  Star i lists the half-edges leaving vertex i
    counterclockwise from the smallest; the successor, the half-edge
    clockwise next to the reverse, keeps the same region on the left.
    Raises :class:`StructuralError` unless every vertex is a triple junction.
    """
    at = ends.ravel()  # the vertex each half-edge leaves
    degree = np.bincount(at, minlength=v)
    for i in np.flatnonzero(degree != 3):
        raise StructuralError(f"vertex {i} has degree {degree[i]}, expected 3")
    order = np.lexsort((np.mod(alpha, 2.0 * math.pi).ravel(), at)).reshape(v, 3)
    stars = np.take_along_axis(order, (order.argmin(axis=1)[:, None] + np.arange(3)) % 3, 1)
    slot = np.empty(at.size, dtype=int)
    slot[stars.ravel()] = np.arange(at.size)
    vertex, place = np.divmod(slot[np.arange(at.size) ^ 1], 3)
    successor = stars[vertex, (place - 1) % 3]
    succ, faces, seen = successor.tolist(), [], set()
    for k in range(at.size):
        if k not in seen:
            walk = [k]
            while (nxt := succ[walk[-1]]) != k:
                walk.append(nxt)
            seen.update(walk)
            faces.append(walk)
    return stars, successor, faces


@dataclass(frozen=True, eq=False)
class Topology:
    """The combinatorial type of a cluster, built and checked once.

    Building it (:meth:`of`, stars from a chart point's tangent order) is the
    structural check every entry point relies on, raising
    :class:`StructuralError` unless each vertex is a triple junction, the
    vertex-edge graph is connected, and each face walk carries a single left
    label, one face per region 0..n.  Half-edges are indexed as k = 2j + end.
    """

    ends: np.ndarray  # (e, 2) tail and head vertex
    labels: np.ndarray  # (e, 2) left and right region
    stars: np.ndarray  # (v, 3) outgoing half-edges, counterclockwise
    successor: np.ndarray  # (2e,) next half-edge of each face walk
    walks: Tuple[Tuple[HalfEdge, ...], ...]  # region r's boundary walk at index r
    incidence: np.ndarray  # (n, e) signed edge-region incidence S

    @classmethod
    def of(cls, cluster: "Cluster") -> "Topology":
        f = cluster.frame
        stars, successor, faces = _face_walks(f.ends, f.alpha, cluster.v)
        near = f.ends.ravel()[stars ^ 1].tolist()  # the three neighbours of each vertex
        reached, todo = set(), [0] if cluster.v else []
        while todo:
            if (i := todo.pop()) not in reached:
                reached.add(i)
                todo += near[i]
        if unreached := sorted(set(range(cluster.v)) - reached):
            raise StructuralError(f"vertices {unreached} are not connected to vertex 0")
        labels = np.array([(ed.left, ed.right) for ed in cluster.edges], dtype=int).reshape(-1, 2)
        left = labels.ravel().tolist()  # the region left of each half-edge
        for walk in faces:
            if len(touched := {left[k] for k in walk}) > 1:
                raise StructuralError(f"face walk touches several left labels {sorted(touched)}")
        faces.sort(key=lambda walk: left[walk[0]])
        if (found := [left[walk[0]] for walk in faces]) != list(range(cluster.n + 1)):
            raise StructuralError(f"face labels {found}, expected one face per region 0..{cluster.n}")
        # +1 where r is edge j's left label, -1 where it is its right; the
        # exterior row is minus the sum of the others and is dropped
        S = np.zeros((cluster.n + 1, cluster.e))
        S[labels[:, 0], np.arange(cluster.e)] += 1.0
        S[labels[:, 1], np.arange(cluster.e)] -= 1.0
        walks = tuple(tuple(map(_half_edge, walk)) for walk in faces)
        return cls(f.ends, labels, stars, successor, walks, S[1:])


@dataclass(frozen=True)
class Cluster:
    vertices: Tuple[Point, ...]
    edges: Tuple[EdgeRecord, ...]
    region_count: int  # interior regions; exterior is region 0 on top
    region_labels: Tuple[str, ...] = ()

    # -- basic counts ------------------------------------------------------

    @property
    def v(self) -> int:
        return len(self.vertices)

    @property
    def e(self) -> int:
        return len(self.edges)

    @property
    def n(self) -> int:
        return self.region_count

    def diameter(self) -> float:
        xs = [p.x for p in self.vertices] or [0.0]
        ys = [p.y for p in self.vertices] or [0.0]
        return math.hypot(max(xs) - min(xs), max(ys) - min(ys)) or 1.0

    # -- chart coordinates -------------------------------------------------

    def chart(self) -> np.ndarray:
        """Coordinates (x_1, y_1, ..., x_v, y_v, b_1, ..., b_e)."""
        out = np.empty(2 * self.v + self.e)
        for i, p in enumerate(self.vertices):
            out[2 * i] = p.x
            out[2 * i + 1] = p.y
        for j, ed in enumerate(self.edges):
            out[2 * self.v + j] = ed.bulge
        return out

    def with_chart(self, x: np.ndarray) -> "Cluster":
        """The cluster of the same type at chart point ``x``; it shares this
        cluster's topology."""
        if x.shape != (2 * self.v + self.e,):
            raise ValueError("chart vector has wrong length")
        verts = tuple(Point(x[2 * i], x[2 * i + 1]) for i in range(self.v))
        edges = tuple(
            replace(ed, bulge=float(x[2 * self.v + j]))
            for j, ed in enumerate(self.edges)
        )
        copy = Cluster(verts, edges, self.region_count, self.region_labels)
        copy.__dict__["topology"] = self.topology  # fills the cached property
        return copy

    @cached_property
    def topology(self) -> Topology:
        """The combinatorial type, built on first use and shared by the
        ``with_chart`` copies; raises :class:`StructuralError` if invalid."""
        return Topology.of(self)

    # -- derived geometry --------------------------------------------------

    def arc_of(self, edge_index: int) -> Arc:
        ed = self.edges[edge_index]
        return Arc(self.vertices[ed.tail], self.vertices[ed.head], ed.bulge)

    def half_edge_arc(self, he: HalfEdge) -> Arc:
        arc = self.arc_of(he[0])
        return arc if he[1] else arc.reversed()

    def half_edge_left(self, he: HalfEdge) -> int:
        ed = self.edges[he[0]]
        return ed.left if he[1] else ed.right

    def outgoing_tangent(self, he: HalfEdge) -> complex:
        """Unit tangent leaving the half-edge's start vertex."""
        return cmath.exp(1j * self.frame.alpha[he[0], 0 if he[1] else 1])

    def start_vertex(self, he: HalfEdge) -> int:
        ed = self.edges[he[0]]
        return ed.tail if he[1] else ed.head

    def end_vertex(self, he: HalfEdge) -> int:
        ed = self.edges[he[0]]
        return ed.head if he[1] else ed.tail

    @cached_property
    def frame(self) -> EdgeFrame:
        """Per-edge geometry at this chart point, phi inverted once per edge.

        Implicit differentiation of segment_area(phi, c) = b gives
        dphi/db = 1/A_phi and, since the area scales as c^2,
        dphi/dc = -(2b/c)/A_phi.
        """
        points, ends = _chords(self)
        b = np.array([ed.bulge for ed in self.edges])
        w = points[ends[:, 1]] - points[ends[:, 0]]
        c = np.abs(w)
        phi = np.array([bulge_angle_from_area(cj, bj) for cj, bj in zip(c, b)])
        phi_b = 1.0 / np.array([segment_area_dphi(p, cj) for p, cj in zip(phi, c)])
        u = w / c
        g_phi = -(2.0 * b / c) * phi_b * u
        g_theta = 1j * u / c
        kappa = 2.0 * np.sin(phi) / c
        kappa_phi = 2.0 * np.cos(phi) / c
        theta = np.angle(w)
        return EdgeFrame(
            ends=ends,
            v=self.v,
            chord=c,
            phi=phi,
            length=c / np.sinc(phi / math.pi),
            alpha=np.stack([theta - phi, theta + phi + math.pi], axis=1),
            kappa=kappa,
            d_alpha=np.stack([_grad(g_theta - g_phi, -phi_b), _grad(g_theta + g_phi, phi_b)], 1),
            d_kappa=_grad(kappa_phi * g_phi - kappa / c * u, kappa_phi * phi_b),
        )

    def arc_samples(self, t) -> Tuple[np.ndarray, np.ndarray]:
        """Points and unit tangents of every edge at angular fractions ``t``,
        each of shape (e, len(t)): ``arc_point`` and ``arc_tangent`` for all
        arcs at once, from the frame's half-angles (no inversion per sample)."""
        f = self.frame
        points, ends = _chords(self)
        tail = points[ends[:, 0]]
        w = points[ends[:, 1]] - tail
        phi, t = f.phi[:, None], np.asarray(t, dtype=float)[None, :]
        ratio = t * np.sinc(phi * t / math.pi) / np.sinc(phi / math.pi)
        at = tail[:, None] + w[:, None] * ratio * np.exp(1j * phi * (t - 1.0))
        return at, (w / f.chord)[:, None] * np.exp(1j * phi * (2.0 * t - 1.0))

    def carriers(
        self, centre: complex = 0j, scale: float = 1.0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, B, D) of every half-edge's carrier in coordinates
        (z - centre) / scale, each of shape (e, 2) with [j, 0] the forward
        half-edge: one formula at the point, tangent and curvature where the
        half-edge leaves.  Built in those coordinates, D keeps the digits that
        translating world coordinates far from the origin would cancel."""
        f = self.frame
        points, _ = _chords(self)
        return carrier_coefficients(
            (points[f.ends] - centre) / scale,
            np.exp(1j * f.alpha),
            scale * np.outer(f.kappa, [1.0, -1.0]),
        )

    def half_edge_carriers(
        self, hes: Sequence[HalfEdge], centre: complex = 0j, scale: float = 1.0
    ) -> List[HermitianCircle]:
        A, B, D = self.carriers(centre, scale)
        return [
            HermitianCircle(float(A[j, 1 - fwd]), complex(B[j, 1 - fwd]), float(D[j, 1 - fwd]))
            for j, fwd in hes
        ]

    @property
    def vertex_stars(self) -> Tuple[Tuple[HalfEdge, ...], ...]:
        """Outgoing half-edges per vertex, counterclockwise from the star's
        smallest half-edge."""
        return tuple(tuple(map(_half_edge, star)) for star in self.topology.stars)

    def next_half_edge(self, he: HalfEdge) -> HalfEdge:
        """Successor in the face walk keeping the same region on the left:
        the half-edge clockwise next to the reverse of ``he``."""
        return _half_edge(self.topology.successor[_index(he)])

    def face_area(self, walk: Sequence[HalfEdge]) -> float:
        total = 0.0
        for he in walk:
            ed = self.edges[he[0]]
            if he[1]:
                a, b = self.vertices[ed.tail], self.vertices[ed.head]
                total += ed.bulge
            else:
                a, b = self.vertices[ed.head], self.vertices[ed.tail]
                total -= ed.bulge
            total += 0.5 * (a.x * b.y - a.y * b.x)
        return total

    @property
    def region_walks(self) -> Dict[int, Tuple[HalfEdge, ...]]:
        """Boundary walk per region (region on the left)."""
        return dict(enumerate(self.topology.walks))


# ---------------------------------------------------------------------------
# areas, perimeter, Jacobian


def _chords(cluster: Cluster) -> Tuple[np.ndarray, np.ndarray]:
    """Vertex positions (complex) and each edge's (tail, head) index pair."""
    points = np.array([p.z for p in cluster.vertices], dtype=complex)
    pairs = np.array([(ed.tail, ed.head) for ed in cluster.edges], dtype=int)
    return points, pairs.reshape(-1, 2)


def shoelace_terms(points: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """1/2 (p_a x p_b) for every pair (a, b) of indices into complex ``points``."""
    return 0.5 * (points[pairs[:, 0]].conj() * points[pairs[:, 1]]).imag


def shoelace_gradient(
    points: np.ndarray, pairs: np.ndarray, rows: np.ndarray, n_rows: int
) -> np.ndarray:
    """Gradient of the shoelace terms in (x_0, y_0, x_1, y_1, ...), the term
    of pair k summed into row ``rows[k]``; shape (n_rows, 2 * len(points))."""
    a, b = pairs[:, 0], pairs[:, 1]
    G = np.zeros((n_rows, points.size), dtype=complex)  # entries d/dx + i d/dy
    np.add.at(G, (rows, a), -0.5j * points[b])
    np.add.at(G, (rows, b), 0.5j * points[a])
    return G.view(float)


def region_areas(cluster: Cluster) -> np.ndarray:
    """Enclosed area of each interior region (index 0 = region 1), exactly
    S @ (bulge + chord shoelace term): summing terms that flip sign with the
    traversal direction along every region walk gives S times them."""
    points, pairs = _chords(cluster)
    bulges = np.array([ed.bulge for ed in cluster.edges])
    return cluster.topology.incidence @ (bulges + shoelace_terms(points, pairs))


def perimeter(cluster: Cluster) -> float:
    return float(cluster.frame.length.sum())


def area_jacobian(cluster: Cluster) -> np.ndarray:
    """d(areas)/d(chart), shape (n, 2v + e): exactly [S G | S].

    Areas are linear in the bulges and bilinear in the vertex coordinates;
    G is the per-edge gradient of the chord shoelace terms.
    """
    points, pairs = _chords(cluster)
    S = cluster.topology.incidence
    G = shoelace_gradient(points, pairs, np.arange(cluster.e), cluster.e)
    return np.hstack([S @ G, S])


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    checks: Tuple[Tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> List[str]:
        return [f"{name}: {detail}" for name, passed, detail in self.checks if not passed]


def validate(cluster: Cluster, check_disjoint: bool = False, samples: int = 16) -> ValidationReport:
    """Named checks of a cluster document; ``topology`` is the structural
    check (:attr:`Cluster.topology`) that every other entry point relies on."""
    checks: List[Tuple[str, bool, str]] = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    n = cluster.n
    add("region_count", n >= 2, f"n = {n}")
    # with triple junctions (2e = 3v) either count says v - e + n + 1 = 2
    add(
        "euler_counts",
        (cluster.v, cluster.e) == (2 * (n - 1), 3 * (n - 1)),
        f"v, e = {cluster.v}, {cluster.e}, expected {2 * (n - 1)}, {3 * (n - 1)}",
    )
    bad = np.flatnonzero(~np.isfinite(cluster.chart())).tolist()
    add("finite_chart", not bad, f"non-finite chart coordinates {bad}")
    if bad:
        return ValidationReport(tuple(checks))

    points, ends = _chords(cluster)
    chords = np.abs(points[ends[:, 1]] - points[ends[:, 0]])
    short = np.flatnonzero(chords <= 1e-9 * cluster.diameter()).tolist()
    add("edge_chords", not short, f"degenerate edges {short}")
    bad_labels = [
        j for j, ed in enumerate(cluster.edges) if ed.left == ed.right
    ]
    add("edge_labels", not bad_labels, f"left == right on edges {bad_labels}")

    if short:
        add("topology", False, "skipped: degenerate edges")
    else:
        try:
            cluster.topology
        except (StructuralError, GeometryDomainError) as err:
            add("topology", False, str(err))
        else:
            add("topology", True)
            areas = region_areas(cluster)
            add("positive_areas", bool((areas > 0).all()), f"areas {areas.tolist()}")

    if check_disjoint:
        bad_pairs = _disjointness_scan(cluster, samples)
        add("arc_disjointness", not bad_pairs, f"close pairs {bad_pairs}")

    return ValidationReport(tuple(checks))


def _disjointness_scan(cluster: Cluster, samples: int) -> List[Tuple[int, int]]:
    pts, _ = cluster.arc_samples((np.arange(samples) + 0.5) / samples)
    # sampled interiors of distinct edges must not come closer than the
    # sampling resolution would explain
    length = cluster.frame.length
    bad = []
    for i in range(cluster.e - 1):
        d = np.abs(pts[i + 1 :, :, None] - pts[i]).min(axis=(1, 2))
        near = d < 0.25 * np.minimum(length[i], length[i + 1 :]) / samples
        bad += [(i, i + 1 + int(k)) for k in np.flatnonzero(near)]
    return bad


# ---------------------------------------------------------------------------
# building a cluster from bare arcs (labels inferred from the embedding)


def build_cluster_from_arcs(
    arcs: Sequence[Arc],
    merge_tol: float = 1e-9,
    labels: Optional[Sequence[str]] = None,
) -> Cluster:
    """Assemble a cluster from arcs, merging endpoints and inferring regions.

    Faces are read off the embedding; the face of most negative signed area
    becomes the exterior (region 0) and the rest are numbered by first
    appearance along the edge list.
    """
    scale = max(
        max(abs(a.tail.z), abs(a.head.z), a.chord_length()) for a in arcs
    )
    verts: List[Point] = []

    def vid(p: Point) -> int:
        for i, q in enumerate(verts):
            if abs(p.z - q.z) <= merge_tol * scale:
                return i
        verts.append(p)
        return len(verts) - 1

    raw_edges = []
    for j, a in enumerate(arcs):
        raw_edges.append(
            EdgeRecord(j, vid(a.tail), vid(a.head), a.bulge, left=-1, right=-1)
        )
    probe = Cluster(tuple(verts), tuple(raw_edges), region_count=0)
    _, _, faces = _face_walks(probe.frame.ends, probe.frame.alpha, probe.v)
    face_of = np.empty(2 * probe.e, dtype=int)
    for fi, walk in enumerate(faces):
        face_of[walk] = fi
    areas = [probe.face_area([_half_edge(k) for k in walk]) for walk in faces]
    region_id = {int(np.argmin(areas)): EXTERIOR}
    for fi in face_of.tolist():  # by first appearance along the edge list
        region_id.setdefault(fi, len(region_id))
    edges = tuple(
        replace(ed, left=region_id[face_of[2 * j]], right=region_id[face_of[2 * j + 1]])
        for j, ed in enumerate(raw_edges)
    )
    return Cluster(
        tuple(verts),
        edges,
        region_count=len(region_id) - 1,
        region_labels=tuple(labels) if labels else (),
    )


# ---------------------------------------------------------------------------
# JSON codec


def to_json_dict(cluster: Cluster) -> dict:
    regions = [{"id": 0, "label": "exterior"}]
    for r in range(1, cluster.n + 1):
        label = (
            cluster.region_labels[r]
            if r < len(cluster.region_labels)
            else f"region {r}"
        )
        regions.append({"id": r, "label": label})
    return {
        "version": 1,
        "vertices": [
            {"id": i, "x": p.x, "y": p.y} for i, p in enumerate(cluster.vertices)
        ],
        "edges": [
            {
                "id": ed.id,
                "tail": ed.tail,
                "head": ed.head,
                "bulge": ed.bulge,
                "left": ed.left,
                "right": ed.right,
            }
            for ed in cluster.edges
        ],
        "regions": regions,
        "exterior": 0,
    }


def _require(obj: dict, field: str, where: str):
    if field not in obj:
        raise ClusterFormatError(f"missing field {field!r} in {where}")
    return obj[field]


def from_json_dict(doc: dict) -> Cluster:
    if not isinstance(doc, dict):
        raise ClusterFormatError("document root must be an object")
    version = _require(doc, "version", "document")
    if version != 1:
        raise ClusterFormatError(f"unsupported version {version!r}")
    vlist = _require(doc, "vertices", "document")
    elist = _require(doc, "edges", "document")
    rlist = _require(doc, "regions", "document")
    exterior = _require(doc, "exterior", "document")
    if exterior != 0:
        raise ClusterFormatError("exterior region id must be 0")

    verts: Dict[int, Point] = {}
    for k, vo in enumerate(vlist):
        i = _require(vo, "id", f"vertices[{k}]")
        verts[i] = Point(
            float(_require(vo, "x", f"vertices[{k}]")),
            float(_require(vo, "y", f"vertices[{k}]")),
        )
    if sorted(verts) != list(range(len(verts))):
        raise ClusterFormatError("vertex ids must be 0..v-1 without gaps")

    region_ids = set()
    label_map: Dict[int, str] = {}
    for k, ro in enumerate(rlist):
        i = _require(ro, "id", f"regions[{k}]")
        region_ids.add(i)
        label_map[i] = str(ro.get("label", f"region {i}"))
    n = len(region_ids) - 1
    if n < 2:
        raise ClusterFormatError("cluster must have at least 2 interior regions")
    if sorted(region_ids) != list(range(n + 1)):
        raise ClusterFormatError("region ids must be 0..n without gaps")

    edges = []
    for k, eo in enumerate(elist):
        where = f"edges[{k}]"
        ed = EdgeRecord(
            id=int(_require(eo, "id", where)),
            tail=int(_require(eo, "tail", where)),
            head=int(_require(eo, "head", where)),
            bulge=float(_require(eo, "bulge", where)),
            left=int(_require(eo, "left", where)),
            right=int(_require(eo, "right", where)),
        )
        for fld in ("tail", "head"):
            if getattr(ed, fld) not in verts:
                raise ClusterFormatError(f"{where}.{fld} is not a vertex id")
        for fld in ("left", "right"):
            if getattr(ed, fld) not in region_ids:
                raise ClusterFormatError(f"{where}.{fld} is not a region id")
        edges.append(ed)

    labels = tuple(label_map[i] for i in range(n + 1))
    return Cluster(
        tuple(verts[i] for i in range(len(verts))),
        tuple(edges),
        region_count=n,
        region_labels=labels,
    )


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def dumps(cluster: Cluster) -> str:
    """Serialize with deterministic 17-significant-digit floats."""

    def render(obj) -> str:
        if isinstance(obj, float):
            return _fmt_float(obj)
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, int):
            return str(obj)
        if isinstance(obj, str):
            return json.dumps(obj)
        if isinstance(obj, list):
            return "[" + ", ".join(render(v) for v in obj) + "]"
        if isinstance(obj, dict):
            return (
                "{"
                + ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in obj.items())
                + "}"
            )
        raise TypeError(f"cannot serialize {type(obj)}")

    return render(to_json_dict(cluster)) + "\n"


def loads(text: str) -> Cluster:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ClusterFormatError(f"invalid JSON: {err}") from err
    return from_json_dict(doc)


# ---------------------------------------------------------------------------
# SVG rendering


def to_svg(
    cluster: Cluster,
    fill_pressures: Optional[np.ndarray] = None,
    stroke_width: Optional[float] = None,
) -> str:
    pts, _ = cluster.arc_samples([0.25, 0.5, 0.75])
    pts = np.concatenate([[p.z for p in cluster.vertices], pts.ravel()])
    x0, x1 = float(pts.real.min()), float(pts.real.max())
    y0, y1 = float(pts.imag.min()), float(pts.imag.max())
    mx = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    width = (x1 - x0) + 2 * mx
    height = (y1 - y0) + 2 * mx
    sw = stroke_width if stroke_width is not None else 0.005 * max(width, height)

    def arc_path(he: HalfEdge) -> str:
        phi = cluster.frame.phi[he[0]] if he[1] else -cluster.frame.phi[he[0]]
        hx, hy = cluster.vertices[cluster.end_vertex(he)]
        if abs(phi) < 1e-12:
            return f"L {hx:.9g} {hy:.9g}"
        r = 1.0 / abs(cluster.frame.kappa[he[0]])
        large = 1 if abs(phi) > math.pi / 2 else 0
        sweep = 1 if phi > 0 else 0
        return f"A {r:.9g} {r:.9g} 0 {large} {sweep} {hx:.9g} {hy:.9g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{x0 - mx:.9g} {-(y1 + mx):.9g} {width:.9g} {height:.9g}">',
        '<g transform="scale(1,-1)">',
    ]
    if fill_pressures is not None:
        pmax = max(float(np.abs(fill_pressures).max()), 1e-12)
        for r in range(1, cluster.n + 1):
            walk = cluster.region_walks[r]
            start = cluster.vertices[cluster.start_vertex(walk[0])]
            d = [f"M {start.x:.9g} {start.y:.9g}"]
            d += [arc_path(he) for he in walk]
            d.append("Z")
            frac = 0.5 * (1.0 + float(fill_pressures[r - 1]) / pmax)
            red = round(255 * frac)
            blue = 255 - red
            parts.append(
                f'<path d="{" ".join(d)}" fill="rgb({red},120,{blue})" '
                f'fill-opacity="0.35" stroke="none"/>'
            )
    for j in range(cluster.e):
        t = cluster.vertices[cluster.edges[j].tail]
        d = f"M {t.x:.9g} {t.y:.9g} " + arc_path((j, True))
        parts.append(
            f'<path d="{d}" fill="none" stroke="black" stroke-width="{sw:.9g}"/>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
