"""Cluster data structure: combinatorics, areas, perimeter, serialization.

A cluster of ``n`` regions is a chart point of dimension ``2v + e = 7n - 7``:
vertex coordinates plus one half-angle per edge.  The arrays are the
cluster: ``Cluster`` holds the read-only ``points``, ``ends`` (tail, head),
``phis`` and ``labels`` (left, right region) of its edges.  A document is
read column by column into them, building no rows; a cluster read from it,
or from ``Point`` and ``EdgeRecord`` rows, keeps the bulges and inverts them
once.  Every per-edge quantity (chord vector, direction, end tangents,
curvature, length, bulge) is closed form in the chord vector and the
half-angle, an array computed on first read; only :func:`_jacobian` needs
chart gradients, summed by one ``bincount`` on a per-type index.  Each
half-edge's oriented carrier (A, B, D) follows from those arrays by one
formula.  The combinatorial type is a ``Topology``, built from the edges'
ends and labels alone and interned once per type: the counterclockwise stars
(the half-edge after a has a's left region on its right), the face walks,
one boundary walk per region and the signed incidence S.  Building it is the
one structural check, and ``with_chart`` copies share it; each chart point, a
copy too, has its own test: every star's tangents turn once counterclockwise.
Areas and their derivatives need no walk: a region's walk is exactly the
half-edges with it on the left, so they come from the labels through S.

A half-edge is the integer k = 2j + end: it leaves end ``end`` of edge j
(0: the tail, travelling tail -> head), and its reverse is k ^ 1.  Per-edge
data with one entry per end is an (e, 2) array read at ``.flat[k]``: the
start vertex is ``ends.flat[k]`` and the end vertex ``ends.flat[k ^ 1]``,
the left region ``labels.flat[k]``, the leaving tangent angle
``alphas.flat[k]``, and the carrier ``(A, B, D)[..].flat[k]`` from
:meth:`Cluster.carriers`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain, pairwise
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ClusterFormatError, GeometryDomainError, StructuralError
from .geometry import (  # arc_tangent is unused here, but perfbench's tests resolve it
    PHI_LIMIT,
    Arc,
    Point,
    _unit_segment,
    arc_tangent,
    bulge_angle_from_area,
    carrier_coefficients,
)

EXTERIOR = 0
#: Chords of at most this many diameters are collapsed (validate, solvers).
CHORD_FLOOR = 1e-9


@dataclass(frozen=True)
class EdgeRecord:
    """One oriented arc: tail -> head with region labels on either side."""

    id: int
    tail: int
    head: int
    bulge: float
    left: int
    right: int


def _frozen(a, dtype, fresh: bool = False) -> np.ndarray:
    """``a`` as a read-only C-contiguous array of ``dtype``, copied unless it
    already is one or is ``fresh`` (held by nothing else): no caller's array is frozen."""
    a = np.asarray(a, dtype=dtype)
    if not fresh and (a.flags.writeable or not a.flags.c_contiguous):
        a = a.copy()
    a.setflags(write=False)
    return a


def _size(name: str, value, least: int) -> int:
    """``value`` as an int, if it is an integer (a numpy one too, not a bool)
    of at least ``least``; otherwise ``GeometryDomainError`` naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise GeometryDomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise GeometryDomainError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _face_walks(at: list, left: list):
    """Stars, face-walk successors and faces, lists of half-edge indices, of
    the cubic map whose half-edge k leaves vertex ``at[k]`` with region
    ``left[k]`` on its left and ``left[k ^ 1]`` on its right.  Star i,
    ``stars[3 i : 3 i + 3]``, lists the half-edges leaving vertex i
    counterclockwise from the smallest: the one after a has a's left region on
    its right.  The successor, the half-edge clockwise next to the reverse,
    keeps the same region on the left.  Raises :class:`StructuralError`
    unless every vertex is a triple junction whose regions fit that order."""
    n = len(at)
    around = [[] for _ in range(max(at, default=-1) + 1)]
    for k, i in enumerate(at):
        around[i].append(k)
    stars, cw = [], [0] * n  # cw: the half-edge clockwise next to each one at its vertex
    for i, star in enumerate(around):
        if len(star) != 3:
            raise StructuralError(f"vertex {i} has degree {len(star)}, expected 3")
        a, b, c = star
        if left[b ^ 1] != left[a]:
            b, c = c, b
        if (left[b ^ 1], left[c ^ 1], left[a ^ 1]) != (left[a], left[b], left[c]):
            raise StructuralError(f"vertex {i} has regions that fit no counterclockwise order")
        cw[a], cw[b], cw[c] = c, a, b
        stars += a, b, c
    succ, faces, seen = [cw[k ^ 1] for k in range(n)], [], [False] * n
    for k in range(n):
        if not seen[k]:
            walk, j = [], k
            while not seen[j]:
                seen[j] = True
                walk.append(j)
                j = succ[j]
            faces.append(walk)
    return stars, succ, faces


@dataclass(frozen=True, eq=False)
class Topology:
    """The combinatorial type of a cluster: a function of its edges' ends and
    labels and its region count, built once per type.

    Building it (:meth:`of`) is the structural check every entry point relies
    on, raising :class:`StructuralError` unless each vertex is a triple
    junction whose regions fit a counterclockwise order, the vertex-edge
    graph is connected, and there is one face walk per region 0..n.
    """

    ends: np.ndarray  # (e, 2) tail and head vertex
    labels: np.ndarray  # (e, 2) left and right region
    stars: np.ndarray  # (v, 3) outgoing half-edges, counterclockwise
    successor: np.ndarray  # (2e,) next half-edge of each face walk
    walks: Tuple[np.ndarray, ...]  # region r's boundary walk at index r
    incidence: np.ndarray  # (n, e) signed edge-region incidence S

    @classmethod
    def of(cls, ends: np.ndarray, labels: np.ndarray, n: int) -> "Topology":
        at, left = ends.ravel().tolist(), labels.ravel().tolist()
        stars, successor, faces = _face_walks(at, left)
        v = len(stars) // 3
        reached, todo = [False] * v, [0] if v else []
        for i in todo:  # breadth first over each vertex's three neighbours
            for k in stars[3 * i : 3 * i + 3]:
                if not reached[j := at[k ^ 1]]:
                    reached[j] = True
                    todo.append(j)
        if len(todo) < v:
            unreached = [i for i in range(v) if not reached[i]]
            raise StructuralError(f"vertices {unreached} are not connected to vertex 0")
        faces.sort(key=lambda walk: left[walk[0]])
        if (found := [left[walk[0]] for walk in faces]) != list(range(n + 1)):
            raise StructuralError(f"face labels {found}, expected one face per region 0..{n}")
        flat = _frozen(stars + successor + list(chain(*faces)), int, True)  # one conversion, sliced, shared
        stops = accumulate(map(len, faces), initial=3 * v + len(at))
        return cls(
            ends, labels, flat[: 3 * v].reshape(-1, 3), flat[3 * v : 3 * v + len(at)],
            tuple(flat[a:b] for a, b in pairwise(stops)), _frozen(incidence(labels, n), float, True),
        )

    @cached_property  # this and the next two: per-type indices, built on first use
    def _star_next(self) -> np.ndarray:
        """(v, 3) the half-edge after each one in its star, counterclockwise."""
        return self.stars[:, [1, 2, 0]]

    @cached_property
    def _columns(self) -> np.ndarray:
        """(e, 5) chart columns of each edge: tail x, y, head x, y, and its phi."""
        e, v = len(self.ends), len(self.stars)
        return np.column_stack([np.repeat(2 * self.ends, 2, axis=1) + [0, 1, 0, 1], 2 * v + np.arange(e)])

    @cached_property
    def _scatter(self) -> np.ndarray:
        """Flat index of each :func:`_jacobian` term in the rows [angle; cocycle; area; exterior
        area] x (2v + e): per edge end and column the angle rows x, y of its vertex, then per
        end its cocycle row and its left region's area row, times the edge's :attr:`_columns`."""
        v, e, n = len(self.stars), len(self.ends), len(self.incidence)
        width, cols = 2 * v + e, self._columns[:, None, :]
        angle = (2 * self.ends[:, :, None, None] + [0, 1]) * width + cols[..., None]
        others = np.stack([2 * v + self.ends, 3 * v + (self.labels - 1) % (n + 1)], axis=-1)
        return np.concatenate([angle.ravel(), (others[..., None] * width + cols[:, :, None]).ravel()])


@lru_cache(maxsize=128)  # distinct types kept: far more than a session of documents meets
def _interned(ends: bytes, labels: bytes, n: int) -> Topology:
    """The one :class:`Topology` of the type with these ``ends`` and ``labels`` bytes."""
    return Topology.of(np.frombuffer(ends, int).reshape(-1, 2), np.frombuffer(labels, int).reshape(-1, 2), n)


def _star_fault(alphas: np.ndarray, topology: Topology) -> Optional[int]:
    """The first vertex whose leaving tangents ``alphas`` do not turn once
    counterclockwise around its star, or None where they realize ``topology``."""
    alpha = alphas.ravel()
    turns = np.mod(alpha[topology._star_next] - alpha[topology.stars], 2.0 * math.pi)
    if turns.sum() <= 2.0 * math.pi * (len(turns) + 0.5):  # each star turns once, by 2 pi, or twice
        return None
    return int(np.argmax(turns.sum(axis=1) > 3.0 * math.pi))


def incidence(labels: np.ndarray, n: int) -> np.ndarray:
    """Signed edge-region incidence S (n x e): +1 where r is edge j's left
    label, -1 where it is its right; the exterior row (minus the others' sum)
    is dropped.  Its columns are those of the identity's rows 1..n."""
    one = np.eye(n + 1)[1:]
    return one.take(labels[:, 0], axis=1) - one.take(labels[:, 1], axis=1)


@dataclass(frozen=True, eq=False, init=False)
class Cluster:
    """A chart point of a cluster type: the read-only arrays ``points``,
    ``ends``, ``phis`` and ``labels``, and the region count.
    ``Cluster(vertices, edges, region_count, region_labels)`` builds one from
    ``Point`` and ``EdgeRecord`` rows, row j being edge j, keeping their
    bulges; :meth:`from_arrays` builds one from the arrays.  A cluster is
    equal only to itself."""

    points: np.ndarray  # (v,) complex vertex positions
    ends: np.ndarray  # (e, 2) int tail and head vertex
    labels: np.ndarray  # (e, 2) int left and right region
    region_count: int  # interior regions; exterior is region 0 on top
    region_labels: Tuple[str, ...]

    def __init__(
        self, vertices: Sequence[Point], edges: Sequence[EdgeRecord], region_count: int,
        region_labels: Sequence[str] = (),
    ):
        rows = np.array([(ed.tail, ed.head, ed.left, ed.right) for ed in edges], dtype=int).reshape(-1, 4)
        arcs = {"bulges": [ed.bulge for ed in edges]}
        self._fill([p.z for p in vertices], rows[:, :2], rows[:, 2:], region_count, region_labels, **arcs)

    @classmethod
    def from_arrays(cls, points, ends, phis, labels, region_count, region_labels=()) -> "Cluster":
        """The cluster with these arrays, shared if already read-only."""
        c = cls.__new__(cls)
        c._fill(points, ends, labels, region_count, region_labels, phis=phis)
        return c

    def _fill(self, points, ends, labels, region_count, region_labels, **arcs) -> None:
        self.__dict__.update(
            points=_frozen(points, complex), ends=_frozen(ends, int), labels=_frozen(labels, int),
            region_count=region_count, region_labels=tuple(region_labels),
            **{name: _frozen(a, float) for name, a in arcs.items()},
        )

    @cached_property
    def phis(self) -> np.ndarray:
        """(e,) half-angles; a cluster read from rows inverts its bulges here."""
        inverted = map(bulge_angle_from_area, self.chords.tolist(), self.bulges.tolist())
        return _frozen(list(inverted), float, True)

    @cached_property
    def bulges(self) -> np.ndarray:
        """(e,) segment_area(phi, c), or the bulges of the rows read."""
        return _frozen(self.chords * self.chords * self._segments[0], float, True)

    @cached_property
    def _segments(self) -> np.ndarray:
        """(2, e) segment_area(phi, 1) and its phi derivative, one evaluation of the
        formula per edge: below a few dozen edges that is cheaper than a numpy form
        of its series branch."""
        return np.array(list(map(_unit_segment, self.phis.tolist()))).reshape(-1, 2).T

    @cached_property
    def chord_vectors(self) -> np.ndarray:
        """(e,) w = head - tail."""
        return _frozen(self.points[self.ends[:, 1]] - self.points[self.ends[:, 0]], complex, True)

    @cached_property
    def chords(self) -> np.ndarray:
        """(e,) c = |w| by ``hypot``, as Python's ``abs`` (numpy's can differ by an ulp)."""
        w = self.chord_vectors
        return _frozen(np.hypot(w.real, w.imag), float, True)

    @cached_property
    def directions(self) -> np.ndarray:
        """(e,) unit chord directions u = w / c."""
        return _frozen(self.chord_vectors / self.chords, complex, True)

    @cached_property
    def alphas(self) -> np.ndarray:
        """(e, 2) angle of the tangent leaving each end: theta - phi at the
        tail and theta + phi + pi at the head, theta the chord's angle."""
        w, phi, alpha = self.chord_vectors, self.phis, np.empty((self.e, 2))
        theta = np.arctan2(w.imag, w.real)
        alpha[:, 0], alpha[:, 1] = theta - phi, theta + phi + math.pi
        return _frozen(alpha, float, True)

    @property
    def _tangents(self) -> np.ndarray:
        """(e, 2) unit tangents exp(i alphas) leaving each end, cheap enough not to keep."""
        return np.exp(1j * self.alphas)

    @cached_property
    def kappas(self) -> np.ndarray:
        """(e,) forward signed curvatures 2 sin(phi) / c."""
        return _frozen(2.0 * np.sin(self.phis) / self.chords, float, True)

    @cached_property
    def lengths(self) -> np.ndarray:
        """(e,) arc lengths c / sinc(phi)."""
        return _frozen(self.chords / np.sinc(self.phis / math.pi), float, True)

    # -- rows: the constructor and codec adapter ---------------------------

    @property
    def vertices(self) -> Tuple[Point, ...]:
        return tuple(map(Point, self.points.real.tolist(), self.points.imag.tolist()))

    @property
    def edges(self) -> Tuple[EdgeRecord, ...]:
        rows = zip(self.ends.tolist(), self.bulges.tolist(), self.labels.tolist())
        return tuple(EdgeRecord(j, t, h, b, l, r) for j, ((t, h), b, (l, r)) in enumerate(rows))

    # -- basic counts ------------------------------------------------------

    @property
    def v(self) -> int:
        return self.points.size

    @property
    def e(self) -> int:
        return len(self.ends)

    @property
    def n(self) -> int:
        return self.region_count

    def diameter(self) -> float:
        p = self.points.view(float).reshape(-1, 2) if self.v else np.zeros((1, 2))
        return math.hypot(*(np.maximum.reduce(p) - np.minimum.reduce(p)).tolist()) or 1.0

    def extent(self) -> float:
        """The diagonal of the arcs' bounding box."""
        x0, x1, y0, y1 = self._box()
        return math.hypot(x1 - x0, y1 - y0) or 1.0

    def _box(self) -> Tuple[float, float, float, float]:
        """(x0, x1, y0, y1) of the arcs' bounding box, in closed form: the box
        of the vertices and of each arc's points at the fractions t in (0, 1)
        where its tangent, turned from ``alphas[:, 0]`` by 2 phi t, points
        along an axis."""
        alpha, turn = self.alphas[:, :1], 2.0 * self.phis[:, None]
        quarter = 0.5 * math.pi
        axis = quarter * (np.floor(np.minimum(alpha, alpha + turn) / quarter) + np.arange(1, 5))
        t = np.divide(axis - alpha, turn, out=np.zeros(axis.shape), where=turn != 0.0)
        # a fraction outside (0, 1), or none on a straight edge, reads the tail
        at, _ = self.arc_samples(np.where((t > 0) & (t < 1), t, 0.0))
        p = np.concatenate([self.points, at.ravel()])
        return float(p.real.min()), float(p.real.max()), float(p.imag.min()), float(p.imag.max())

    # -- chart coordinates -------------------------------------------------

    def chart(self) -> np.ndarray:
        """Coordinates (x_1, y_1, ..., x_v, y_v, phi_1, ..., phi_e)."""
        return np.concatenate([self.points.view(float), self.phis])

    def chart_units(self) -> np.ndarray:
        """The unit of each chart coordinate: the diameter d for vertex
        coordinates and 1 for the dimensionless half-angles."""
        return self._units

    @cached_property
    def _units(self) -> np.ndarray:
        return _frozen(np.repeat([self.diameter(), 1.0], [2 * self.v, self.e]), float, True)

    def unit(self) -> "Cluster":
        """The unit frame: ``with_chart(chart() / chart_units())``, of diameter 1."""
        return self.with_chart(self.chart() / self.chart_units())

    def with_chart(self, x: np.ndarray) -> "Cluster":
        """The cluster of the same type at chart point ``x``.  Its points and
        phis are views of ``x``, copied unless read-only, and it shares this
        cluster's ``ends``, ``labels`` and type, not its star test."""
        x = _frozen(x, float)
        if x.shape != (2 * self.v + self.e,):
            raise ValueError("chart vector has wrong length")
        copy = Cluster.__new__(Cluster)
        copy.__dict__.update(  # views of the read-only x; the type fills the cached property
            points=x[: 2 * self.v].view(complex), ends=self.ends, phis=x[2 * self.v :], labels=self.labels,
            region_count=self.region_count, region_labels=self.region_labels, _type=self._type,
        )
        return copy

    @cached_property
    def _type(self) -> Topology:
        """The type interned by (ends, labels, n), shared by copies; :class:`StructuralError` if none."""
        top = _interned(self.ends.tobytes(), self.labels.tobytes(), self.n)
        if len(top.stars) < self.v:
            raise StructuralError(f"vertex {len(top.stars)} has degree 0, expected 3")
        return top

    @cached_property
    def topology(self) -> Topology:
        """:attr:`_type`, once :func:`_star_fault` passes on this very chart point; else StructuralError."""
        if (i := _star_fault(self.alphas, self._type)) is not None:
            raise StructuralError(f"vertex {i} turns against the order of its regions")
        return self._type

    # -- derived geometry --------------------------------------------------

    def arc_of(self, edge_index: int) -> Arc:
        tail, head = self.points[self.ends[edge_index]].tolist()
        return Arc(Point.of(tail), Point.of(head), float(self.bulges[edge_index]))

    def arc_samples(self, t) -> Tuple[np.ndarray, np.ndarray]:
        """Points and unit tangents of every edge at angular fractions ``t``,
        shared by all edges (k,) or one row per edge (e, k), each of shape
        (e, k): ``arc_point`` and ``arc_tangent`` for all arcs at once, from
        the half-angles (no inversion per sample)."""
        tail, w = self.points[self.ends[:, 0]], self.chord_vectors
        phi, t = self.phis[:, None], np.atleast_2d(np.asarray(t, dtype=float))
        ratio = t * np.sinc(phi * t / math.pi) / np.sinc(phi / math.pi)
        at = tail[:, None] + w[:, None] * ratio * np.exp(1j * phi * (t - 1.0))
        return at, self.directions[:, None] * np.exp(1j * phi * (2.0 * t - 1.0))

    def carriers(
        self, centre: complex = 0j, scale: float = 1.0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, B, D) of every half-edge's carrier in coordinates
        (z - centre) / scale, each of shape (e, 2) with [j, 0] the forward
        half-edge: one formula at the point, tangent and curvature where the
        half-edge leaves.  Built in those coordinates, D keeps the digits that
        translating world coordinates far from the origin would cancel."""
        start, kappa = (self.points[self.ends] - centre) / scale, np.outer(self.kappas, [1.0, -1.0])
        return carrier_coefficients(start, self._tangents, scale * kappa)

    def next_half_edge(self, k: int) -> int:
        """Successor in the face walk keeping the same region on the left:
        the half-edge clockwise next to the reverse k ^ 1."""
        return int(self.topology.successor[k])


# ---------------------------------------------------------------------------
# chart gradients and the stacked Jacobian

_END_SIGN = np.array([1.0, -1.0])  # the curvature and area term of an edge's tail are +, its head's -
_TURN = np.array([-1.0, 1.0])  # d alpha / d phi at the tail and head, and a chord gradient's sign there
_SHOELACE = np.array([-0.5j, 0.5j])  # the shoelace term's tail and head gradients, per far end


def _chart_gradients(cluster: Cluster) -> np.ndarray:
    """Exact gradients, shape (e, 3, 5) in each edge's :attr:`Topology._columns`, of its chord
    angle theta, curvature kappa = 2 sin(phi) / c and area term (bulge c^2 a(phi) plus shoelace
    term 1/2 Im(conj(tail) head)): as d/d Re w + i d/d Im w in the chord w = c u, i u / c,
    -kappa u / c and (2 bulge / c) u, minus at the tail and plus at the head, the shoelace term
    adding -i head / 2 and i tail / 2; in phi, 0, 2 cos(phi) / c and c^2 a'(phi)."""
    e, c = cluster.e, cluster.chords
    scale = np.empty((e, 3), dtype=complex)  # times u / c, then minus at the tail and plus at the head
    scale[:, 0], scale[:, 1], scale[:, 2] = 1j, -cluster.kappas, 2.0 * cluster.bulges
    ends = (scale * (cluster.directions / c)[:, None])[..., None] * _TURN
    ends[:, 2] += _SHOELACE * cluster.points[cluster.ends[:, ::-1]]
    grads = np.empty((e, 3, 5))
    grads[..., :4], grads[:, 0, 4] = ends.view(float), 0.0
    grads[:, 1, 4], grads[:, 2, 4] = 2.0 * np.cos(cluster.phis) / c, c * c * cluster._segments[1]
    return grads


def _jacobian(cluster: Cluster) -> np.ndarray:
    """Exact d[angle; cocycle; area]/d(chart), shape (3v + n, 2v + e): per edge
    end, d e^{i alpha} = i e^{i alpha} d(theta -+ phi), its signed curvature's
    and area term's gradients, summed by one ``bincount`` on :attr:`Topology._scatter`."""
    grads, turn = _chart_gradients(cluster), 1j * cluster._tangents
    angle = turn[:, :, None] * grads[:, None, 0]  # edge, end, column; x and y as real and imaginary
    angle[:, :, 4] = turn * _TURN
    others = grads[:, None, 1:] * _END_SIGN[:, None, None]  # edge, end, cocycle then area, column
    rows, cols = 3 * cluster.v + cluster.n, 2 * cluster.v + cluster.e
    terms = np.concatenate([angle.view(float).ravel(), others.ravel()])
    J = np.bincount(cluster.topology._scatter, terms, (rows + 1) * cols)
    return J[: rows * cols].reshape(rows, cols)


# ---------------------------------------------------------------------------
# areas, perimeter, Jacobian, rigid motions


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
    terms = shoelace_terms(cluster.points, cluster.ends)
    return cluster.topology.incidence @ (cluster.bulges + terms)


def perimeter(cluster: Cluster) -> float:
    return float(cluster.lengths.sum())


def area_jacobian(cluster: Cluster) -> np.ndarray:
    """d(areas)/d(chart), shape (n, 2v + e): the area rows of :func:`_jacobian`."""
    return _jacobian(cluster)[3 * cluster.v :]


def rigid_motion_basis(cluster: Cluster) -> np.ndarray:
    """Orthonormal chart vectors for x/y-translation and rotation, shape
    (3, 2v + e).

    Half-angle entries are exactly zero: arcs keep their half-angles under
    rigid motions.  Rotation is taken about the vertex centroid, which makes
    it orthogonal to the translations.
    """
    p = cluster.points
    basis = np.zeros((3, 2 * cluster.v + cluster.e))
    moves = basis[:, : 2 * cluster.v].view(complex)
    moves[0], moves[1], moves[2] = 1.0, 1j, 1j * (p - p.mean())
    return basis / np.linalg.norm(basis, axis=1, keepdims=True)


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


def validate(cluster: Cluster, check_disjoint: bool = False) -> ValidationReport:
    """Named checks of a cluster document; ``topology`` is the structural
    check (:attr:`Cluster.topology`) that every other entry point relies on.
    ``half_angles`` bounds |phi| by ``PHI_LIMIT``, as a document's bulges do, and
    ``positive_areas`` asks for normal positive areas, not ones lost to underflow."""
    return _checks(cluster, 1.0, check_disjoint)


def _checks(cluster: Cluster, scale: float, check_disjoint: bool = False) -> ValidationReport:
    """:func:`validate`'s report on the cluster ``scale`` times ``cluster``,
    read on ``cluster``: the counts, labels, half-angles, star order and chord
    floor relative to the diameter do not change with scale, so only the chart
    is tested times ``scale``, and the bulges and areas times ``scale ** 2``."""
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
    # bulges: none inverted
    numbers = (scale * cluster.points.view(float)).tolist() + (scale * scale * cluster.bulges).tolist()
    bad = [] if math.isfinite(sum(numbers)) else np.flatnonzero(~np.isfinite(numbers)).tolist()
    add("finite_chart", not bad, f"non-finite chart coordinates {bad}")
    if bad:
        return ValidationReport(tuple(checks))

    floor = CHORD_FLOOR * cluster.diameter()
    short = [j for j, c in enumerate(cluster.chords.tolist()) if c <= floor]
    add("edge_chords", not short, f"degenerate edges {short}")
    bad_labels = [j for j, (left, right) in enumerate(cluster.labels.tolist()) if left == right]
    add("edge_labels", not bad_labels, f"left == right on edges {bad_labels}")

    if short:
        add("topology", False, "skipped: degenerate edges")
    else:
        try:  # a document's bulges invert only to half-angles below PHI_LIMIT
            wide = [j for j, phi in enumerate(cluster.phis.tolist()) if abs(phi) >= PHI_LIMIT]
            add("half_angles", not wide, f"near-full-circle edges {wide}")
            cluster.topology
        except GeometryDomainError as err:
            add("half_angles", False, str(err))
        except StructuralError as err:
            add("topology", False, str(err))
        else:
            add("topology", True)
            areas = (scale * scale * region_areas(cluster)).tolist()
            tiny = np.finfo(float).tiny
            add("positive_areas", all(tiny <= a < math.inf for a in areas), f"areas {areas}")

    if check_disjoint:
        bad_pairs = _disjointness_scan(cluster)
        add("arc_disjointness", not bad_pairs, f"close pairs {bad_pairs}")

    return ValidationReport(tuple(checks))


def validated(cluster: Cluster) -> Cluster:
    """``cluster`` if :func:`validate` accepts it; otherwise raises
    :class:`GeometryDomainError` naming every failed check."""
    _admit(validate(cluster))
    return cluster


def _admit(report: ValidationReport) -> None:
    """Raises :class:`GeometryDomainError` naming every failed check of ``report``, if any."""
    if not report.ok:
        raise GeometryDomainError(f"invalid cluster: {'; '.join(report.failures())}")


def _disjointness_scan(cluster: Cluster, samples: int = 16) -> List[Tuple[int, int]]:
    pts, _ = cluster.arc_samples((np.arange(samples) + 0.5) / samples)
    # sampled interiors of distinct edges must not come closer than the
    # sampling resolution would explain
    length, bad = cluster.lengths, []
    for i in range(cluster.e - 1):
        d = np.abs(pts[i + 1 :, :, None] - pts[i]).min(axis=(1, 2))
        near = d < 0.25 * np.minimum(length[i], length[i + 1 :]) / samples
        bad += [(i, i + 1 + int(k)) for k in np.flatnonzero(near)]
    return bad


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
            {"id": i, "x": z.real, "y": z.imag} for i, z in enumerate(cluster.points.tolist())
        ],
        "edges": [
            {"id": j, "tail": tail, "head": head, "bulge": bulge, "left": left, "right": right}
            for j, ((tail, head), bulge, (left, right)) in enumerate(
                zip(cluster.ends.tolist(), cluster.bulges.tolist(), cluster.labels.tolist())
            )
        ],
        "regions": regions,
        "exterior": 0,
    }


def _require(obj: dict, field: str, where: str):
    if not isinstance(obj, dict):
        raise ClusterFormatError(f"{where} must be an object")
    if field not in obj:
        raise ClusterFormatError(f"missing field {field!r} in {where}")
    return obj[field]


def _array(doc: dict, field: str) -> list:
    entries = _require(doc, field, "document")
    if not isinstance(entries, list):
        raise ClusterFormatError(f"{field!r} must be an array")
    return entries


def _columns(entries: list, where: str, fields: Tuple[str, ...], kind=None, stop: int = 0, what: str = ""):
    """The values of ``fields`` of the objects ``entries``, in one list (kind
    None) or as an array of JSON numbers (float) or of ids 0..stop-1 of a
    ``what`` (int), one row per entry, type-checked by one pass over them.
    A :class:`ClusterFormatError` names the first bad entry and field."""
    try:
        rows = map(itemgetter(*fields), entries)
        values = list(chain.from_iterable(rows) if len(fields) > 1 else rows)
    except (KeyError, TypeError):
        for k, obj in enumerate(entries):
            for field in fields:
                _require(obj, field, f"{where}[{k}]")
        raise
    if kind is None:
        return values
    allowed, noun = ({int}, "an integer") if kind is int else ({int, float}, "a number")
    if allowed.issuperset(map(type, values)):
        try:
            if kind is float or not values or 0 <= min(values) and max(values) < stop:
                return _frozen(np.array(values, dtype=kind).reshape(-1, len(fields)), kind, True)
        except OverflowError:  # an integer beyond the float range
            pass
    for i, x in enumerate(values):
        name = f"{where}[{i // len(fields)}].{fields[i % len(fields)]}"
        if type(x) not in allowed:
            raise ClusterFormatError(f"{name} must be {noun}")
        if kind is int and not 0 <= x < stop:
            raise ClusterFormatError(f"{name} is not a {what} id")
        try:
            float(x)
        except OverflowError:
            raise ClusterFormatError(f"{name} must be {noun}") from None


def _order(ids: list, what: str):
    """The entry order sorting ``ids``, ``slice(None)`` if they are already
    0..k-1; raises :class:`ClusterFormatError` unless they are 0..k-1, each
    once."""
    count = list(range(len(ids)))
    if {int}.issuperset(map(type, ids)) and (ids == count or sorted(ids) == count):
        return slice(None) if ids == count else sorted(count, key=ids.__getitem__)
    raise ClusterFormatError(f"{what} ids must be 0..{len(ids) - 1}, each once")


def from_json_dict(doc: dict) -> Cluster:
    """The cluster of a parsed document, decoded column by column; raises
    :class:`ClusterFormatError` naming the first bad entry and field."""
    if not isinstance(doc, dict):
        raise ClusterFormatError("document root must be an object")
    version = _require(doc, "version", "document")
    if type(version) is not int or version != 1:
        raise ClusterFormatError(f"unsupported version {version!r}")
    vlist, elist, rlist = _array(doc, "vertices"), _array(doc, "edges"), _array(doc, "regions")
    exterior = _require(doc, "exterior", "document")
    if type(exterior) is not int or exterior != 0:
        raise ClusterFormatError("exterior region id must be 0")

    points = _columns(vlist, "vertices", ("x", "y"), float).view(complex).ravel()
    points = points[_order(_columns(vlist, "vertices", ("id",)), "vertex")]
    ids = _columns(rlist, "regions", ("id",))
    _order(ids, "region")
    rows = sorted(zip(ids, rlist), key=itemgetter(0))
    labels = [str(ro["label"]) if "label" in ro else f"region {i}" for i, ro in rows]
    n = len(labels) - 1
    if n < 2:
        raise ClusterFormatError("cluster must have at least 2 interior regions")

    ends = _columns(elist, "edges", ("tail", "head"), int, len(points), "vertex")
    sides = _columns(elist, "edges", ("left", "right"), int, n + 1, "region")
    bulges = _columns(elist, "edges", ("bulge",), float).ravel()
    order = _order(_columns(elist, "edges", ("id",)), "edge")
    c = Cluster.__new__(Cluster)
    c._fill(points, ends[order], sides[order], n, labels, bulges=bulges[order])
    return c


def dumps(cluster: Cluster) -> str:
    """Serialize with the standard library's JSON writer: every float is its
    shortest round-trip repr, so the output is deterministic and exact."""
    try:
        return json.dumps(to_json_dict(cluster), allow_nan=False) + "\n"
    except ValueError as err:
        raise ClusterFormatError(f"cannot write a non-finite number as JSON: {err}") from err


def loads(text: str) -> Cluster:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ClusterFormatError(f"invalid JSON: {err}") from err
    return from_json_dict(doc)


# ---------------------------------------------------------------------------
# SVG rendering

#: Arcs with |phi| below this are drawn, and pinned, as straight segments.
STRAIGHT_PHI = 1e-12


def to_svg(cluster: Cluster, fill_pressures: Optional[np.ndarray] = None) -> str:
    """SVG of every arc, and of each region filled by ``fill_pressures``, one finite number per interior region."""
    if fill_pressures is not None:
        fill_pressures = np.asarray(fill_pressures, dtype=float)
        if fill_pressures.shape != (cluster.n,) or not np.isfinite(fill_pressures).all():
            raise GeometryDomainError(f"fill_pressures must be {cluster.n} finite numbers, one per region")
    x0, x1, y0, y1 = cluster._box()
    mx = 0.05 * (max(x1 - x0, y1 - y0) or 1.0)
    width = (x1 - x0) + 2 * mx
    height = (y1 - y0) + 2 * mx
    sw = 0.005 * max(width, height)

    # shortest round-trip digits: a cluster far from the origin keeps its shape
    at = [f"{w.real!r} {w.imag!r}" for w in cluster.points.tolist()]
    xy = [at[i] for i in cluster.ends.ravel().tolist()]  # the vertex each half-edge leaves
    phis, kappas = cluster.phis.tolist(), cluster.kappas.tolist()

    def arc_path(k: int) -> str:
        phi = -phis[k >> 1] if k & 1 else phis[k >> 1]
        if abs(phi) < STRAIGHT_PHI:
            return f"L {xy[k ^ 1]}"
        r = f"{1.0 / abs(kappas[k >> 1]):.9g}"
        large = 1 if abs(phi) > math.pi / 2 else 0
        sweep = 1 if phi > 0 else 0
        return f"A {r} {r} 0 {large} {sweep} {xy[k ^ 1]}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{x0 - mx!r} {-(y1 + mx)!r} {width:.9g} {height:.9g}">',
        '<g transform="scale(1,-1)">',
    ]
    if fill_pressures is not None:
        pmax = float(np.abs(fill_pressures).max()) or 1.0
        for r in range(1, cluster.n + 1):
            walk = cluster.topology.walks[r].tolist()
            d = " ".join([f"M {xy[walk[0]]}", *map(arc_path, walk), "Z"])
            # zero pressure lands on red 128, not on a rounding tie
            red = 128 + round(127 * float(fill_pressures[r - 1]) / pmax)
            parts.append(
                f'<path d="{d}" fill="rgb({red},120,{255 - red})" fill-opacity="0.35" stroke="none"/>'
            )
    for j in range(cluster.e):
        d = f"M {xy[2 * j]} {arc_path(2 * j)}"
        parts.append(f'<path d="{d}" fill="none" stroke="black" stroke-width="{sw:.9g}"/>')
    parts += ["</g>", "</svg>"]
    return "\n".join(parts) + "\n"
