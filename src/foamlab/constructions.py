"""Preset clusters: closed forms where elementary, ansatz-plus-solve elsewhere.

Constructor correctness is certified by the equilibrium checker rather than
by rederiving formulas: every non-quasi preset must classify as Equilibrium.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cluster import (
    EXTERIOR,
    Cluster,
    EdgeRecord,
    build_cluster_from_arcs,
    region_areas,
)
from .errors import GeometryDomainError, TopologyBreakdown
from .equilibrium import chart_lm, pin_gauge, residual_jacobian, residuals, solve
from .geometry import (
    AT_INFINITY,
    Arc,
    MobiusMap,
    Point,
    arc_through,
    mobius_apply_arc,
    mobius_apply_point,
    pencil_meet,
    second_intersection,
    segment_area,
)


def mobius_apply_cluster(m: MobiusMap, cluster: Cluster) -> Cluster:
    """Image cluster under a Mobius map whose pole avoids every arc.

    The map keeps the counterclockwise order at every vertex, so the image
    is a chart point of the same topology, and moves only which face holds
    infinity.  A pole inside interior region r makes r's image unbounded,
    which shows as its one negative area; region ids 0 and r are then
    swapped on every edge.
    """
    arcs = [mobius_apply_arc(m, cluster.arc_of(j)) for j in range(cluster.e)]
    verts = [mobius_apply_point(m, p) for p in cluster.vertices]
    image = cluster.with_chart(np.array([xy for p in verts for xy in p] + [a.bulge for a in arcs]))
    areas = region_areas(image)
    if areas.min() >= 0.0:
        return image
    r = int(areas.argmin()) + 1
    swap = {EXTERIOR: r, r: EXTERIOR}
    return replace(image, edges=tuple(
        replace(ed, left=swap.get(ed.left, ed.left), right=swap.get(ed.right, ed.right))
        for ed in image.edges
    ))


# ---------------------------------------------------------------------------
# elementary closed forms


def double_bubble(r1: float = 1.0, r2: float = 1.0) -> Cluster:
    """Standard double bubble with outer radii r1 and r2.

    Centers sit at distance d with d^2 = r1^2 + r2^2 - r1 r2 (law of
    cosines for the 120-degree vertex triangle); the middle interface has
    curvature |1/r1 - 1/r2| and is straight for equal radii.
    """
    if not (r1 > 0 and r2 > 0):
        raise GeometryDomainError("radii must be positive")
    d = math.sqrt(r1 * r1 + r2 * r2 - r1 * r2)
    x = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    y = math.sqrt(r1 * r1 - x * x)
    v_top = Point(x, y)
    v_bot = Point(x, -y)
    outer1 = arc_through(v_top, Point(-r1, 0.0), v_bot)
    outer2 = arc_through(v_bot, Point(d + r2, 0.0), v_top)
    if abs(r1 - r2) < 1e-14 * (r1 + r2):
        middle = Arc(v_bot, v_top, 0.0)
    else:
        # swap so the interface always bows toward the larger bubble
        big_first = r1 >= r2
        ra, rb = (r1, r2) if big_first else (r2, r1)
        r0 = ra * rb / (ra - rb)
        xm = x + math.copysign(math.sqrt(max(r0 * r0 - y * y, 0.0)), r1 - r2)
        apex = Point(xm - math.copysign(r0, r1 - r2), 0.0)
        middle = arc_through(v_bot, apex, v_top)
    return build_cluster_from_arcs(
        [outer1, outer2, middle], labels=("exterior", "bubble 1", "bubble 2")
    )


def arc_triangle(
    scale: float = 1.0, center: Point = Point(0.0, 0.0), rotation: float = 0.0
) -> Tuple[Arc, Arc, Arc]:
    """Equilateral three-arc loop with 120-degree interior angles.

    Vertices on a circle of radius ``scale`` about ``center``; each edge
    bulges outward with half-angle pi/6.  This is the harness object used by
    decoration surgery, not a full cluster.
    """
    if not scale > 0:
        raise GeometryDomainError("scale must be positive")
    verts = [
        Point.of(center.z + scale * cmath.exp(1j * (rotation + math.pi / 2 + 2 * math.pi * k / 3)))
        for k in range(3)
    ]
    c = scale * math.sqrt(3.0)
    bulge = segment_area(math.pi / 6, c)
    return tuple(
        Arc(verts[k], verts[(k + 1) % 3], bulge) for k in range(3)
    )


def triple_bubble(
    areas: Optional[Sequence[float]] = None,
    interface_length: float = 1.0,
    mobius: Optional[MobiusMap] = None,
) -> Cluster:
    """Standard triple bubble.

    The symmetric instance is closed form: three straight interfaces of
    length ``interface_length`` radiating from the center at 120 degrees and
    three outer semicircular arcs (half-angle pi/2).  General area vectors
    are reached by the area-constrained solver; a Mobius map may be applied
    afterwards (its pole must avoid the cluster).
    """
    ell = interface_length
    if not ell > 0:
        raise GeometryDomainError("interface_length must be positive")
    center = Point(0.0, 0.0)
    angles = [math.pi / 6, 5 * math.pi / 6, 3 * math.pi / 2]
    outer = [Point.of(ell * cmath.exp(1j * a)) for a in angles]
    arcs: List[Arc] = []
    for k in range(3):
        arcs.append(Arc(center, outer[k], 0.0))
    chord = ell * math.sqrt(3.0)
    bulge = segment_area(math.pi / 2, chord)
    for k in range(3):
        arcs.append(Arc(outer[k], outer[(k + 1) % 3], bulge))
    cluster = build_cluster_from_arcs(
        arcs, labels=("exterior", "bubble 1", "bubble 2", "bubble 3")
    )
    if areas is not None:
        target = np.asarray(areas, dtype=float)
        base = region_areas(cluster)
        # rescale the symmetric seed to the right total before solving
        s = math.sqrt(target.sum() / base.sum())
        cluster = cluster.with_chart(_scaled_chart(cluster, s))
        cluster = solve(cluster, target)
    if mobius is not None:
        cluster = mobius_apply_cluster(mobius, cluster)
    return cluster


def _scaled_chart(cluster: Cluster, s: float) -> np.ndarray:
    x = cluster.chart()
    x[: 2 * cluster.v] *= s
    x[2 * cluster.v :] *= s * s
    return x


# ---------------------------------------------------------------------------
# decoration surgery


def _junction_picture(p: complex, q) -> MobiusMap:
    """The map u -> u / (1 - u / (q - p)) on u = z - p.

    It fixes the junction p with derivative 1 and sends q, the second common
    point of the junction's carriers, to infinity, so the carriers become
    straight lines through 0 along the directions they leave p in.  It is
    the identity when q is :data:`AT_INFINITY`.
    """
    if q is AT_INFINITY:
        return MobiusMap.identity()
    return MobiusMap(1, 0, -1.0 / (q - p), 1)


def _rebuild_edge(pic: MobiusMap, p: complex, q, tail: complex, ray: complex, far: Point) -> Arc:
    """The arc from the picture point ``tail``, on the ray from 0 along the
    unit ``ray``, to the cluster vertex ``far``, on the carrier of that ray.

    The arc passes through the midpoint of the tail and far's image, or, when
    far is q itself, through a point further along the ray.  Raises
    :class:`TopologyBreakdown` when the tail is not nearer 0 than far is.
    """
    if q is not AT_INFINITY and abs(far.z - q) <= 1e-9 * abs(q - p):
        sample = tail + (abs(tail) + abs(q - p)) * ray
    else:
        f = pic.apply(far.z - p)
        if abs(tail) >= abs(f):
            raise TopologyBreakdown("the new vertex reaches past an adjacent vertex")
        sample = 0.5 * (tail + f)
    back = pic.inverse()
    return arc_through(Point.of(p + back.apply(tail)), Point.of(p + back.apply(sample)), far)


def decorate(cluster: Cluster, vertex: int, size: float) -> Cluster:
    """Insert a three-sided bubble at a triple junction.

    In :func:`_junction_picture` the incident edges are straight rays at 120
    degrees; the equilateral arc triangle with its vertices on them is
    inserted there, and everything is mapped back.  ``size`` is that
    triangle's circumradius measured after z -> 1 / (z - q), q the
    junction's second carrier point, or in the cluster's own units at a
    straight junction, whose carriers meet again at infinity.  Edges and
    vertices away from the junction are untouched; the new region gets id
    n + 1.
    """
    if not 0 <= vertex < cluster.v:
        raise GeometryDomainError(f"no vertex {vertex}")
    if not size > 0:
        raise GeometryDomainError("size must be positive")
    star = cluster.vertex_stars[vertex]
    p = cluster.vertices[vertex].z
    scale = cluster.diameter()
    # in coordinates (z - p) / scale the curvature noise of straight edges
    # stays far below the meet's tolerance
    q = second_intersection(cluster.half_edge_carriers(star, p, scale), Point(0.0, 0.0))
    if q is not AT_INFINITY:
        q = p + scale * q.z
    pic = _junction_picture(p, q)
    # z -> 1 / (z - q) is this picture scaled by 1 / |p - q|^2
    radius = size if q is AT_INFINITY else size * abs(q - p) ** 2
    rays = [cluster.outgoing_tangent(he) for he in star]
    tri = [radius * t for t in rays]
    new_incident = [
        _rebuild_edge(pic, p, q, tri[k], rays[k], cluster.vertices[cluster.end_vertex(he)])
        for k, he in enumerate(star)
    ]

    # the inserted bubble: arcs between consecutive (counterclockwise) rays,
    # bulging to their right, away from 0
    back = pic.inverse()
    bubble_bulges = [
        mobius_apply_arc(back, Arc(Point.of(a), Point.of(b), segment_area(math.pi / 6, abs(b - a)))).bulge
        for a, b in zip(tri, tri[1:] + tri[:1])
    ]

    # assemble: old vertices minus the junction, plus the three new ones
    old_ids = [i for i in range(cluster.v) if i != vertex]
    remap = {old: new for new, old in enumerate(old_ids)}
    verts = [cluster.vertices[i] for i in old_ids] + [arc.tail for arc in new_incident]
    tri_ids = [len(old_ids) + k for k in range(3)]

    new_region = cluster.n + 1
    star_of_edge = {he[0]: k for k, he in enumerate(star)}
    edges = []
    for j, ed in enumerate(cluster.edges):
        if j in star_of_edge:
            k = star_of_edge[j]
            he = star[k]
            left, right = (ed.left, ed.right) if he[1] else (ed.right, ed.left)
            head_id = remap[cluster.end_vertex(he)]
            edges.append(EdgeRecord(ed.id, tri_ids[k], head_id, new_incident[k].bulge, left, right))
        else:
            edges.append(replace(ed, tail=remap[ed.tail], head=remap[ed.head]))
    for k in range(3):
        edges.append(EdgeRecord(
            cluster.e + k, tri_ids[k], tri_ids[(k + 1) % 3], bubble_bulges[k],
            new_region, cluster.half_edge_left(star[k]),
        ))
    labels = cluster.region_labels or tuple(
        ["exterior"] + [f"region {r}" for r in range(1, cluster.n + 1)]
    )
    return Cluster(
        tuple(verts),
        tuple(edges),
        region_count=new_region,
        region_labels=labels + (f"decoration {new_region}",),
    )


def _in_triangle(w: complex, tri: Sequence[complex]) -> bool:
    signs = []
    for k in range(3):
        a, b = tri[k], tri[(k + 1) % 3]
        signs.append(((b - a).conjugate() * (w - a)).imag > 0)
    return all(signs) or not any(signs)


def scale_three_sided(cluster: Cluster, region: int, factor: float) -> Cluster:
    """Expand or shrink a three-sided bubble without touching the rest.

    The outer carriers meet at two points; in the :func:`_junction_picture`
    of the one inside the bubble (the junction it grew from) they are
    straight rays, and the bubble is scaled about 0 there and mapped back.
    ``factor`` multiplies the bubble's size measured as in :func:`decorate`,
    so ``factor = 0`` undoes :func:`decorate`: it deletes the region and
    merges the three junctions into one vertex.
    """
    if factor < 0:
        raise GeometryDomainError("factor must be >= 0")
    if not 1 <= region <= cluster.n:
        raise GeometryDomainError(f"no interior region {region}")
    walk = cluster.region_walks[region]
    if len(walk) != 3:
        raise GeometryDomainError(
            f"region {region} has {len(walk)} sides, expected 3"
        )
    bubble_vids = [cluster.start_vertex(he) for he in walk]
    bubble_eids = {he[0] for he in walk}
    stars = cluster.vertex_stars
    # the third half-edge at each junction of the walk leaves the bubble
    outer_hes = [next(he for he in stars[vid] if he[0] not in bubble_eids) for vid in bubble_vids]
    scale = cluster.diameter()
    bubble_pos = [cluster.vertices[v].z for v in bubble_vids]
    centre = sum(bubble_pos) / 3.0
    # the outer carriers' two common points; the one inside the bubble is
    # the one nearest its centroid, tried first since _in_triangle can accept
    # both on a Mobius image
    carriers = cluster.half_edge_carriers(outer_hes, centre, scale)
    common, ratio = pencil_meet(carriers, 0j, 1.0)
    if ratio > 1e-6 or len(common) != 2:
        raise GeometryDomainError("outer carriers do not share two common points")
    finite = [centre + scale * q.z for q in common if q is not AT_INFINITY]
    finite.sort(key=lambda z: abs(z - centre))
    for p, q in [finite, finite[::-1]] if len(finite) == 2 else [(finite[0], AT_INFINITY)]:
        pic = _junction_picture(p, q)
        tri = [pic.apply(z - p) for z in bubble_pos]
        if _in_triangle(0j, tri):
            break
    else:
        raise GeometryDomainError(
            "could not identify the concurrency point inside the bubble"
        )

    # the outer edges keep their carriers, cut at the scaled vertices
    new_outer = [
        _rebuild_edge(
            pic, p, q, factor * tri[k], tri[k] / abs(tri[k]),
            cluster.vertices[cluster.end_vertex(he)],
        )
        for k, he in enumerate(outer_hes)
    ]
    bulges = [ed.bulge for ed in cluster.edges]
    for (j, fwd), arc in zip(outer_hes, new_outer):
        bulges[j] = arc.bulge if fwd else -arc.bulge

    if factor > 0.0:
        back = pic.inverse()
        for j in bubble_eids:
            arc = cluster.arc_of(j)
            img = mobius_apply_arc(pic, Arc(Point.of(arc.tail.z - p), Point.of(arc.head.z - p), arc.bulge))
            scaled = Arc(Point.of(factor * img.tail.z), Point.of(factor * img.head.z), factor**2 * img.bulge)
            bulges[j] = mobius_apply_arc(back, scaled).bulge
        verts = list(cluster.vertices)
        for vid, arc in zip(bubble_vids, new_outer):
            verts[vid] = arc.tail
        edges = tuple(replace(ed, bulge=b) for ed, b in zip(cluster.edges, bulges))
        return Cluster(tuple(verts), edges, cluster.region_count, cluster.region_labels)

    # factor == 0: delete the region, merge the three junctions at p
    keep_vids = [i for i in range(cluster.v) if i not in bubble_vids]
    remap = {old: new for new, old in enumerate(keep_vids)}
    remap.update((vid, len(keep_vids)) for vid in bubble_vids)
    verts = [cluster.vertices[i] for i in keep_vids] + [Point.of(p)]

    def remap_region(r: int) -> int:
        return r - 1 if r > region else r

    edges = []
    for j, (ed, bulge) in enumerate(zip(cluster.edges, bulges)):
        if j not in bubble_eids:
            edges.append(EdgeRecord(
                len(edges), remap[ed.tail], remap[ed.head], bulge,
                remap_region(ed.left), remap_region(ed.right),
            ))
    labels = cluster.region_labels
    if labels:
        labels = tuple(l for r, l in enumerate(labels) if r != region)
    return Cluster(tuple(verts), tuple(edges), cluster.region_count - 1, labels)


def four_bubble(size: float = 0.3, interface_length: float = 1.0) -> Cluster:
    """Standard 4-bubble: the symmetric triple bubble with its central
    junction decorated by a three-sided bubble."""
    base = triple_bubble(interface_length=interface_length)
    center = next(
        i for i, p in enumerate(base.vertices) if abs(p.z) < 1e-9 * base.diameter()
    )
    return decorate(base, center, size * interface_length)


# ---------------------------------------------------------------------------
# lens chains


def two_lens(lens1: float = 0.8, lens2: float = 0.8, separation: float = 2.0) -> Cluster:
    """Bubble with two lens defects in its boundary (3 interior regions).

    Built in an inverted picture first: a straight line carrying two lenses
    (pairs of 60-degree arcs meeting the line at 120 degrees), then mapped by
    z -> 1/(z - i) so the line closes up into a circle through the origin.
    Region 1 is the main bubble, regions 2 and 3 the lenses; edges 0 and 1
    are the two arcs of the main circle.
    """
    if lens1 <= 0 or lens2 <= 0 or separation <= 0:
        raise GeometryDomainError("lens sizes and separation must be positive")
    if lens1 / 2 + lens2 / 2 >= separation:
        raise TopologyBreakdown("lenses overlap")
    if max(lens1, lens2) / (2.0 * math.sqrt(3.0)) >= 0.9:
        raise GeometryDomainError("lens too tall for the inversion center")
    s = separation / 2.0
    a1, b1 = Point(-s - lens1 / 2, 0.0), Point(-s + lens1 / 2, 0.0)
    a2, b2 = Point(s - lens2 / 2, 0.0), Point(s + lens2 / 2, 0.0)
    m = MobiusMap.inversion_about(1j)

    def lens_arcs(a: Point, b: Point) -> List[Arc]:
        area = segment_area(math.pi / 3, abs(b.z - a.z))
        return [Arc(a, b, -area), Arc(a, b, area)]  # upper, lower

    straight = [Arc(b1, a2, 0.0)]
    straight += lens_arcs(a1, b1)
    straight += lens_arcs(a2, b2)
    arcs = [mobius_apply_arc(m, arc) for arc in straight]
    # the piece of the line through infinity closes up through m(inf) = 0
    arcs.insert(1, arc_through(
        mobius_apply_point(m, b2), Point(0.0, 0.0), mobius_apply_point(m, a1)
    ))
    labels = ["exterior", "bubble", "lens 1", "lens 2"]
    return build_cluster_from_arcs(arcs, labels=labels)


# ---------------------------------------------------------------------------
# necklace


def necklace(k: int, inner_radius: Optional[float] = None) -> Cluster:
    """Dihedrally symmetric ring of k unit-pressure bubbles around a chamber.

    The 120-degree conditions force the outer arcs' bulge half-angle to
    pi/6 + pi/k and the chamber-facing arcs' to pi/k - pi/6, leaving the
    chamber size as the one free parameter of the symmetric family.  With
    seven or more bubbles the default chamber radius makes the chamber-facing
    arcs unit curvature too, so the chamber pressure is exactly 0.  For k = 5
    or 6 that choice does not exist (at k = 6 the chamber walls are straight
    and its pressure equals 1 for every chamber size); the default then takes
    a mid-range chamber.
    """
    if k < 5:
        raise GeometryDomainError("need at least 5 bubbles")
    phi2 = math.pi / 6 + math.pi / k
    phi1 = math.pi / k - math.pi / 6
    rho2 = math.sin(phi2) / math.sin(math.pi / k)
    if inner_radius is None:
        if k >= 7:
            rho1 = math.sin(-phi1) / math.sin(math.pi / k)
        else:
            rho1 = 0.45 * rho2
    else:
        rho1 = inner_radius
    if not 0 < rho1 < rho2:
        raise GeometryDomainError(
            f"inner radius must lie in (0, {rho2:.6g}) for k = {k}"
        )

    step = 2.0 * math.pi / k
    inner = [Point.of(rho1 * cmath.exp(1j * step * j)) for j in range(k)]
    outer = [Point.of(rho2 * cmath.exp(1j * step * j)) for j in range(k)]
    c1 = 2.0 * rho1 * math.sin(math.pi / k)
    c2 = 2.0 * rho2 * math.sin(math.pi / k)
    bulge1 = segment_area(phi1, c1) if abs(phi1) > 1e-15 else 0.0
    bulge2 = segment_area(phi2, c2)

    chamber = k + 1
    edges: List[EdgeRecord] = []
    for j in range(k):
        nxt = (j + 1) % k
        bubble = j + 1
        prev_bubble = (j - 1) % k + 1
        # radial contact segment, inner -> outer
        edges.append(EdgeRecord(3 * j, j, k + j, 0.0, bubble, prev_bubble))
        # outer arc, counterclockwise, bulging outward
        edges.append(EdgeRecord(3 * j + 1, k + j, k + nxt, bulge2, bubble, EXTERIOR))
        # chamber-facing arc, counterclockwise
        edges.append(EdgeRecord(3 * j + 2, j, nxt, bulge1, chamber, bubble))
    labels = (
        ["exterior"] + [f"bubble {j + 1}" for j in range(k)] + ["chamber"]
    )
    return Cluster(
        tuple(inner + outer), tuple(edges), chamber, tuple(labels)
    )


# ---------------------------------------------------------------------------
# 4-petal flower


def flower(lens_size: float = 0.18, radius: float = 1.0) -> Cluster:
    """4-petal flower: four equal petals around a small 4-sided center.

    Found by the sliding-lens procedure: an equal double bubble with a lens
    of half-chord ``lens_size`` = s on its straight interface; the lens is
    slid until the axis through the two upper-arc centers is perpendicular
    to the axis through the two lower-arc centers.  With the upper center at
    i r/2 and the lens arc's at x - i s/sqrt(3), the cosine of that angle is
    (x^2 - h^2)/|u|^2, h = r/2 + s/sqrt(3), so the lens centre sits at
    x = h.  The axis crossing r/2 is the flower's center; the lens vertex
    nearer to it, at x - s, puts the center region's corners at distance
    s (1 - 1/sqrt(3)).  The 120-degree conditions then force bulge
    half-angles of pi/12 on the four center arcs and 5 pi/12 on the four
    petal arcs, which closes the D2-symmetric (in fact D4-symmetric)
    5-cluster in closed form.
    """
    r = radius
    if not 0 < lens_size < 0.5 * r:
        raise GeometryDomainError("lens_size must be in (0, radius/2)")
    o = complex(r / 2, 0.0)  # axis crossing = flower center
    a = lens_size * (1.0 - 1.0 / math.sqrt(3.0))  # center-square corner distance
    sep = (math.sqrt(3.0) / 2 - 0.5) * r - a  # separator length
    if sep <= 0:
        raise GeometryDomainError("lens too large: petals would vanish")

    corners = [o + a * 1j ** k for k in range(4)]
    outer = [o + (a + sep) * 1j ** k for k in range(4)]
    sq_bulge = segment_area(math.pi / 12, a * math.sqrt(2.0))
    petal_bulge = segment_area(5 * math.pi / 12, (a + sep) * math.sqrt(2.0))
    arcs = []
    for k in range(4):
        nxt = (k + 1) % 4
        arcs.append(Arc(Point.of(outer[k]), Point.of(outer[nxt]), petal_bulge))
        arcs.append(Arc(Point.of(corners[k]), Point.of(outer[k]), 0.0))
        arcs.append(Arc(Point.of(corners[k]), Point.of(corners[nxt]), sq_bulge))
    labels = ["exterior", "petal 1", "petal 2", "petal 3", "petal 4", "center"]
    built = build_cluster_from_arcs(arcs, labels=None)
    # petals keep their first-appearance numbers (equal areas must not be
    # ordered by roundoff); the small center region moves last
    center = int(np.argmin(region_areas(built))) + 1
    relabel = {r: r - (r > center) for r in range(built.n + 1)}
    relabel[center] = built.n
    edges = tuple(
        ed.__class__(ed.id, ed.tail, ed.head, ed.bulge,
                     relabel[ed.left], relabel[ed.right])
        for ed in built.edges
    )
    return Cluster(built.vertices, edges, built.region_count, tuple(labels))


# ---------------------------------------------------------------------------
# quasi-equilibrium variants


def quasi_variant(kind: str, amount: float = 0.15) -> Cluster:
    """Quasi-equilibrium presets: 120-degree angles hold, the cocycle fails.

    ``two_lens_recurved``: the two arcs of the two-lens cluster's main circle
    are re-curved by the relative ``amount`` while the angle conditions are
    re-solved.  ``four_stretched``: the middle straight edge of the standard
    4-bubble is lengthened by the relative ``amount`` with both endpoints
    pinned.  ``amount = 0`` reproduces the equilibrium base cluster.

    The solved rows are the 120-degree angle block plus the variant's pins;
    the curvature cocycle is deliberately left out, so the result is in
    general only a quasi-equilibrium.  Minimum-norm steps handle the
    underdetermined stack.
    """
    base, rows, jac = _quasi_rows(kind, amount)
    return chart_lm(base, rows, jac, lambda x, f: bool(np.abs(f).max() < 1e-10), max_iter=200)


def _quasi_rows(variant: str, amount: float):
    """Base cluster, solved rows and their exact Jacobian for a quasi variant."""
    if variant == "two_lens_recurved":
        base = two_lens()
        # the main-circle arcs 0 and 1 are re-curved; lens arc 2 keeps its
        # curvature so the pins cannot be satisfied by simply rescaling the
        # whole equilibrium cluster
        pinned = np.arange(3)
        targets = base.frame.kappa[pinned] * np.array([1.0 + amount, 1.0 + amount, 1.0])
        kscale = max(1.0, float(np.abs(targets).max()))
        gauge, gauge_jac = pin_gauge(base)

        def rows(c: Cluster) -> np.ndarray:
            return np.concatenate([(c.frame.kappa[pinned] - targets) / kscale, gauge(c)])

        def jac(c: Cluster) -> np.ndarray:
            curvature = c.frame.jacobian(pinned, pinned, c.frame.d_kappa[pinned] / kscale, 3)
            return np.vstack([curvature, gauge_jac(c)])

    elif variant == "four_stretched":
        # the two pinned endpoints already fix rigid motions: no gauge rows
        base = four_bubble()
        flat = 1e-12 * base.diameter() ** 2
        middle = max(
            (j for j, ed in enumerate(base.edges) if abs(ed.bulge) < flat),
            key=lambda j: base.frame.chord[j],
        )
        ed = base.edges[middle]
        ta, he = base.vertices[ed.tail].z, base.vertices[ed.head].z
        shift = 0.5 * amount * (he - ta)  # each end moves out by amount/2 of the edge
        cols = [2 * ed.tail, 2 * ed.tail + 1, 2 * ed.head, 2 * ed.head + 1]
        ta_new, he_new = ta - shift, he + shift
        goal = np.array([ta_new.real, ta_new.imag, he_new.real, he_new.imag])

        def rows(c: Cluster) -> np.ndarray:
            return c.chart()[cols] - goal

        def jac(c: Cluster) -> np.ndarray:
            return np.eye(2 * c.v + c.e)[cols]

    else:
        raise GeometryDomainError(f"unknown quasi variant kind {variant!r}")

    def angle_rows(c: Cluster) -> np.ndarray:
        return np.concatenate([residuals(c).angle_block, rows(c)])

    def angle_jac(c: Cluster) -> np.ndarray:
        return np.vstack([residual_jacobian(c)[: 2 * c.v], jac(c)])

    return base, angle_rows, angle_jac


def random_mobius(cluster: Cluster, rng: np.random.Generator) -> MobiusMap:
    """Random Mobius map whose pole stays clear of the cluster.

    Composes a rotation, a mild scaling, a translation, and (half the time)
    an inversion about a point at least half a diameter away from every
    vertex and arc sample.  That point may lie inside a bubble, whose image
    is then the unbounded face (see :func:`mobius_apply_cluster`).
    """
    scale = cluster.diameter()
    centroid = sum(p.z for p in cluster.vertices) / cluster.v
    m = MobiusMap.rotation(rng.uniform(0.0, 2.0 * math.pi), about=centroid)
    m = MobiusMap.scaling(math.exp(rng.uniform(-0.5, 0.5))).compose(m)
    m = MobiusMap.translation(complex(*rng.normal(0.0, 0.3 * scale, 2))).compose(m)
    if rng.random() < 0.5:
        corners = np.array([p.z for p in cluster.vertices])
        samples, _ = cluster.arc_samples([0.25, 0.5, 0.75])
        for _ in range(100):
            q = centroid + complex(*rng.normal(0.0, 2.0 * scale, 2))
            if (np.abs(corners - q) > 0.75 * scale).all() and (
                np.abs(samples - q) > 0.5 * scale
            ).all():
                m = MobiusMap.inversion_about(q).compose(m)
                break
    pole = m.pole()
    if pole is not None and any(
        abs(p.z - pole) < 0.25 * scale for p in cluster.vertices
    ):
        raise GeometryDomainError("generated map has a pole on the cluster")
    return m
