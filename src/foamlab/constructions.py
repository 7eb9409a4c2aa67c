"""Preset clusters: closed forms where elementary, ansatz-plus-solve elsewhere.

Every preset is an explicit type table passed to ``Cluster.from_arrays``:
its vertex positions, and per edge its (tail, head), its half-angle and its
(left, right) region ids, stated, not inferred from the embedding.  The
closed forms give half-angles directly, so no preset forms or inverts a
bulge.  Every function here that returns a cluster returns it through
:func:`validated` or :func:`lm_minimize`'s one admission, so it raises rather
than return one that :func:`validate` rejects.  Constructor correctness is
certified by the equilibrium checker rather than by rederiving formulas:
every non-quasi preset must classify as Equilibrium.
"""

from __future__ import annotations

import cmath
import math
import numbers
from typing import Optional, Sequence

import numpy as np

from .cluster import (
    _END_SIGN, CHORD_FLOOR, EXTERIOR, STRAIGHT_PHI, Cluster, _chart_gradients, _size, area_jacobian, region_areas,
    validated,
)
from .errors import GeometryDomainError, NotConcurrent, TopologyBreakdown
from .equilibrium import _cocycle_holds, _target_areas, classify, lm_minimize, residual_jacobian, residuals, solve
from .geometry import MobiusMap, half_angle, mobius_image


def mobius_apply_cluster(m: MobiusMap, cluster: Cluster) -> Cluster:
    """Image cluster under a Mobius map whose pole avoids every arc.

    The map keeps the counterclockwise order at every vertex, so the image
    is a chart point of the same topology, and moves only which face holds
    infinity.  A pole inside interior region r makes r's image unbounded,
    which shows as its one negative area; region ids 0 and r are then
    swapped on every edge.  Points and half-angles come from one array pass
    of :func:`mobius_image`'s closed form, phi + arg((c tail + d) / (c head + d)),
    with its checks.  An image that :func:`validate` rejects, as for a
    chord collapsed or an area underflowed, raises :class:`GeometryDomainError`.
    """
    points, phis = mobius_image(m, cluster.points, cluster.ends, cluster.phis)
    image = cluster.with_chart(np.concatenate([points.view(float), phis]))
    areas = region_areas(image)
    if areas.min() < 0.0:
        r = int(areas.argmin()) + 1
        swap = np.arange(image.n + 1)
        swap[[EXTERIOR, r]] = r, EXTERIOR
        image = Cluster.from_arrays(image.points, image.ends, image.phis, swap[image.labels], image.n,
                                    image.region_labels)
    return validated(image)


# ---------------------------------------------------------------------------
# elementary closed forms


def _normal_squares(*lengths: float) -> bool:
    """Whether every length is positive with a normal square, as a preset's
    lengths must be: the arithmetic of its areas and bulges squares them.
    Refuses nan and the infinities too."""
    return all(r > 0 and np.finfo(float).tiny <= r * r < math.inf for r in lengths)


def double_bubble(r1: float = 1.0, r2: float = 1.0) -> Cluster:
    """Standard double bubble with outer radii r1 and r2.

    The radii to a vertex meet at 60 degrees, so the centers sit at
    distance d with d^2 = r1^2 + r2^2 - r1 r2, and the vertices at (x, +-y)
    with the first center at 0: x = r1 (2 r1 - r2) / 2d, d - x =
    r2 (2 r2 - r1) / 2d and y = (sqrt(3) / 2) r1 r2 / d, forms that do not
    cancel as r2 / r1 -> 0 or r1 / r2 -> 0.  Every arc is given by its
    half-angle: an outer arc's half-angle is pi minus the
    angle between the axis and the upper vertex seen from its center, and
    the middle interface has curvature 1/r1 - 1/r2, so
    sin(phi) = y (1/r1 - 1/r2), straight for equal radii.  Radii must be
    positive with normal squares and keep every half-angle below ``PHI_LIMIT``.
    """
    if not _normal_squares(r1, r2):
        raise GeometryDomainError(f"radii {r1:g} and {r2:g} must be positive, with normal squares")
    d = math.sqrt(r1 * r1 + r2 * r2 - r1 * r2)
    x, y = r1 * (2.0 * r1 - r2) / (2.0 * d), 0.5 * math.sqrt(3.0) * r1 * r2 / d
    outer1, outer2 = math.pi - math.atan2(y, x), math.pi - math.atan2(y, r2 * (2.0 * r2 - r1) / (2.0 * d))
    middle = math.asin(y * (1.0 / r1 - 1.0 / r2))
    return validated(Cluster.from_arrays(
        [complex(x, y), complex(x, -y)], [(0, 1), (1, 0), (1, 0)], [outer1, outer2, middle],
        [(1, EXTERIOR), (2, EXTERIOR), (1, 2)], 2, ("exterior", "bubble 1", "bubble 2"),
    ))


def triple_bubble(areas: Optional[Sequence[float]] = None) -> Cluster:
    """Standard triple bubble.

    The symmetric instance is closed form: three straight interfaces of
    length 1 radiating from the center (vertex 0) at 120 degrees and three
    outer semicircular arcs (half-angle pi/2).  General area vectors are
    reached by the area-constrained solver, from the symmetric instance
    rescaled to their total once they pass :func:`solve`'s target check.
    """
    angles = [math.pi / 6, 5 * math.pi / 6, 3 * math.pi / 2]
    points = [0j] + [cmath.exp(1j * a) for a in angles]
    # bubbles 1, 3, 2 counterclockwise from the top: sector k lies between
    # the interfaces to points[k + 1] and points[k + 2]
    sector = (1, 3, 2)
    ends = [(0, k + 1) for k in range(3)] + [(k + 1, (k + 1) % 3 + 1) for k in range(3)]
    labels = [(sector[k], sector[k - 1]) for k in range(3)] + [(sector[k], EXTERIOR) for k in range(3)]
    cluster = Cluster.from_arrays(
        points, ends, [0.0] * 3 + [math.pi / 2] * 3, labels, 3,
        ("exterior", "bubble 1", "bubble 2", "bubble 3"),
    )
    if areas is None:
        return validated(cluster)
    # rescale the symmetric seed to the right total before solving
    target = _target_areas(cluster, areas)
    s = math.sqrt(target.sum() / region_areas(cluster).sum())
    seed = cluster.with_chart(cluster.chart() * np.repeat([s, 1.0], [2 * cluster.v, cluster.e]))
    return solve(seed, target)


# ---------------------------------------------------------------------------
# decoration surgery

_OMEGA = complex(-0.5, 0.5 * math.sqrt(3.0))  # exp(2 pi i / 3)


def _real(name: str, value) -> float:
    """``value`` as a float, if it is a real number (a numpy one too, not a
    bool); otherwise ``GeometryDomainError`` naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise GeometryDomainError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _surgery(cluster: Cluster, result: Cluster) -> Cluster:
    """``result``, once :func:`validated`, if :func:`classify` gives it
    ``cluster``'s verdict; otherwise ``GeometryDomainError``, as where the
    map back of a tiny bubble loses the residuals' digits."""
    result = validated(result)
    before, after = classify(cluster), classify(result)
    if after is not before:
        raise GeometryDomainError(f"the result is {after.value}, its input {before.value}")
    return result


def _isodynamic(z1: complex, z2: complex, z3: complex):
    """(p, wq) of the corners z1, z2, z3 of a walk with its region on the
    left: the two points that a Mobius map taking the corners to 1, omega
    and omega^2, omega = exp(2 pi i / 3), takes to 0 and infinity.  With
    a = z1 - z3 and b = z1 - z2, p = (z2 a + omega z3 b) / (a + omega b)
    = z2 + omega b (z3 - z2) / (a + omega b), q is the same with
    conj(omega), and wq = 1 / (q - p) =
    (a + omega b)(a + conj(omega) b) / (i sqrt(3) a b (a - b)), 0 for q at
    infinity.  p's picture takes the corners to 1, omega, omega^2 times a
    constant, so of the two points p is the one the walk winds around
    counterclockwise there.  Raises :class:`GeometryDomainError` where p
    is at infinity."""
    a, b = z1 - z3, z1 - z2
    at_p, at_q = a + _OMEGA * b, a + _OMEGA.conjugate() * b
    if at_p == 0.0:
        raise GeometryDomainError("no common point of the outer carriers lies inside the bubble")
    return z2 + _OMEGA * b * (z3 - z2) / at_p, at_p * at_q / (1j * math.sqrt(3.0) * a * b * (a - b))


def _graft(cluster: Cluster, p: complex, wq: complex, tri, rays, far, phis):
    """New vertices and arcs at the junction p, built in the picture
    P = u / (1 - wq u) of u = z - p, where wq = 1 / (q - p) (0 for q at
    infinity) and the carriers through p and q are rays from 0.  Vertex k
    sits at ``tri[k]`` on the ray along ``rays[k]``; its outer arc follows
    that carrier to vertex ``far[k]``, and its bubble arc to ``tri[k + 1]``
    has the picture half-angle ``phis[k]`` (none without ``phis``).  Maps
    back by z = p + P / (1 + wq P), the vertices and bubble arcs by
    :func:`mobius_image` and the outer tangents by tau / (1 + wq P)^2; the
    arcs are returned as half-angles.  Raises :class:`TopologyBreakdown`
    when a vertex is not nearer 0 than its far vertex, unless that is q.
    """
    z = cluster.points.tolist()
    for k in range(3):
        u = z[far[k]] - p
        if abs(1 - wq * u) > CHORD_FLOOR and abs(tri[k]) >= abs(u / (1 - wq * u)):
            raise TopologyBreakdown("the new vertex reaches past an adjacent vertex")
    arcs = [(k, (k + 1) % 3) for k in range(len(phis))]
    back, bubble = mobius_image(MobiusMap(1, 0, wq, 1), tri, arcs, phis)
    verts = (p + back).tolist()
    outer = [half_angle(z[far[k]] - verts[k], rays[k] / (1 + wq * tri[k]) ** 2) for k in range(3)]
    return verts, outer, bubble.tolist()


def decorate(cluster: Cluster, vertex: int, size: float) -> Cluster:
    """Insert a three-sided bubble at a triple junction.

    In w = 1 / (z - p) the carrier leaving the junction p along the unit
    tangent t with signed curvature kappa is the line Im(t w) = -kappa / 2,
    so the three carriers meet again at wq = -(i/3) sum kappa conj(t), which
    is 0 at a straight junction.  In the :func:`_graft` picture of that wq
    the junction's edges are straight rays at 120 degrees; the equilateral
    arc triangle with its vertices on them is inserted there, and everything
    is mapped back.  ``size`` is that triangle's circumradius in units of
    the junction's shortest chord, so decorating commutes with similarities.
    Edges and vertices away from the junction are untouched; the new region
    gets id n + 1.  Raises :class:`NotConcurrent` where the junction's
    curvature sum fails the cocycle test that :func:`classify` applies, and
    :class:`GeometryDomainError` unless ``vertex`` is an integer vertex
    index and ``size`` a positive real, and when :func:`_surgery` refuses
    the result, as for a chord collapsed, a non-positive area or a verdict
    lost.
    """
    vertex = _size("vertex", vertex, 0)
    if vertex >= cluster.v:
        raise GeometryDomainError(f"no vertex {vertex}")
    size = _real("size", size)
    if not size > 0:
        raise GeometryDomainError("size must be positive")
    star, p = cluster.topology.stars[vertex], cluster.points.tolist()[vertex]
    kappas = (cluster.kappas[:, None] * _END_SIGN).flat[star]
    if not _cocycle_holds(cluster, abs(kappas.sum())):
        raise NotConcurrent(f"the curvatures at vertex {vertex} sum to {kappas.sum():.3e}")
    rays = np.exp(1j * cluster.alphas.flat[star])
    wq = complex(-1j / 3.0 * (kappas * rays.conj()).sum())
    radius = size * cluster.chords[star >> 1].min()
    far = cluster.ends.flat[star ^ 1]
    # the bubble's arcs run between consecutive (counterclockwise) rays,
    # bulging to their right, away from 0
    verts, outer, bubble = _graft(
        cluster, p, wq, (radius * rays).tolist(), rays.tolist(), far, [math.pi / 6] * 3
    )

    # the junction's vertex is dropped and the three new ones appended; each
    # incident edge is rebuilt from its new vertex out, and the bubble's
    # edges, with the new region on their left, are appended
    keep = np.arange(cluster.v) != vertex
    remap = np.cumsum(keep) - 1
    new_ids = cluster.v - 1 + np.arange(3)
    new_region = cluster.n + 1
    ends, phis, labels = remap[cluster.ends], cluster.phis.copy(), cluster.labels.copy()
    ends[star >> 1] = np.stack([new_ids, remap[far]], axis=1)
    phis[star >> 1] = outer
    left = cluster.labels.ravel()
    labels[star >> 1] = left[np.stack([star, star ^ 1], axis=1)]
    region_labels = cluster.region_labels or ("exterior", *(f"region {r}" for r in range(1, new_region)))
    return _surgery(cluster, Cluster.from_arrays(
        np.concatenate([cluster.points[keep], verts]),
        np.concatenate([ends, np.stack([new_ids, np.roll(new_ids, -1)], axis=1)]),
        np.concatenate([phis, bubble]),
        np.concatenate([labels, np.stack([np.full(3, new_region), left[star]], axis=1)]),
        new_region, region_labels + (f"decoration {new_region}",),
    ))


def scale_three_sided(cluster: Cluster, region: int, factor: float) -> Cluster:
    """Expand or shrink a three-sided bubble without touching the rest.

    The outer carriers meet at two points, p and q, the isodynamic points
    of the bubble's corners (:func:`_isodynamic`).  In the :func:`_graft`
    picture of p, the junction the bubble grew from, they are straight
    rays, and the bubble is scaled about 0 there and mapped back.
    ``factor`` multiplies the bubble's circumradius in that picture, which
    is :func:`decorate`'s, so ``factor = 0`` undoes :func:`decorate`: it
    deletes the region and merges the three junctions into one vertex.
    Raises :class:`GeometryDomainError` unless ``region`` is an integer
    interior region id and ``factor`` a finite real >= 0, and when
    :func:`_surgery` refuses the result, as :func:`decorate` does.
    """
    factor = _real("factor", factor)
    if not (math.isfinite(factor) and factor >= 0):
        raise GeometryDomainError("factor must be finite and >= 0")
    region = _size("region", region, 1)
    if region > cluster.n:
        raise GeometryDomainError(f"no interior region {region}")
    top = cluster.topology
    walk = top.walks[region]
    if len(walk) != 3:
        raise GeometryDomainError(f"region {region} has {len(walk)} sides, expected 3")
    # at each junction, the half-edge clockwise after the walk's leaves the bubble
    outer_hes = top.successor[walk ^ 1]
    bubble_vids = top.ends.flat[walk]
    bubble_pos = cluster.points[bubble_vids]
    p, wq = _isodynamic(*bubble_pos.tolist())
    u = bubble_pos - p
    pic = u / (1 - wq * u)

    # each walk arc keeps its picture half-angle; a merged bubble has no arcs
    tangent = np.exp(1j * cluster.alphas.flat[walk]) / (1 - wq * u) ** 2
    phis = np.angle((np.roll(pic, -1) - pic) * tangent.conj()).tolist() if factor > 0.0 else []
    verts, outer, bubble = _graft(
        cluster, p, wq, (factor * pic).tolist(), (pic / abs(pic)).tolist(),
        top.ends.flat[outer_hes ^ 1], phis,
    )
    points, phis = cluster.points.copy(), cluster.phis.copy()
    points[bubble_vids] = verts
    for h, phi in zip(np.concatenate([outer_hes, walk]), outer + bubble):  # no bubble at factor 0
        phis[h >> 1] = -phi if h & 1 else phi

    if factor > 0.0:
        return _surgery(cluster, cluster.with_chart(np.concatenate([points.view(float), phis])))

    # factor == 0: delete the region, merge the three junctions at p
    keep = ~np.isin(np.arange(cluster.v), bubble_vids)
    remap = np.where(keep, np.cumsum(keep) - 1, keep.sum())
    kept = (cluster.labels != region).all(axis=1)  # every edge but the bubble's
    labels = cluster.labels[kept]
    region_labels = tuple(l for r, l in enumerate(cluster.region_labels) if r != region)
    return _surgery(cluster, Cluster.from_arrays(
        np.append(cluster.points[keep], p), remap[cluster.ends[kept]], phis[kept],
        labels - (labels > region), cluster.n - 1, region_labels,
    ))


def four_bubble() -> Cluster:
    """Standard 4-bubble: the symmetric triple bubble with its straight
    central junction decorated by a three-sided bubble of size 0.3, a
    circumradius of 0.3 of its unit interfaces."""
    return decorate(triple_bubble(), 0, 0.3)


# ---------------------------------------------------------------------------
# lens chains


def two_lens(lens1: float = 0.8, lens2: float = 0.8, separation: float = 2.0) -> Cluster:
    """Bubble with two lens defects in its boundary (3 interior regions).

    Built in an inverted picture first: a straight line carrying two lenses
    (pairs of 60-degree arcs meeting the line at 120 degrees), then mapped by
    z -> 1/(z - i) so the line closes up into a circle through the origin.
    Region 1 is the main bubble, regions 2 and 3 the lenses; edges 0 and 1
    are the two arcs of the main circle.  The sizes and the separation must
    be positive with normal squares, and each lens's two points on the line
    distinct beside the separation, or ``GeometryDomainError`` is raised.
    """
    if not _normal_squares(lens1, lens2, separation):
        raise GeometryDomainError("lens sizes and separation must be positive, with normal squares")
    if lens1 / 2 + lens2 / 2 >= separation:
        raise TopologyBreakdown("lenses overlap")
    if max(lens1, lens2) / (2.0 * math.sqrt(3.0)) >= 0.9:
        raise GeometryDomainError("lens too tall for the inversion center")
    s = separation / 2.0
    # the line's vertices b1, a2, b2, a1, where lens k spans a_k -> b_k
    line = [-s + lens1 / 2, s - lens2 / 2, s + lens2 / 2, -s - lens1 / 2]
    if not (line[3] < line[0] and line[1] < line[2]):
        raise GeometryDomainError("a lens rounds to a point beside the separation")
    ends = [(0, 1), (2, 3), (3, 0), (3, 0), (1, 2), (1, 2)]
    # edge 1 is the piece of the line through infinity, from b2 to a1: the
    # arc of half-angle pi, which closes up through m(inf) = 0; each lens
    # a -> b has its upper arc at half-angle -pi/3 and its lower at pi/3
    phis = [0.0, math.pi] + [-math.pi / 3, math.pi / 3] * 2
    z, phis = mobius_image(MobiusMap.inversion_about(1j), line, ends, phis)
    labels = [(EXTERIOR, 1), (EXTERIOR, 1), (EXTERIOR, 2), (2, 1), (EXTERIOR, 3), (3, 1)]
    region_labels = ("exterior", "bubble", "lens 1", "lens 2")
    return validated(Cluster.from_arrays(z, ends, phis, labels, 3, region_labels))


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
    a mid-range chamber.  ``k`` is an integer of at least 5, or
    ``GeometryDomainError`` is raised.
    """
    k = _size("k", k, 5)
    phi2 = math.pi / 6 + math.pi / k
    phi1 = math.pi / k - math.pi / 6
    rho2 = math.sin(phi2) / math.sin(math.pi / k)
    if inner_radius is not None:
        rho1 = inner_radius
    else:  # unit-curvature chamber walls where they exist, else mid-range
        rho1 = math.sin(-phi1) / math.sin(math.pi / k) if k >= 7 else 0.45 * rho2
    if not 0 < rho1 < rho2:
        raise GeometryDomainError(f"inner radius must lie in (0, {rho2:.6g}) for k = {k}")

    step = 2.0 * math.pi / k
    ring = [cmath.exp(1j * step * j) for j in range(k)]
    chamber = k + 1
    ends, labels = [], []
    for j in range(k):
        nxt = (j + 1) % k
        bubble = j + 1
        # radial contact segment inner -> outer, outer arc counterclockwise
        # bulging outward, and chamber-facing arc counterclockwise
        ends += [(j, k + j), (k + j, k + nxt), (j, nxt)]
        labels += [(bubble, (j - 1) % k + 1), (bubble, EXTERIOR), (chamber, bubble)]
    region_labels = ["exterior"] + [f"bubble {j + 1}" for j in range(k)] + ["chamber"]
    return validated(Cluster.from_arrays(
        [rho1 * z for z in ring] + [rho2 * z for z in ring], ends, [0.0, phi2, phi1] * k, labels,
        chamber, region_labels,
    ))


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

    Vertices 0..3 are the center region's corners and 4..7 the outer ends
    of the four straight separators, vertex k and 4 + k in direction
    k pi/2 from the center.  Petal k + 1 lies counterclockwise of separator
    k, and region 5 is the center.  Both lengths must be positive with
    normal squares, or ``GeometryDomainError`` is raised.
    """
    r = radius
    if not _normal_squares(lens_size, r):
        raise GeometryDomainError("lens_size and radius must be positive, with normal squares")
    if not lens_size < 0.5 * r:
        raise GeometryDomainError("lens_size must be in (0, radius/2)")
    o = complex(r / 2, 0.0)  # axis crossing = flower center
    a = lens_size * (1.0 - 1.0 / math.sqrt(3.0))  # center-square corner distance
    sep = (math.sqrt(3.0) / 2 - 0.5) * r - a  # separator length
    if sep <= 0:
        raise GeometryDomainError("lens too large: petals would vanish")

    corners = [o + a * 1j ** k for k in range(4)]
    outer = [o + (a + sep) * 1j ** k for k in range(4)]
    ends, labels = [], []
    for k in range(4):  # petal arc, separator, center arc
        ends += [(4 + k, 4 + (k + 1) % 4), (k, 4 + k), (k, (k + 1) % 4)]
        labels += [(k + 1, EXTERIOR), (k + 1, (k - 1) % 4 + 1), (5, k + 1)]
    return validated(Cluster.from_arrays(
        corners + outer, ends, [5 * math.pi / 12, 0.0, math.pi / 12] * 4, labels, 5,
        ("exterior", "petal 1", "petal 2", "petal 3", "petal 4", "center"),
    ))


# ---------------------------------------------------------------------------
# quasi-equilibrium variants


def quasi_variant(kind: str, amount: float = 0.15) -> Cluster:
    """Quasi-equilibrium presets: 120-degree angles hold, the cocycle fails.

    ``two_lens_recurved``: the two arcs of the two-lens cluster's main circle
    are re-curved by the relative ``amount``, every other edge keeps its
    curvature, and the angle conditions are re-solved.  At the base the
    stack is one short of full column rank (13 of 14): |amount| = 1e-3
    takes 163 of the 200 iterations, and 1e-4, 1e-6 and 3e-9 raise
    :class:`NonConvergence`.  ``four_stretched``: the middle straight edge
    of the standard 4-bubble is lengthened by the relative ``amount``; it
    stays straight and every bubble keeps its area, which with the angle
    rows and the gauge is a square stack of full rank.  ``amount = 0``
    reproduces the equilibrium base cluster.

    The solved rows are the 120-degree angle block plus the variant's own;
    the curvature cocycle is deliberately left out, so the result is in
    general only a quasi-equilibrium.  Both are solved in the unit frame by
    :func:`lm_minimize`, whose gauge rows place them: each keeps its base's
    vertex centroid and orientation.
    """
    if not math.isfinite(amount):
        raise GeometryDomainError("amount must be finite")
    return lm_minimize(*_quasi_rows(kind, amount), 200)[0]


def _quasi_rows(variant: str, amount: float):
    """Base cluster, and solved rows on its unit frame with their exact Jacobian."""
    if variant == "two_lens_recurved":
        base = two_lens()
        unit = base.unit()
        # the main-circle arcs 0 and 1 are re-curved and every other edge
        # keeps its curvature: stating every curvature restores one of the
        # two ranks the angle rows alone lose at a lens, whose 120-degree
        # condition appears at both of its ends, but not the other
        edges = np.arange(base.e)
        targets = unit.kappas * np.where(edges < 2, 1.0 + amount, 1.0)

        def rows(c: Cluster) -> np.ndarray:
            return c.kappas - targets

        def jac(c: Cluster) -> np.ndarray:
            J = np.zeros((c.e, 2 * c.v + c.e))
            np.put_along_axis(J, c.topology._columns, _chart_gradients(c)[:, 1], axis=1)
            return J

    elif variant == "four_stretched":
        # the stretched chord, the straight edge and the kept areas, with
        # the gauge, make the stack square, whatever the chart's metric
        base = four_bubble()
        unit = base.unit()
        straight = np.flatnonzero(np.abs(unit.phis) < STRAIGHT_PHI)
        k = straight[unit.chords[straight].argmax()]
        tail, head = unit.ends[k]
        goal = (1.0 + amount) * unit.chords[k]
        areas = region_areas(unit)

        def rows(c: Cluster) -> np.ndarray:
            return np.concatenate([[c.chords[k] - goal, c.phis[k]], region_areas(c) - areas])

        def jac(c: Cluster) -> np.ndarray:
            J = np.zeros((2, 2 * c.v + c.e))
            moves = J[0, : 2 * c.v].view(complex)  # the chord's gradient is -+u at its ends
            u = (c.points[head] - c.points[tail]) / c.chords[k]
            moves[tail], moves[head], J[1, 2 * c.v + k] = -u, u, 1.0
            return np.vstack([J, area_jacobian(c)])

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
    an inversion about the image of a point q at least half a diameter away
    from every vertex and arc sample, so that q is the composed map's pole.
    It may lie inside a bubble, whose image is then the unbounded face (see
    :func:`mobius_apply_cluster`).
    """
    scale, corners = cluster.diameter(), cluster.points
    centroid = complex(corners.mean())
    m = MobiusMap.rotation(rng.uniform(0.0, 2.0 * math.pi), about=centroid)
    m = MobiusMap.scaling(math.exp(rng.uniform(-0.5, 0.5))).compose(m)
    m = MobiusMap.translation(complex(*rng.normal(0.0, 0.3 * scale, 2))).compose(m)
    if rng.random() < 0.5:
        samples, _ = cluster.arc_samples([0.25, 0.5, 0.75])
        for _ in range(100):
            q = centroid + complex(*rng.normal(0.0, 2.0 * scale, 2))
            if (np.abs(corners - q) > 0.75 * scale).all() and (
                np.abs(samples - q) > 0.5 * scale
            ).all():
                return MobiusMap.inversion_about(m.apply(q)).compose(m)
    return m
