"""Tangent-space dimension and second-variation stability.

Two complementary probes of an equilibrium cluster:

* ``tangent_dimension`` measures the local dimension of the equilibrium
  variety in the vertex/bulge chart by the SVD nullity of the stacked exact
  constraint Jacobian (angle + cocycle rows, rigid-motion gauge rows, and
  optionally the area Jacobian).  It sees exactly the circular-arc-preserving
  deformations, e.g. necklace sliding.
* ``stability_report`` discretizes every arc into a polyline, forms the exact
  Hessian of (perimeter - sum of pressure * area) in a reduced coordinate
  system (full motion at junctions, normal motion at interior sample points,
  so tangential reparametrizations are quotiented away), projects out rigid
  motions and area changes, and classifies the inertia of the resulting
  pencil against a segment-mass matrix.  It also sees non-arc deformations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cluster import (
    Cluster,
    area_jacobian,
    region_areas,
    shoelace_gradient,
    shoelace_terms,
)
from .equilibrium import SolveOptions, pressures, residual_jacobian, solve
from .errors import GeometryDomainError
from .geometry import arc_tangent  # arc_tangent is unused here, but perfbench's tests resolve it
from .tolerances import DEFAULT, TolerancePolicy


# ---------------------------------------------------------------------------
# chart-level tangent space


def rigid_motion_basis(cluster: Cluster) -> np.ndarray:
    """Orthonormal chart vectors for x/y-translation and rotation.

    Bulge entries are exactly zero: signed segment areas are invariant under
    rigid motions.  Rotation is taken about the vertex centroid, which makes
    it orthogonal to the translations.
    """
    dim = 2 * cluster.v + cluster.e
    basis = np.zeros((3, dim))
    basis[0, 0 : 2 * cluster.v : 2] = 1.0
    basis[1, 1 : 2 * cluster.v : 2] = 1.0
    cx = sum(p.x for p in cluster.vertices) / cluster.v
    cy = sum(p.y for p in cluster.vertices) / cluster.v
    for i, p in enumerate(cluster.vertices):
        basis[2, 2 * i] = -(p.y - cy)
        basis[2, 2 * i + 1] = p.x - cx
    for k in range(3):
        basis[k] /= np.linalg.norm(basis[k])
    return basis


@dataclass(frozen=True)
class TangentReport:
    singular_values: np.ndarray  # descending
    nullity: int
    gap_ratio: float
    mode_basis: np.ndarray  # (nullity, chart dim) rows spanning the kernel
    ambiguous: bool


def tangent_dimension(
    cluster: Cluster,
    fix_areas: bool = False,
    policy: TolerancePolicy = DEFAULT,
) -> TangentReport:
    """Numerical dimension of the equilibrium variety modulo rigid motions.

    Stacks the exact Jacobian of the angle and cocycle residual blocks, the
    three rigid-motion rows, and (iff ``fix_areas``) the area Jacobian, then
    counts the SVD nullity.  The spectral gap between the smallest kept and
    the largest cut singular value is reported; a gap below the policy
    factor flags the count as ambiguous instead of silently picking a side.
    """
    rows = [residual_jacobian(cluster), rigid_motion_basis(cluster)]
    if fix_areas:
        rows.append(area_jacobian(cluster))
    stack = np.vstack(rows)
    u, sigma, vt = np.linalg.svd(stack)
    smax = sigma[0] if sigma.size else 1.0
    keep = sigma > policy.rank_rel * smax
    rank = int(keep.sum())
    dim = stack.shape[1]
    nullity = dim - rank
    if rank < sigma.size:
        gap = float(sigma[rank - 1] / sigma[rank]) if rank > 0 else np.inf
    else:
        gap = np.inf
    return TangentReport(
        singular_values=sigma,
        nullity=nullity,
        gap_ratio=gap,
        mode_basis=vt[rank:],
        ambiguous=bool(gap < policy.rank_gap_factor),
    )


# ---------------------------------------------------------------------------
# polyline discretization


@dataclass(frozen=True)
class DiscreteCluster:
    """Polyline proxy: every arc sampled at m+1 points, junctions shared.

    ``point_index[j]`` lists, for edge j, the indices into ``points`` of its
    m+1 samples in tail-to-head order; ``normals[j]`` carries the left unit
    normal at the m-1 interior samples.  The points are the v junctions, then
    each edge's interior samples in order.
    """

    cluster: Cluster
    m: int
    points: np.ndarray  # (P,) complex
    point_index: np.ndarray  # (e, m+1) int
    normals: np.ndarray  # (e, m-1) complex

    @cached_property
    def segments(self) -> Tuple[np.ndarray, np.ndarray]:
        """(pairs, edge): every segment as a (P,)-index pair in tail-to-head
        order, and the index of the edge it lies on."""
        idx = self.point_index
        pairs = np.stack([idx[:, :-1], idx[:, 1:]], axis=-1).reshape(-1, 2)
        return pairs, np.repeat(np.arange(idx.shape[0]), self.m)

    def perimeter(self) -> float:
        pairs, _ = self.segments
        return float(np.abs(self.points[pairs[:, 1]] - self.points[pairs[:, 0]]).sum())

    def region_areas(self) -> np.ndarray:
        """S times each edge's polyline shoelace sum (see ``region_areas``)."""
        pairs, edge = self.segments
        per_edge = np.bincount(
            edge, weights=shoelace_terms(self.points, pairs), minlength=self.cluster.e
        )
        return self.cluster.topology.incidence @ per_edge


def discretize(cluster: Cluster, m: int) -> DiscreteCluster:
    """Sample every arc at m+1 parameter-equispaced points (so equispaced in
    angle along the carrier)."""
    if m < 8:
        raise GeometryDomainError("need at least 8 points per edge")
    v, e = cluster.v, cluster.e
    inner, tangents = cluster.arc_samples(np.arange(1, m) / m)
    index = np.empty((e, m + 1), dtype=int)
    index[:, 0], index[:, -1] = cluster.frame.ends.T
    index[:, 1:-1] = v + np.arange(e * (m - 1)).reshape(e, m - 1)
    points = np.concatenate([[p.z for p in cluster.vertices], inner.ravel()])
    return DiscreteCluster(cluster, m, points, index, 1j * tangents)


# ---------------------------------------------------------------------------
# discretized second variation


@dataclass(frozen=True)
class HessianReport:
    eigenvalues: np.ndarray  # ascending, of the projected mass-normalized pencil
    zero_mode_count: int
    classification: str  # "StrictlyStable" | "Degenerate(k)" | "Unstable(j)"
    m: int


def stability_report(
    cluster: Cluster,
    m: int = 64,
    policy: TolerancePolicy = DEFAULT,
) -> HessianReport:
    """Inertia of the discretized second variation at fixed areas.

    The energy perimeter - sum(p_i * area_i) is assembled exactly (its
    length part and its quadratic area part) on the polyline discretization,
    segment by segment, directly in the D = 2v + e(m-1) reduced coordinates:
    full motion (1, i) at junctions and motion along the normal n at interior
    samples, so tangential reparametrizations are quotiented away.  The
    lumped segment mass M is diagonal there; on the orthogonal complement of
    the M^(-1/2)-scaled rigid-motion and area-gradient rows, the eigenvalues
    of M^(-1/2) H M^(-1/2) are those of the mass pencil on the admissible
    motions, and approximate the continuum second-variation spectrum.
    """
    disc = discretize(cluster, m)
    press = pressures(cluster, policy)
    pts = disc.points
    v, P = cluster.v, pts.size
    D = v + P
    pairs, edge = disc.segments

    # reduced dofs: x and y at each junction, then the normal at each sample;
    # every point has two dof slots, and an interior sample's second one
    # repeats its dof with a zero direction
    point = np.concatenate([np.repeat(np.arange(v), 2), np.arange(v, P)])
    direction = np.concatenate([np.tile([1.0, 1j], v), disc.normals.ravel()])
    slots = np.concatenate([np.arange(2 * v), np.repeat(np.arange(2 * v, D), 2)]).reshape(P, 2)
    slot_dir = direction[slots]
    slot_dir[v:, 1] = 0.0

    # per segment (a, b) with unit direction u and length l: the length
    # Hessian (I - u u^T) / l is g g^T / l with g = Im(conj(u) p) at a and its
    # negative at b, and -kappa times the shoelace term (1/2) Im(conj(a) b)
    # couples a's and b's directions p, q by -kappa/2 Im(conj(p) q)
    seg = pts[pairs[:, 1]] - pts[pairs[:, 0]]
    ell = np.abs(seg)
    dofs = slots[pairs].reshape(-1, 4)
    dirs = slot_dir[pairs].reshape(-1, 4)
    g = (seg.conj()[:, None] * dirs).imag / ell[:, None] * [1.0, 1.0, -1.0, -1.0]
    block = g[:, :, None] * g[:, None, :] / ell[:, None, None]
    kappa = press[cluster.topology.labels[:, 0]] - press[cluster.topology.labels[:, 1]]
    cross = -0.5 * kappa[edge, None, None] * (dirs[:, :2, None].conj() * dirs[:, None, 2:]).imag
    block[:, :2, 2:] += cross
    block[:, 2:, :2] += cross.transpose(0, 2, 1)
    H = np.zeros((D, D))
    np.add.at(H, (dofs[:, :, None], dofs[:, None, :]), block)

    # lumped mass: half of each adjacent segment length per point
    mass = np.bincount(pairs.ravel(), weights=np.repeat(0.5 * ell, 2), minlength=P)[point]

    # constraint rows, each a complex gradient d/dx + i d/dy per point read
    # along the dof directions: area gradients, translations, rotation
    areas = cluster.topology.incidence @ shoelace_gradient(pts, pairs, edge, cluster.e).view(complex)
    grads = np.vstack([areas, np.ones(P), np.full(P, 1j), 1j * (pts - pts.mean())])
    C = (direction.conj() * grads[:, point]).real

    # M^(-1/2) scaling turns the mass pencil into a plain symmetric problem
    root = np.sqrt(mass)
    H /= root[:, None]
    H /= root
    C /= root
    _, s, vt = np.linalg.svd(C, full_matrices=True)
    rank = int((s > 1e-12 * (s[0] if s.size else 1.0)).sum())
    Q = vt[rank:]  # rows span the admissible subspace
    eig = np.linalg.eigvalsh(Q @ H @ Q.T)

    # eigenvalues are mass-normalized, so lambda * diameter^2 is the
    # scale-invariant quantity to threshold
    scale = cluster.diameter()
    tau = policy.hessian_zero_scaled / scale**2
    negative = int((eig < -tau).sum())
    zero = int((np.abs(eig) <= tau).sum())
    if negative > 0:
        label = f"Unstable({negative})"
    elif zero > 0:
        label = f"Degenerate({zero})"
    else:
        label = "StrictlyStable"
    return HessianReport(
        eigenvalues=eig, zero_mode_count=zero, classification=label, m=m
    )


# ---------------------------------------------------------------------------
# continuation


def continue_family(
    cluster: Cluster,
    target: Sequence[float],
    steps: int = 10,
    opts: Optional[SolveOptions] = None,
) -> List[Cluster]:
    """Path of equilibria from the cluster's areas to the target areas.

    Step k re-solves the area target interpolated linearly k/``steps`` of
    the way, starting from the previous step's cluster (no tangent
    predictor).  Returns the full path including the start.
    """
    if steps < 1:
        raise GeometryDomainError("need at least one step")
    target = np.asarray(target, dtype=float)
    start = region_areas(cluster)
    if target.shape != start.shape:
        raise GeometryDomainError("target must have one area per region")
    opts = opts or SolveOptions()
    path = [cluster]
    for k in range(1, steps + 1):
        t = k / steps
        path.append(solve(path[-1], (1 - t) * start + t * target, opts))
    return path
