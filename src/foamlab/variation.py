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
import scipy.linalg

from .cluster import (
    Cluster,
    area_jacobian,
    region_areas,
    shoelace_gradient,
    shoelace_terms,
)
from .equilibrium import SolveOptions, pressures, residual_jacobian, solve
from .errors import GeometryDomainError
from .geometry import arc_point, arc_tangent
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
    normal at the m-1 interior samples.
    """

    cluster: Cluster
    m: int
    points: np.ndarray  # (P,) complex
    point_index: Tuple[Tuple[int, ...], ...]
    normals: Tuple[np.ndarray, ...]

    @cached_property
    def segments(self) -> Tuple[np.ndarray, np.ndarray]:
        """(pairs, edge): every segment as a (P,)-index pair in tail-to-head
        order, and the index of the edge it lies on."""
        pairs = [np.column_stack([idx[:-1], idx[1:]]) for idx in self.point_index]
        edge = np.repeat(np.arange(len(pairs)), [len(p) for p in pairs])
        return np.vstack(pairs), edge

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
    points: List[complex] = [p.z for p in cluster.vertices]
    index: List[Tuple[int, ...]] = []
    normals: List[np.ndarray] = []
    for j, ed in enumerate(cluster.edges):
        arc = cluster.arc_of(j)
        idx = [ed.tail]
        nrm = np.empty(m - 1, dtype=complex)
        for k in range(1, m):
            t = k / m
            idx.append(len(points))
            points.append(arc_point(arc, t).z)
            nrm[k - 1] = 1j * arc_tangent(arc, t)
        idx.append(ed.head)
        index.append(tuple(idx))
        normals.append(nrm)
    return DiscreteCluster(
        cluster, m, np.asarray(points), tuple(index), tuple(normals)
    )


# ---------------------------------------------------------------------------
# discretized second variation


def _length_hessian(points: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Exact Hessian of the total polyline length in position coordinates."""
    P = points.size
    H = np.zeros((2 * P, 2 * P))
    for a, b in pairs:
        d = points[b] - points[a]
        norm = abs(d)
        u = np.array([d.real / norm, d.imag / norm])
        blk = (np.eye(2) - np.outer(u, u)) / norm
        for (i, si), (j, sj) in (
            ((a, 1.0), (a, 1.0)),
            ((b, 1.0), (b, 1.0)),
            ((a, 1.0), (b, -1.0)),
            ((b, -1.0), (a, 1.0)),
        ):
            H[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] += si * sj * blk
    return H


def _shoelace_hessian_update(H: np.ndarray, pairs: np.ndarray, w: float) -> None:
    """Add w * Hessian of sum of signed pair shoelace terms (1/2 cross)."""
    for a, b in pairs:
        # d2/dx_a dy_b = +1/2, d2/dy_a dx_b = -1/2 (symmetrized)
        H[2 * a, 2 * b + 1] += 0.5 * w
        H[2 * b + 1, 2 * a] += 0.5 * w
        H[2 * a + 1, 2 * b] -= 0.5 * w
        H[2 * b, 2 * a + 1] -= 0.5 * w


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
    restricted to junction motions plus normal motions of interior samples,
    projected onto the orthogonal complement of rigid motions and of the
    area gradients, and diagonalized against the lumped segment-mass matrix
    so eigenvalues approximate the continuum second-variation spectrum.
    """
    disc = discretize(cluster, m)
    press = pressures(cluster, policy)
    pts = disc.points
    P = pts.size
    all_pairs, pair_edge = disc.segments

    H = _length_hessian(pts, all_pairs)
    for j, ed in enumerate(cluster.edges):
        kappa = press[ed.left] - press[ed.right]
        if kappa != 0.0:
            _shoelace_hessian_update(H, all_pairs[pair_edge == j], -kappa)

    # area gradients per interior region, in position coordinates
    grads = cluster.topology.incidence @ shoelace_gradient(pts, all_pairs, pair_edge, cluster.e)

    # reduction matrix: full motion at junctions, normal motion inside arcs
    v = cluster.v
    D = 2 * v + cluster.e * (m - 1)
    B = np.zeros((2 * P, D))
    for i in range(v):
        B[2 * i, 2 * i] = 1.0
        B[2 * i + 1, 2 * i + 1] = 1.0
    col = 2 * v
    for j, idx in enumerate(disc.point_index):
        for k, pi in enumerate(idx[1:-1]):
            nrm = disc.normals[j][k]
            B[2 * pi, col] = nrm.real
            B[2 * pi + 1, col] = nrm.imag
            col += 1

    # lumped mass: half of each adjacent segment length per point
    point_mass = np.zeros(P)
    for a, b in all_pairs:
        ell = abs(pts[b] - pts[a])
        point_mass[a] += 0.5 * ell
        point_mass[b] += 0.5 * ell
    M_pos = np.repeat(point_mass, 2)

    H_dof = B.T @ H @ B
    M_dof = B.T @ (M_pos[:, None] * B)
    A_dof = grads @ B

    # rigid motions expressed in position space, then reduced
    rigid_pos = np.zeros((3, 2 * P))
    rigid_pos[0, 0::2] = 1.0
    rigid_pos[1, 1::2] = 1.0
    cx, cy = pts.real.mean(), pts.imag.mean()
    rigid_pos[2, 0::2] = -(pts.imag - cy)
    rigid_pos[2, 1::2] = pts.real - cx
    # B's columns are unit vectors with disjoint supports, so B^T B = I and the
    # least-squares preimage under B is exactly B^T (tangential parts are
    # unrepresentable and energetically neutral: the normal part is the quotient)
    rigid_dof = rigid_pos @ B

    constraints = np.vstack([A_dof, rigid_dof])
    u, s, vt = np.linalg.svd(constraints, full_matrices=True)
    rank = int((s > 1e-12 * (s[0] if s.size else 1.0)).sum())
    Q = vt[rank:].T  # basis of the admissible subspace

    Hp = Q.T @ H_dof @ Q
    Mp = Q.T @ M_dof @ Q
    eig = scipy.linalg.eigh(Hp, Mp, eigvals_only=True)

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
    """Predictor-corrector path from the cluster's areas to the target areas.

    Linear interpolation of the area vector over ``steps`` increments, each
    solved by the area-constrained equilibrium solver seeded from the
    previous cluster.  Returns the full path including the start.
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
