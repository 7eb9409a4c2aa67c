"""Equilibrium residuals, pressures, classification, and the area solver.

Sign convention (fixed here, asserted by a calibration test): traversing an
edge tail -> head with left region L and right region R, the signed curvature
is kappa = 2 sin(phi)/c with phi the bulge half-angle, and

    p_L - p_R = kappa.

A boundary traversed counterclockwise around its region (region on the left)
has positive curvature, so an isolated bubble gets the positive pressure
1/radius, matching the double bubble calibration case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .cluster import Cluster, region_areas
from .errors import (
    NonConvergence,
    PathInconsistent,
    StructuralError,
    TopologyBreakdown,
)
from .geometry import arc_properties
from .tolerances import DEFAULT, TolerancePolicy


@dataclass(frozen=True)
class ResidualReport:
    angle_block: np.ndarray  # 2v entries: per-vertex unit-tangent sums
    cocycle_block: np.ndarray  # v entries: per-vertex signed curvature sums

    @property
    def angle_sup(self) -> float:
        return float(np.abs(self.angle_block).max(initial=0.0))

    @property
    def cocycle_sup(self) -> float:
        return float(np.abs(self.cocycle_block).max(initial=0.0))

    @property
    def angle_l2(self) -> float:
        return float(np.linalg.norm(self.angle_block))

    @property
    def cocycle_l2(self) -> float:
        return float(np.linalg.norm(self.cocycle_block))


def half_edge_curvature(cluster: Cluster, he) -> float:
    return arc_properties(cluster.half_edge_arc(he)).signed_curvature


def residuals(cluster: Cluster) -> ResidualReport:
    angle = np.zeros(2 * cluster.v)
    cocycle = np.zeros(cluster.v)
    for i, star in enumerate(cluster.vertex_stars):
        if len(star) != 3:
            raise StructuralError(f"vertex {i} has degree {len(star)}, expected 3")
        tangent_sum = 0j
        kappa_sum = 0.0
        for he in star:
            tangent_sum += cluster.outgoing_tangent(he)
            kappa_sum += half_edge_curvature(cluster, he)
        angle[2 * i] = tangent_sum.real
        angle[2 * i + 1] = tangent_sum.imag
        cocycle[i] = kappa_sum
    return ResidualReport(angle, cocycle)


def curvature_scale(cluster: Cluster) -> float:
    kmax = max(
        (abs(half_edge_curvature(cluster, (j, True))) for j in range(cluster.e)),
        default=0.0,
    )
    return max(kmax, 1.0 / cluster.diameter())


def pressures(cluster: Cluster, policy: TolerancePolicy = DEFAULT) -> np.ndarray:
    """Per-region pressures p_0..p_n (exterior first, fixed at 0).

    Breadth-first over the region adjacency graph; the maximum disagreement
    on non-tree edges is checked against the policy and raised as
    :class:`PathInconsistent` when pressure is not well defined.
    """
    p = np.full(cluster.n + 1, np.nan)
    p[0] = 0.0
    adjacency: List[List[Tuple[int, float]]] = [[] for _ in range(cluster.n + 1)]
    for j, ed in enumerate(cluster.edges):
        kappa = half_edge_curvature(cluster, (j, True))
        adjacency[ed.right].append((ed.left, kappa))  # p_left = p_right + kappa
        adjacency[ed.left].append((ed.right, -kappa))
    queue = [0]
    defect = 0.0
    while queue:
        r = queue.pop(0)
        for s, drop in adjacency[r]:
            if math.isnan(p[s]):
                p[s] = p[r] + drop
                queue.append(s)
            else:
                defect = max(defect, abs(p[s] - (p[r] + drop)))
    if np.isnan(p).any():
        raise StructuralError("region adjacency graph is not connected")
    tol = policy.pressure_defect_rel * curvature_scale(cluster)
    if defect > tol:
        raise PathInconsistent(
            f"pressure path disagreement {defect:.3e} exceeds {tol:.3e}", defect
        )
    return p


class Verdict(enum.Enum):
    NON_EQUILIBRIUM = "NonEquilibrium"
    QUASI_EQUILIBRIUM = "QuasiEquilibrium"
    EQUILIBRIUM = "Equilibrium"


def classify(
    cluster: Cluster,
    tol: Optional[float] = None,
    policy: TolerancePolicy = DEFAULT,
) -> Verdict:
    """Equilibrium / quasi-equilibrium / neither, from the residual blocks.

    The two blocks are the whole test.  120-degree tangents plus a zero
    curvature sum at a vertex already imply that its three carriers share a
    second common point: that is the de Sitter rank-2 (collinearity)
    condition that ``desitter.verify_correspondence`` measures.
    """
    if tol is None:
        tol = policy.residual_tol
    rep = residuals(cluster)
    angle_ok = rep.angle_sup < tol
    cocycle_ok = rep.cocycle_sup < tol * max(1.0, curvature_scale(cluster))
    if not angle_ok:
        return Verdict.NON_EQUILIBRIUM
    if not cocycle_ok:
        return Verdict.QUASI_EQUILIBRIUM
    return Verdict.EQUILIBRIUM


# ---------------------------------------------------------------------------
# damped Gauss-Newton (Levenberg-Marquardt) with minimum-norm steps


def numeric_jacobian(
    fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float
) -> np.ndarray:
    f0 = fun(x)
    J = np.empty((f0.size, x.size))
    for k in range(x.size):
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        J[:, k] = (fun(xp) - fun(xm)) / (2.0 * h)
    return J


def lm_minimize(
    fun: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    fd_step: float,
    max_iter: int = 100,
    converged: Optional[Callable[[np.ndarray, np.ndarray], bool]] = None,
    step_tol: float = 1e-14,
) -> Tuple[np.ndarray, List[float]]:
    """Levenberg-Marquardt with lambda *2 on reject, *0.5 on accept.

    Steps are minimum-norm solutions of the damped normal system, so
    rank-deficient (gauge-redundant or underdetermined) stacks are fine.
    Raises :class:`NonConvergence` with the residual history on failure.
    """
    x = x0.copy()
    f = fun(x)
    history = [float(np.linalg.norm(f))]
    if converged is not None and converged(x, f):
        return x, history
    lam = None
    for _ in range(max_iter):
        J = numeric_jacobian(fun, x, fd_step)
        if lam is None:
            lam = 1e-3 * float(np.trace(J.T @ J)) / max(J.shape[1], 1)
            lam = max(lam, 1e-14)
        accepted = False
        for _ in range(60):
            aug = np.vstack([J, math.sqrt(lam) * np.eye(x.size)])
            rhs = np.concatenate([-f, np.zeros(x.size)])
            delta = np.linalg.lstsq(aug, rhs, rcond=None)[0]
            x_try = x + delta
            f_try = fun(x_try)
            if np.linalg.norm(f_try) < np.linalg.norm(f):
                x, f = x_try, f_try
                lam *= 0.5
                accepted = True
                break
            lam *= 2.0
        history.append(float(np.linalg.norm(f)))
        if converged is not None and converged(x, f):
            return x, history
        if converged is None and history[-1] < 1e-14:
            return x, history
        if accepted and np.linalg.norm(delta) < step_tol * max(
            1.0, np.linalg.norm(x)
        ):
            break
        if not accepted:
            break
    if converged is not None and converged(x, f):
        return x, history
    raise NonConvergence("iteration limit or stalled step", history)


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-10
    max_iter: int = 100
    policy: TolerancePolicy = DEFAULT


def _check_topology(cluster: Cluster) -> None:
    scale = cluster.diameter()
    for j, ed in enumerate(cluster.edges):
        chord = abs(
            cluster.vertices[ed.tail].z - cluster.vertices[ed.head].z
        )
        if chord < 1e-8 * scale:
            raise TopologyBreakdown(f"edge {j} chord collapsed")
        if abs(cluster.arc_of(j).phi) > math.pi - 1e-3:
            raise TopologyBreakdown(f"edge {j} approaching a full circle")


def solve(
    initial: Cluster,
    target: np.ndarray,
    opts: SolveOptions = SolveOptions(),
) -> Cluster:
    """Equilibrium of the same combinatorial type with the given areas.

    Minimizes the stacked system [angle; cocycle; areas - target; gauge] by
    damped Gauss-Newton.  The gauge rows pin vertex 0 at its initial position
    and the direction of its first outgoing tangent, removing rigid motions.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (initial.n,):
        raise ValueError("target must have one area per interior region")
    if not (target > 0).all():
        raise ValueError("target areas must be positive")
    initial.region_walks  # raises StructuralError unless the labels match the faces

    pin = initial.vertices[0]
    pin_he = initial.vertex_stars[0][0]
    pin_dir = initial.outgoing_tangent(pin_he)
    x0 = initial.chart()
    scale = initial.diameter()

    def fun(x: np.ndarray) -> np.ndarray:
        c = initial.with_chart(x)
        _check_topology(c)
        rep = residuals(c)
        areas = region_areas(c) - target
        t = c.outgoing_tangent(pin_he)
        gauge = np.array(
            [
                c.vertices[0].x - pin.x,
                c.vertices[0].y - pin.y,
                (pin_dir.conjugate() * t).imag,  # sin of the direction error
            ]
        )
        return np.concatenate([rep.angle_block, rep.cocycle_block, areas, gauge])

    kscale = max(1.0, curvature_scale(initial))

    def ok(x: np.ndarray, f: np.ndarray) -> bool:
        nv = 2 * initial.v
        angle = np.abs(f[:nv]).max(initial=0.0)
        cocycle = np.abs(f[nv : nv + initial.v]).max(initial=0.0)
        areas = np.abs(f[nv + initial.v : nv + initial.v + initial.n]).max(initial=0.0)
        return (
            angle < opts.tol
            and cocycle < opts.tol * kscale
            and areas < opts.tol * scale * scale
        )

    x, _history = lm_minimize(
        fun,
        x0,
        fd_step=opts.policy.fd_step(scale),
        max_iter=opts.max_iter,
        converged=ok,
    )
    return initial.with_chart(x)
