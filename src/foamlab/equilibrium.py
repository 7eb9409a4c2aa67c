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

from .cluster import Cluster, area_jacobian, region_areas
from .errors import GeometryDomainError, NonConvergence, PathInconsistent, TopologyBreakdown
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


# the half-edge leaving an edge's tail has curvature +kappa, leaving its head -kappa
_END_SIGN = np.array([1.0, -1.0])


def residuals(cluster: Cluster) -> ResidualReport:
    """Per vertex, the sums of the outgoing unit tangents (angle block,
    interleaved x, y) and of the outgoing signed curvatures (cocycle block),
    summed over the edge ends of the cluster's topology."""
    f = cluster.frame
    ends = cluster.topology.ends
    tangent = np.zeros(cluster.v, dtype=complex)
    np.add.at(tangent, ends, np.exp(1j * f.alpha))
    cocycle = np.zeros(cluster.v)
    np.add.at(cocycle, ends, np.outer(f.kappa, _END_SIGN))
    return ResidualReport(tangent.view(float), cocycle)


def residual_jacobian(cluster: Cluster) -> np.ndarray:
    """Exact d[angle; cocycle]/d(chart), shape (3v, 2v + e), from the frame
    gradients: d e^{i alpha} = i e^{i alpha} d alpha at every edge end."""
    f = cluster.frame
    vert = cluster.topology.ends.ravel()
    alpha = f.alpha.ravel()[:, None]
    d_alpha = f.d_alpha.reshape(-1, 3)
    d_kappa = np.repeat(f.d_kappa, 2, axis=0) * np.tile(_END_SIGN, cluster.e)[:, None]
    return f.jacobian(
        np.concatenate([2 * vert, 2 * vert + 1, 2 * cluster.v + vert]),
        np.tile(np.repeat(np.arange(cluster.e), 2), 3),
        np.vstack([-np.sin(alpha) * d_alpha, np.cos(alpha) * d_alpha, d_kappa]),
        3 * cluster.v,
    )


def curvature_scale(cluster: Cluster) -> float:
    return max(float(np.abs(cluster.frame.kappa).max(initial=0.0)), 1.0 / cluster.diameter())


def pressures(cluster: Cluster, policy: TolerancePolicy = DEFAULT) -> np.ndarray:
    """Per-region pressures p_0..p_n (exterior first, fixed at 0).

    Breadth-first over the region adjacency graph of the cluster's
    topology, which is connected; the maximum disagreement on non-tree edges
    is checked against the policy and raised as :class:`PathInconsistent`
    when pressure is not well defined.
    """
    p = np.full(cluster.n + 1, np.nan)
    p[0] = 0.0
    adjacency: List[List[Tuple[int, float]]] = [[] for _ in range(cluster.n + 1)]
    for (left, right), kappa in zip(cluster.topology.labels.tolist(), cluster.frame.kappa):
        adjacency[right].append((left, kappa))  # p_left = p_right + kappa
        adjacency[left].append((right, -kappa))
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
    """Central differences of ``fun`` at ``x``: the oracle that the exact
    Jacobians are tested against."""
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
    jac: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
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
        J = jac(x)
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


def _check_topology(cluster: Cluster) -> None:
    """Raise :class:`TopologyBreakdown` unless the chart point still realizes
    its topology: no collapsed chord, no near-full circle, and every star in
    its counterclockwise order, which turns once around the vertex (a star
    in clockwise order turns twice)."""
    f = cluster.frame
    for j in np.flatnonzero(f.chord < 1e-8 * cluster.diameter()):
        raise TopologyBreakdown(f"edge {j} chord collapsed")
    for j in np.flatnonzero(np.abs(f.phi) > math.pi - 1e-3):
        raise TopologyBreakdown(f"edge {j} approaching a full circle")
    alpha = f.alpha.ravel()[cluster.topology.stars]
    turns = np.mod(np.roll(alpha, -1, axis=1) - alpha, 2.0 * math.pi).sum(axis=1)
    for i in np.flatnonzero(turns > 3.0 * math.pi):
        raise TopologyBreakdown(f"vertex {i} no longer has its star order")


def chart_lm(initial: Cluster, rows: Callable, jac: Callable, converged, max_iter: int) -> Cluster:
    """Damped Gauss-Newton over the chart of ``initial`` on the stacked rows
    ``rows(c)`` of the cluster c at each chart point, with their exact
    Jacobian ``jac(c)``.  The latest chart point's cluster is kept, so rows
    and Jacobian read one frame.  Raises :class:`TopologyBreakdown` when an
    iterate degenerates an edge or reorders a star."""
    last = [None, initial]

    def at(x: np.ndarray) -> Cluster:
        if last[0] is None or not np.array_equal(x, last[0]):
            c = initial.with_chart(x)
            _check_topology(c)
            last[:] = [x.copy(), c]
        return last[1]

    x, _ = lm_minimize(
        lambda x: rows(at(x)), lambda x: jac(at(x)), initial.chart(), max_iter, converged
    )
    return at(x)


def pin_gauge(initial: Cluster) -> Tuple[Callable, Callable]:
    """Rows removing rigid motions, and their Jacobian: vertex 0 stays where
    it is in ``initial`` and its first outgoing half-edge does not turn (the
    sine of the turn is 0)."""
    pin = np.array(initial.vertices[0])
    j, forward = initial.vertex_stars[0][0]
    end = 0 if forward else 1

    def turn(c: Cluster) -> float:
        return c.frame.alpha[j, end] - initial.frame.alpha[j, end]

    def rows(c: Cluster) -> np.ndarray:
        return np.append(np.array(c.vertices[0]) - pin, math.sin(turn(c)))

    def jac(c: Cluster) -> np.ndarray:
        J = c.frame.jacobian([2], [j], math.cos(turn(c)) * c.frame.d_alpha[j, end], 3)
        J[0, 0] = J[1, 1] = 1.0
        return J

    return rows, jac


def solve(
    initial: Cluster,
    target: np.ndarray,
    opts: SolveOptions = SolveOptions(),
) -> Cluster:
    """Equilibrium of the same combinatorial type with the given areas.

    Minimizes the stacked system [angle; cocycle; areas - target; gauge] by
    damped Gauss-Newton with its exact Jacobian.  The gauge rows
    (:func:`pin_gauge`) remove rigid motions.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (initial.n,):
        raise GeometryDomainError("target must have one area per interior region")
    if not (target > 0).all():
        raise GeometryDomainError("target areas must be positive")
    gauge, gauge_jac = pin_gauge(initial)

    def rows(c: Cluster) -> np.ndarray:
        rep = residuals(c)
        areas = region_areas(c) - target
        return np.concatenate([rep.angle_block, rep.cocycle_block, areas, gauge(c)])

    def jac(c: Cluster) -> np.ndarray:
        return np.vstack([residual_jacobian(c), area_jacobian(c), gauge_jac(c)])

    # the angle, cocycle and area rows converge at tol scaled by 1, by the
    # curvature scale and by diameter^2
    scales = [1.0, max(1.0, curvature_scale(initial)), initial.diameter() ** 2]
    tol = opts.tol * np.repeat(scales, [2 * initial.v, initial.v, initial.n])

    def ok(x: np.ndarray, f: np.ndarray) -> bool:
        return bool((np.abs(f[: tol.size]) < tol).all())

    return chart_lm(initial, rows, jac, ok, opts.max_iter)
