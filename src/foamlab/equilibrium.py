"""Equilibrium residuals, pressures, classification, and the area solver.

Sign convention (fixed here, asserted by a calibration test): traversing an
edge tail -> head with left region L and right region R, the signed curvature
is kappa = 2 sin(phi)/c with phi the arc's half-angle, and

    p_L - p_R = kappa.

A boundary traversed counterclockwise around its region (region on the left)
has positive curvature, so an isolated bubble gets the positive pressure
1/radius, matching the double bubble calibration case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .cluster import (
    CHORD_FLOOR, _END_SIGN, Cluster, _admit, _checks, _jacobian, _size, region_areas, rigid_motion_basis,
)
from .errors import GeometryDomainError, NonConvergence, PathInconsistent, StructuralError, TopologyBreakdown
from .geometry import PHI_LIMIT


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


def residuals(cluster: Cluster) -> ResidualReport:
    """Per vertex, the sums of the outgoing unit tangents (angle block,
    interleaved x, y) and of the outgoing signed curvatures (cocycle block),
    summed over the edge ends of the cluster's topology."""
    at, v = cluster.topology.ends.ravel(), cluster.v
    tangent = cluster._tangents.ravel()
    angle = np.empty(2 * v)
    angle[0::2] = np.bincount(at, tangent.real, v)
    angle[1::2] = np.bincount(at, tangent.imag, v)
    return ResidualReport(angle, np.bincount(at, (cluster.kappas[:, None] * _END_SIGN).ravel(), v))


def residual_jacobian(cluster: Cluster) -> np.ndarray:
    """Exact d[angle; cocycle]/d(chart), shape (3v, 2v + e), rows of the stacked Jacobian."""
    return _jacobian(cluster)[: 3 * cluster.v]


#: Bound on the angle sums, and on the curvature sums times the diameter
#: relative to max(1, max |kappa| * diameter): both read in the unit frame.
RESIDUAL_TOL = 1e-9


def _cocycle_holds(cluster: Cluster, sup: float) -> bool:
    """The cocycle condition on ``sup``, the largest |curvature sum| at the
    vertices in question: times the diameter, it is below ``RESIDUAL_TOL``
    times max(1, max |kappa| * diameter), since large curvatures carry large
    errors.  :func:`classify`, :func:`pressures` and ``decorate`` all decide
    by it."""
    d = cluster.diameter()
    kappa = float(np.abs(cluster.kappas).max(initial=0.0))
    return sup * d < RESIDUAL_TOL * max(1.0, kappa * d)


def pressures(cluster: Cluster) -> np.ndarray:
    """Per-region pressures p_0..p_n (exterior first, fixed at 0).

    The least-squares solution of S^T p = kappa, one row p_L - p_R = kappa
    per edge, with S the signed incidence of the cluster's topology, which
    is connected.  Pressure is well defined exactly when the curvatures
    around every vertex sum to zero, the cocycle condition that
    :func:`classify` tests: where it fails, raises :class:`PathInconsistent`
    carrying the largest edge residual |S^T p - kappa|.
    """
    S, kappa = cluster.topology.incidence, cluster.kappas
    p = np.linalg.lstsq(S.T, kappa, rcond=None)[0]
    rep = residuals(cluster)
    if not _cocycle_holds(cluster, rep.cocycle_sup):
        defect = float(np.abs(S.T @ p - kappa).max(initial=0.0))
        raise PathInconsistent(
            f"curvature sums reach {rep.cocycle_sup:.3e}; largest edge residual {defect:.3e}",
            defect,
        )
    return np.concatenate([[0.0], p])


class Verdict(enum.Enum):
    NON_EQUILIBRIUM = "NonEquilibrium"
    QUASI_EQUILIBRIUM = "QuasiEquilibrium"
    EQUILIBRIUM = "Equilibrium"


def classify(cluster: Cluster) -> Verdict:
    """Equilibrium / quasi-equilibrium / neither, from the residual blocks.

    The two blocks are the whole test.  120-degree tangents plus a zero
    curvature sum at a vertex already imply that its three carriers share a
    second common point: that is the de Sitter rank-2 (collinearity)
    condition that ``desitter.verify_correspondence`` measures.  Both blocks
    are held to ``RESIDUAL_TOL`` in the unit frame, so the verdict is the
    same at every scale: the angle sums are dimensionless, and the curvature
    sums are tested by :func:`_cocycle_holds`, as in :func:`pressures`.
    """
    return _verdict(cluster, residuals(cluster))


def _verdict(cluster: Cluster, rep: ResidualReport) -> Verdict:
    """:func:`classify`'s decision on the residuals ``rep`` of ``cluster``."""
    if not rep.angle_sup < RESIDUAL_TOL:
        return Verdict.NON_EQUILIBRIUM
    if not _cocycle_holds(cluster, rep.cocycle_sup):
        return Verdict.QUASI_EQUILIBRIUM
    return Verdict.EQUILIBRIUM


# ---------------------------------------------------------------------------
# Gauss-Newton with least-squares steps and step halving


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


#: Rank cut of each Gauss-Newton step, relative to the stack's largest scale:
#: a stack whose triangular factor has a diagonal entry at or below this
#: fraction of its largest is rank-deficient and falls back to ``lstsq``,
#: which cuts singular values below this fraction of the largest.
STEP_RCOND = 1e-10

#: Stopping tolerance of :func:`lm_minimize` on each of its caller's dimensionless rows.
SOLVE_TOL = 1e-10


def _check_topology(cluster: Cluster) -> Cluster:
    """``cluster``, or :class:`TopologyBreakdown` unless the unit-frame chart
    point still realizes its type: no chord at or below ``CHORD_FLOOR`` (tested
    before the curvatures divide by it), no |phi| at or beyond ``PHI_LIMIT``,
    and every star in order (:attr:`Cluster.topology`)."""
    c, phi = cluster.chords, np.abs(cluster.phis)
    if c.min(initial=math.inf) <= CHORD_FLOOR:  # each test finds its first failure only on failing
        raise TopologyBreakdown(f"edge {np.argmax(c <= CHORD_FLOOR)} chord collapsed")
    if phi.max(initial=0.0) >= PHI_LIMIT:
        raise TopologyBreakdown(f"edge {np.argmax(phi >= PHI_LIMIT)} approaching a full circle")
    try:
        cluster.topology
    except StructuralError as err:
        raise TopologyBreakdown(str(err)) from err
    return cluster


def _gauss_newton_step(M: np.ndarray) -> np.ndarray:
    """The least-squares step delta minimizing |A delta + f| for the stack
    ``M = [A | f]`` of k columns and the residual.  With at least k rows, one
    Householder QR of ``M`` (Q is never formed) gives the triangular R with
    R[:k, :k] delta = -R[:k, k]; where its diagonal shows rank deficiency (an
    entry at or below ``STEP_RCOND`` times the largest), and on an
    underdetermined stack, the step is ``lstsq``'s minimum-norm one."""
    k = M.shape[1] - 1
    if len(M) >= k:
        r = np.linalg.qr(M, mode="r")
        d = np.abs(r.diagonal()[:k]).tolist()
        if min(d) > STEP_RCOND * max(d):
            return np.linalg.solve(r[:k, :k], -r[:k, k])
    return np.linalg.lstsq(M[:, :k], -M[:, k], rcond=STEP_RCOND)[0]


def _norm(f: np.ndarray) -> float:
    """|f| without overflow: ``np.linalg.norm`` squares the entries, so it
    overflows once |f| passes about 1e154, where ``math.hypot`` scales."""
    return math.hypot(*f.tolist())


def lm_minimize(initial: Cluster, rows: Callable, jac: Callable, max_iter: int) -> Tuple[Cluster, List[float]]:
    """Gauss-Newton with least-squares steps and step halving over the chart
    of ``initial.unit()``, on the rows ``rows(c)`` of the cluster c at each
    chart point and their exact Jacobian ``jac(c)``, each with the gauge rows
    R (x - x0) appended, x0 the start's chart point and R its
    :func:`rigid_motion_basis`: every result keeps the start's vertex
    centroid and has no component along its infinitesimal rotation.

    Each iteration takes the least-squares step of the stack J on -f by
    :func:`_gauss_newton_step`: one Householder QR of [J | f] where J has
    full column rank, and ``lstsq``'s minimum-norm step (``rcond=STEP_RCOND``)
    where it is rank-deficient (gauge-redundant) or underdetermined, so such
    stacks are fine; it halves the step until |f| decreases.
    Every trial point is one cluster, checked by :func:`_check_topology`
    before ``rows`` reads it; a trial that raises :class:`TopologyBreakdown`
    is a rejected step, and the start must pass.  Once each of the caller's
    rows (not the gauge rows) is below ``SOLVE_TOL``, the result is admitted
    once, from the last iterate: it has passed :func:`_check_topology` and
    holds every array :func:`validate` reads, so :func:`_checks` reads the
    scale-free checks there and tests the chart, bulges and areas times the
    start's diameter, and a refusal raises what :func:`validated` raises on
    the result.  The result, that chart point mapped back by
    ``initial.chart_units()`` into a fresh ``initial.with_chart`` copy that
    caches no array, is returned with the history of |f|.  Raises :class:`NonConvergence` with
    that history after ``max_iter`` iterations, or when a step cut to 2^-52
    of itself (a double's resolution) still fails, naming the last
    breakdown if any.
    """
    c = _check_topology(initial.unit())
    R, x0 = rigid_motion_basis(c), c.chart()

    def stacked(c: Cluster) -> np.ndarray:
        return np.concatenate([rows(c), R @ (c.chart() - x0)])

    f = stacked(c)
    history = [_norm(f)]
    last = ""
    while not np.abs(f[: -len(R)]).max() < SOLVE_TOL:
        if len(history) > max_iter:
            raise NonConvergence("iteration limit" + last, history)
        x, J = c.chart(), jac(c)
        M = np.empty((len(f), len(x) + 1))
        M[: len(J), :-1], M[len(J) :, :-1], M[:, -1] = J, R, f
        delta = _gauss_newton_step(M)
        for _ in range(53):
            try:
                trial = _check_topology(initial.with_chart(x + delta))
                f_try = stacked(trial)
            except TopologyBreakdown as err:  # an unrealizable trial is infinitely bad
                f_try, last = f + math.inf, f" (last rejected trial: {err})"
            norm = _norm(f_try)
            if norm < history[-1]:
                break
            delta *= 0.5
        else:
            raise NonConvergence("stalled step" + last, history)
        c, f = trial, f_try
        history.append(norm)
    units = initial.chart_units()  # the start's diameter d for the coordinates, 1 for the half-angles
    _admit(_checks(c, units[0]))
    return initial.with_chart(c.chart() * units), history


def _target_areas(cluster: Cluster, target) -> np.ndarray:
    """``target`` as floats, one area per interior region of ``cluster``, each normal,
    positive and finite as ``validate``'s ``positive_areas`` asks, with a finite
    sum (the total area of the cluster they ask for), or :class:`GeometryDomainError`."""
    target = np.asarray(target, dtype=float)
    if target.shape != (cluster.n,):
        raise GeometryDomainError("target must have one area per interior region")
    if not ((target >= np.finfo(float).tiny) & (target < math.inf)).all():
        raise GeometryDomainError("target areas must be normal positive finite numbers")
    if not sum(target.tolist()) < math.inf:  # Python floats overflow to inf without a warning
        raise GeometryDomainError("target areas must have a finite sum")
    return target


def solve(initial: Cluster, target: np.ndarray, max_iter: int = 100) -> Cluster:
    """Equilibrium of the same combinatorial type with the given areas.

    Minimizes the stacked rows [angle; cocycle; areas - target] by
    Gauss-Newton (:func:`lm_minimize`, which appends the gauge rows) with
    their exact Jacobian in the unit chart (x / d, y / d, phi), where every
    row is dimensionless, until each row is below ``SOLVE_TOL`` within
    ``max_iter`` iterations; one call takes the symmetric triple bubble to
    (1, 1, 1000).  The result keeps the initial vertex centroid and does not
    rotate.  ``target`` passes :func:`_target_areas`, and ``max_iter`` is an
    integer of at least 1, or :class:`GeometryDomainError` is raised.
    """
    target = _target_areas(initial, target)
    max_iter = _size("max_iter", max_iter, 1)
    target = target / initial.chart_units()[0] ** 2

    def rows(c: Cluster) -> np.ndarray:
        rep = residuals(c)
        return np.concatenate([rep.angle_block, rep.cocycle_block, region_areas(c) - target])

    return lm_minimize(initial, rows, _jacobian, max_iter)[0]
