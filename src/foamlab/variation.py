"""Tangent-space dimension and second-variation stability.

Two complementary probes of an equilibrium cluster:

* ``tangent_dimension`` measures the local dimension of the equilibrium
  variety in the vertex/half-angle chart by the SVD nullity of the stacked exact
  constraint Jacobian (angle + cocycle rows, rigid-motion gauge rows, and
  optionally the area Jacobian).  It sees exactly the circular-arc-preserving
  deformations, e.g. necklace sliding.
* ``stability_report`` discretizes every arc into a polyline, forms the exact
  Hessian of (perimeter - sum of pressure * area) in a reduced coordinate
  system (full motion at junctions, normal motion at interior sample points,
  so tangential reparametrizations are quotiented away) against a
  segment-mass matrix, with rigid motions and area changes constrained away.
  Its verdict is an inertia count, not a spectrum: each edge's interior
  block is eliminated once, in its closed-form sine eigenbasis
  (``eliminated_hessian``), and the number of constrained eigenvalues below
  any sigma is read off a small Schur complement on the junction and
  multiplier dofs.  It also sees non-arc
  deformations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .cluster import Cluster, _jacobian, _size, region_areas, rigid_motion_basis, shoelace_terms
from .equilibrium import _target_areas, pressures, solve
from .errors import GeometryDomainError, NonConvergence, TopologyBreakdown
from .geometry import arc_tangent  # arc_tangent is unused here, but perfbench's tests resolve it

#: Singular values below RANK_REL * sigma_max count as zero.
RANK_REL = 1e-6
#: Required ratio between the smallest kept and the largest cut singular
#: value; spectra with a smaller gap are flagged ambiguous, never silently
#: resolved.
RANK_GAP = 100.0
#: Zero-mode cutoff on Hessian eigenvalues: any mode with
#: |lambda| * extent^2 below it, extent the diagonal of the arcs' bounding
#: box (``Cluster.extent``), counts as a zero mode, whatever its sign, so
#: small real negative modes are reported as Degenerate too.
HESSIAN_ZERO = 1.0
#: Constraint singular values below this fraction of the largest add no rank.
CONSTRAINT_RANK_REL = 1e-12
#: Unit-frame sigmas that the first slicing batch adds to the verdict probes.
SLICE_LADDER = (-4.0, 4.0, 16.0, 64.0)


# ---------------------------------------------------------------------------
# chart-level tangent space


@dataclass(frozen=True)
class TangentReport:
    singular_values: np.ndarray  # descending
    nullity: int
    gap_ratio: float
    mode_basis: np.ndarray  # (nullity, chart dim) rows spanning the kernel
    ambiguous: bool


def tangent_dimension(cluster: Cluster, fix_areas: bool = False) -> TangentReport:
    """Numerical dimension of the equilibrium variety modulo rigid motions.

    Stacks the exact Jacobian of the angle and cocycle residual blocks, the
    three rigid-motion rows, and (iff ``fix_areas``) the area Jacobian, then
    counts the SVD nullity.  The cut is scale-free: the columns are read in
    the unit chart (times ``cluster.chart_units()``) and each row is scaled
    to unit norm; ``mode_basis`` is mapped back to chart coordinates.  The
    spectral gap between the smallest kept and the largest cut singular
    value is reported; a gap below ``RANK_GAP`` flags the count as ambiguous
    instead of silently picking a side.  Singular values below ``RANK_REL``
    times the largest are cut.
    """
    J, v = _jacobian(cluster), cluster.v  # angle and cocycle rows, then area rows
    rows = [J[: 3 * v], rigid_motion_basis(cluster)] + ([J[3 * v :]] if fix_areas else [])
    units = cluster.chart_units()
    stack = np.vstack(rows) * units
    stack /= np.linalg.norm(stack, axis=1, keepdims=True)
    _, sigma, vt = np.linalg.svd(stack)
    rank = int((sigma > RANK_REL * sigma[0]).sum())  # sigma[0] >= 1: unit rows
    gap = float(sigma[rank - 1] / sigma[rank]) if rank < sigma.size else np.inf
    return TangentReport(
        singular_values=sigma,
        nullity=stack.shape[1] - rank,
        gap_ratio=gap,
        mode_basis=vt[rank:] * units,
        ambiguous=bool(gap < RANK_GAP),
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
    angle along the carrier).  ``m`` is an integer of at least 8."""
    m = _size("m", m, 8)
    v, e = cluster.v, cluster.e
    inner, tangents = cluster.arc_samples(np.arange(1, m) / m)
    index = np.empty((e, m + 1), dtype=int)
    index[:, 0], index[:, -1] = cluster.ends.T
    index[:, 1:-1] = v + np.arange(e * (m - 1)).reshape(e, m - 1)
    points = np.concatenate([cluster.points, inner.ravel()])
    return DiscreteCluster(cluster, m, points, index, 1j * tangents)


# ---------------------------------------------------------------------------
# discretized second variation


@dataclass(frozen=True)
class HessianReport:
    eigenvalues: np.ndarray  # the smallest six constrained eigenvalues, ascending
    zero_mode_count: int  # constrained lambda * extent^2 in [-HESSIAN_ZERO, HESSIAN_ZERO)
    classification: str  # "StrictlyStable" | "Degenerate(k)" | "Unstable(j)"
    m: int
    rank: int  # of the area and rigid-motion constraint rows
    evaluations: Tuple[int, int]  # batched Schur evaluations, and sigmas in all
    ambiguous: bool  # a verdict count rests on a Schur eigenvalue at roundoff level
    # wall seconds of the two phases: ``eliminated_hessian`` (with the unit
    # frame), and the spectrum slicing with its verdict probes
    assembly_s: float = field(compare=False)
    slicing_s: float = field(compare=False)


class _Slice(NamedTuple):
    eigenvalues: np.ndarray  # the k smallest constrained eigenvalues, ascending
    probe_counts: np.ndarray  # counts below -probe and +probe
    probe_mu: np.ndarray  # (2, N) the ascending eigenvalues of Z there
    evaluations: Tuple[int, int]  # batched Schur evaluations, and sigmas in all


@dataclass(frozen=True)
class EliminatedHessian:
    """The constrained, mass-scaled second variation with every edge's
    interior block eliminated, for counting eigenvalues below any sigma.

    With the scaled Hessian H~ = M^(-1/2) H M^(-1/2) and C the scaled
    constraint rows (area gradients, two translations, the rotation), each
    row rescaled to norm m^2, the size of the junction block of H~ at unit
    diameter, Sylvester's law of inertia on the bordered matrix
    K(sigma) = [[H~ - sigma I, C^T], [C, 0]] gives

        #(constrained eigenvalues < sigma) = n_-(K(sigma)) - rank.

    The count needs only the row space of C: another basis F C, F
    invertible, is the congruence diag(I, F) K diag(I, F^T), which keeps the
    inertia.  So no orthonormal basis is taken, and rows of the size of the
    junction block keep K balanced.

    Each edge's interior normals couple only to each other and to nine
    border columns.  Uniform sampling makes the first a tridiagonal Toeplitz
    block T_j = S diag(Lambda_j) S, with Lambda_j = a_j + 2 b_j cos(k pi / m)
    and one symmetric orthogonal S_ik = sqrt(2 / m) sin(i k pi / m) for
    every edge (i, k = 1..m-1).  The border columns are the x and y of its
    two end junctions, the area rows of its two regions (zero for the
    exterior, which has no row) and the three rigid-motion rows.  Haynsworth's
    inertia additivity splits n_-(K) into the pole count #(Lambda < sigma)
    and the negative count of the Schur complement

        Z(sigma) = K_JJ - sigma E - sum_j B_j^T S diag(1 / (Lambda_j - sigma)) S B_j,

    with B_j edge j's (m-1) x 9 columns and E the identity on the 2v
    junction dofs; each term is 9 x 9, and only its 45 lower-triangle
    entries are formed and scattered into Z at ``columns[j]``, because
    ``eigvalsh`` reads only the lower triangle.  Z is only (2v + rank)^2,
    whatever m is.

    Between two poles Z is continuous and non-increasing in sigma:
    dZ/dsigma = -E - sum_j B_j^T S diag((Lambda_j - sigma)^(-2)) S B_j is
    negative semidefinite, so each ascending eigenvalue mu_i(Z(sigma)) is
    non-increasing there.  With p poles below sigma the count is
    p + n_-(Z(sigma)) - rank, so it is at most t exactly when
    mu_(t + rank - p)(Z(sigma)) >= 0 (indexed from 0), both read off the
    same ``eigvalsh``; ``smallest`` finds the sign change of that eigenvalue
    by inverse-quadratic steps, with bisection as the safeguard.
    """

    lam: np.ndarray  # (e, m-1) eigenvalues Lambda_j of the edge blocks T_j
    coupling: np.ndarray  # (e, m-1, 9) S B_j
    columns: np.ndarray  # (e, 9) where each coupling column sits in ``border``
    border: np.ndarray  # (2v + rank, 2v + rank) K_JJ at sigma = 0
    junction_dofs: int  # 2v, the leading rows of ``border`` that sigma shifts
    rank: int  # of the constraint rows
    bound: float  # Gershgorin bound of H~; interlacing keeps the spectrum inside

    @property
    def size(self) -> int:
        """Dimension of the constrained space."""
        return self.lam.size + self.junction_dofs - self.rank

    @cached_property
    def outer(self) -> np.ndarray:
        """(e, m-1, 45) the lower triangle (``np.tril_indices(9)``) of each
        coupling row's outer product with itself, so that one matmul per edge
        gives the lower triangles of the 9 x 9 terms of every sigma at once."""
        row, col = np.tril_indices(9)
        outer = self.coupling[:, :, row]
        outer *= self.coupling[:, :, col]
        return outer

    @cached_property
    def lam_sorted(self) -> np.ndarray:
        """Every Lambda_j, ascending, so that #(Lambda < sigma) is one
        ``searchsorted``."""
        return np.sort(self.lam, axis=None)

    @cached_property
    def scatter(self) -> np.ndarray:
        """(e, 1, 45) the flat index in one Schur complement of each entry of
        ``outer``: row max(c_a, c_b), column min(c_a, c_b), in the lower
        triangle.  Two of an edge's columns coincide only where the
        exterior's zero area column meets region 1's, so the one entry a
        coinciding pair sends to the diagonal, not two, is still exact."""
        N = self.border.shape[0]
        row, col = np.tril_indices(9)
        a, b = self.columns[:, row], self.columns[:, col]
        return (np.maximum(a, b) * N + np.minimum(a, b))[:, None, :]

    def _evaluate(self, sigma: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For a flat batch of sigmas: the counts below each, the ascending
        eigenvalues mu (k, N) of each Schur complement Z(sigma), and the pole
        counts #(Lambda < sigma).  One batched matmul for the lower triangles
        of the 9 x 9 edge terms, one ``bincount`` that scatters them into the
        lower triangles of the Schur complements and one batched ``eigvalsh``,
        which reads only those (the upper triangle keeps ``border``)."""
        s = sigma[:, None]
        k, N, J = s.shape[0], self.border.shape[0], self.junction_dofs
        inverse = 1.0 / (self.lam[:, None, :] - s)  # (e, k, m-1)
        local = inverse @ self.outer  # (e, k, 45)
        index = self.scatter + np.arange(k)[:, None] * (N * N)
        schur = self.border - np.bincount(
            index.ravel(), weights=local.ravel(), minlength=k * N * N
        ).reshape(k, N, N)
        # the first J diagonal entries, every N + 1 along a flattened Z
        schur.reshape(k, N * N)[:, : J * (N + 1) : N + 1] -= s
        mu = np.linalg.eigvalsh(schur)
        poles = np.searchsorted(self.lam_sorted, sigma)
        return poles + (mu < 0).sum(axis=1) - self.rank, mu, poles

    def count_below(self, sigma) -> np.ndarray:
        """Number of constrained eigenvalues below each sigma (any shape).
        Raises ``GeometryDomainError`` naming a sigma that is not finite or
        is an edge eigenvalue Lambda_j, a pole of Z."""
        sigma = np.asarray(sigma, dtype=float)
        flat = sigma.ravel()
        bad = flat[~np.isfinite(flat)]
        if bad.size:
            raise GeometryDomainError(f"sigma must be finite, got {float(bad[0])!r}")
        bad = flat[np.isin(flat, self.lam_sorted)]
        if bad.size:
            raise GeometryDomainError(f"sigma {float(bad[0])!r} is an edge eigenvalue, a pole of the Schur complement")
        return self._evaluate(flat)[0].reshape(sigma.shape)

    def smallest(self, k: int) -> np.ndarray:
        """The k smallest constrained eigenvalues, ascending, by spectrum
        slicing on the Schur evaluations that ``count_below`` makes; k is an
        integer from 0 to ``size``, or ``GeometryDomainError`` is raised.

        Target t (the t-th eigenvalue, from 0) keeps a bracket [lo_t, hi_t]
        with count(lo_t) <= t < count(hi_t); it starts at [-bound, bound],
        where interlacing keeps the spectrum.  Every evaluated sigma narrows
        every bracket: hi_t becomes the least evaluated sigma inside it whose
        count exceeds t, then lo_t the greatest one below hi_t whose count
        does not, so a bracket never inverts, even where the count is not
        monotone.  The first batch is -``HESSIAN_ZERO`` and +``HESSIAN_ZERO``
        (= 1; ``stability_report`` puts its verdict probes there, read
        against the extent) and the unit-frame ladder ``SLICE_LADDER``
        (-4, 4, 16, 64), so the search starts at the unit scale of the
        eigenvalues, not at the bound, which is m^2 times larger or more,
        and most brackets have both ends after one batch.
        Then each round, every open target proposes one sigma, and proposals
        closer than w (below) are evaluated once, so the two targets of a
        double eigenvalue, whose points differ in the last bits, share one
        sigma:

        * while an end is still at the bound (an eigenvalue beyond the
          ladder), the other end doubled;
        * inside a pole-free bracket (the same pole count p at both ends)
          that has halved in the last three rounds, a zero of
          g_t(sigma) = mu_(t + rank - p)(Z(sigma)), which is continuous and
          non-increasing there, >= 0 at lo_t and < 0 at hi_t (see
          ``EliminatedHessian``): the inverse-quadratic point (Brent's)
          through lo_t, hi_t and the end last replaced, if that one has p
          poles too and the point lands strictly inside the bracket;
        * otherwise the midpoint.  (A stall of two rounds, not three, takes
          219 batches and 655 sigmas on ``test_evaluation_budget``'s 16
          reports, against 216 and 648.)

        Proposals are clipped to [lo_t + w/2, hi_t - w/2], and a target closes
        when hi_t - lo_t <= w = 2 * bound * 2^-53, the width that 53 halvings
        of [-bound, bound] reach; it reports the midpoint.  On the presets
        at m = 64 and 128, six targets take 7 to 19 batches and 20 to 70
        sigmas.
        """
        k = _size("k", k, 0)
        if k > self.size:
            raise GeometryDomainError(f"k must be at most the size {self.size}, got {k}")
        return self._slice(k, HESSIAN_ZERO).eigenvalues

    def _slice(self, k: int, probe: float) -> _Slice:
        """``smallest``'s search with the verdict probes -probe and +probe in
        its first batch, which also returns the counts and Schur eigenvalues
        there and how many evaluations it made.
        The bookkeeping is plain Python: on at most six targets, a numpy
        call costs more than the arithmetic it does.  Each end keeps its g_t
        and pole count, for the inverse-quadratic point."""
        bound, rank, top = self.bound, self.rank, self.border.shape[0] - 1
        w = 2.0 * bound * 2.0**-53
        lo, hi = [-bound] * k, [bound] * k
        glo, ghi = [0.0] * k, [0.0] * k  # g_t at the ends
        prev = [(0.0, 0.0, -3)] * k  # the end last replaced: sigma, g_t, pole count
        # pole counts at the ends, unequal until both ends are evaluated
        plo, phi = [-1] * k, [-2] * k
        before = [(math.inf,) * 3] * k  # widths one, two and three rounds ago
        sigma = sorted({-probe, probe, *SLICE_LADDER})
        probes = None
        batches = total = 0
        while sigma:
            count, mu, poles = self._evaluate(np.array(sigma))
            if probes is None:
                at = [sigma.index(-probe), sigma.index(probe)]
                probes = count[at], mu[at]
            batches, total = batches + 1, total + len(sigma)
            rows = list(zip(sigma, count.tolist(), poles.tolist(), mu.tolist()))
            proposals = []
            for t in range(k):
                # hi_t: the least sigma inside whose count exceeds t; then
                # lo_t: the greatest inside the new bracket whose count does not
                for s, c, p, z in rows:
                    if c > t and lo[t] < s < hi[t]:
                        prev[t] = (hi[t], ghi[t], phi[t])
                        hi[t], ghi[t], phi[t] = s, z[min(max(t + rank - p, 0), top)], p
                        break
                for s, c, p, z in reversed(rows):
                    if c <= t and lo[t] < s < hi[t]:
                        prev[t] = (lo[t], glo[t], plo[t])
                        lo[t], glo[t], plo[t] = s, z[min(max(t + rank - p, 0), top)], p
                        break

                width = hi[t] - lo[t]
                stalled = plo[t] != phi[t] or width > 0.5 * before[t][2]
                before[t] = (width, *before[t][:2])
                if width <= w:
                    continue
                x = lo[t] + 0.5 * width
                # inside a pole-free bracket, the inverse quadratic point
                # through both ends and the end last replaced, if it lands
                # strictly inside
                if not stalled and prev[t][2] == plo[t]:
                    q = _inverse_quadratic(prev[t][:2], (lo[t], glo[t]), (hi[t], ghi[t]))
                    if lo[t] < q < hi[t]:
                        x = q
                # an end still at the bound was never evaluated: grow the other
                if hi[t] == bound:
                    x = 2.0 * lo[t]
                if lo[t] == -bound:
                    x = 2.0 * hi[t]
                proposals.append(min(max(x, lo[t] + 0.5 * w), hi[t] - 0.5 * w))
            # proposals closer than w are one sigma: a degenerate pair's
            # points differ only in the last few bits
            sigma = []
            for x in sorted(proposals):
                if not sigma or x - sigma[-1] >= w:
                    sigma.append(x)
        return _Slice(0.5 * (np.array(lo) + np.array(hi)), *probes, (batches, total))


def _inverse_quadratic(a: Tuple[float, float], b: Tuple[float, float], c: Tuple[float, float]) -> float:
    """Brent's inverse quadratic interpolation: sigma at g = 0 on the
    quadratic sigma(g) through three points (sigma, g), or nan unless their
    g are distinct.  Newton's divided differences divide by differences of
    distinct g only, and start from the point of least |g|, so the
    corrections, and their roundoff, are smallest."""
    (x0, g0), (x1, g1), (x2, g2) = sorted((a, b, c), key=lambda p: abs(p[1]))
    if g0 == g1 or g1 == g2 or g0 == g2:
        return math.nan
    d01, d12 = (x1 - x0) / (g1 - g0), (x2 - x1) / (g2 - g1)
    return x0 - g0 * d01 + g0 * g1 * (d12 - d01) / (g2 - g0)


def eliminated_hessian(cluster: Cluster, m: int = 64) -> EliminatedHessian:
    """The discretized second variation at fixed areas, with each edge's
    interior block eliminated (see ``EliminatedHessian``).

    The energy perimeter - sum(p_i * area_i) is taken exactly (its length
    part and its quadratic area part) on the polyline discretization, in the
    D = 2v + e(m-1) reduced coordinates: full motion (1, i) at junctions and
    motion along the normal n at interior samples, so tangential
    reparametrizations are quotiented away.  The lumped segment mass M is
    diagonal there; on the orthogonal complement of the M^(-1/2)-scaled
    rigid-motion and area-gradient rows, the eigenvalues of
    M^(-1/2) H M^(-1/2) are those of the mass pencil on the admissible
    motions, and approximate the continuum second-variation spectrum.

    Uniform sampling makes every entry closed form per edge.  With
    h = phi / m and kappa = p_L - p_R, each segment has the length
    l = c sinc(h) / (m sinc(phi)) and turns the normal by 2h, so it adds
    cos(h)^2 / l on its two normals and -kappa sin(2h) / 2 between them.
    With the sample mass l, the edge block is Toeplitz, with the diagonal
    a = 2 cos(h)^2 / l^2 and the off-diagonal
    b = -(cos(h)^2 / l + kappa sin(2h) / 2) / l.  A junction's mass mu is
    half the lengths of its end segments, and an end segment of unit normal
    nu adds nu nu^T / (l mu) to its junction's 2 x 2 block and couples the
    junction to the nearest sample, of normal n, by
    (-cos(h) nu / l +- i kappa n / 2) / sqrt(l mu), + at the tail and - at
    the head.  Neither a D x D array nor a per-segment one is formed.

    Takes a unit-frame cluster (``Cluster.unit()``); raises
    ``GeometryDomainError`` unless the constraint rows have rank n + 3.
    """
    disc = discretize(cluster, m)
    m, press = disc.m, pressures(cluster)
    v, e, n, J = cluster.v, cluster.e, cluster.n, 2 * cluster.v
    ends, labels, S = cluster.topology.ends, cluster.topology.labels, cluster.topology.incidence
    kappa = press[labels[:, 0]] - press[labels[:, 1]]
    h = cluster.phis / m
    cos = np.cos(h)
    ell = cluster.chords * np.sinc(h / math.pi) / (m * np.sinc(cluster.phis / math.pi))

    # each edge's interior block is tridiagonal Toeplitz; its eigenpairs are
    # a + 2 b cos(k pi / m) and the columns of the symmetric orthogonal sine
    # matrix S, the same for every edge
    a = 2.0 * cos**2 / ell**2
    b = -(cos**2 / ell + 0.5 * kappa * np.sin(2.0 * h)) / ell
    lam = a[:, None] + 2.0 * b[:, None] * np.cos(np.arange(1, m) * np.pi / m)

    # per edge end (tail, head), in x and y: the end segment's normal nu,
    # its junction block and its coupling to the nearest sample
    near = disc.normals[:, [0, -1]]
    nu = near * np.exp(1j * np.outer(h, [-1.0, 1.0]))
    mu = 0.5 * np.bincount(ends.ravel(), weights=np.repeat(ell, 2), minlength=v)
    lmu = ell[:, None] * mu[ends]
    link = (0.5j * kappa[:, None] * near * [1.0, -1.0] - cos[:, None] * nu / ell[:, None]) / np.sqrt(lmu)
    link, nu = np.stack([link.real, link.imag], axis=-1), np.stack([nu.real, nu.imag], axis=-1)
    own = nu[..., :, None] * nu[..., None, :] / lmu[..., None, None]
    HJJ = np.zeros((v, 2, 2))
    np.add.at(HJJ, ends, own)

    # Gershgorin: the row sums of |entries| inside an edge, next to a
    # junction, and at a junction, summed over its ends
    at_junction = np.zeros((v, 2))
    np.add.at(at_junction, ends, np.abs(own).sum(axis=-1) + np.abs(link))
    beside = np.abs(b) + np.abs(link).sum(axis=-1).max(axis=1)
    bound = float(max((a + np.maximum(2.0 * np.abs(b), beside)).max(), at_junction.max()))

    # constraint rows, each a complex gradient d/dx + i d/dy read along the
    # dofs, over the square root of their mass: area gradients, translations
    # and the rotation about the centroid of all polyline points.  Along a
    # sample's normal the area gradient is -l cos(h) S; a junction gets S
    # times -i p_1 / 2 per tail and i p_(m-1) / 2 per head end
    pts, index, normals = disc.points, disc.point_index, disc.normals
    spin = 1j * (pts - pts.mean())
    samples = np.broadcast_to((S * -(ell * cos))[:, :, None], (n, e, m - 1))
    moves = np.stack([normals.real, normals.imag, (normals.conj() * spin[index[:, 1:-1]]).real])
    inner = np.concatenate([samples, moves]) / np.sqrt(ell)[:, None]
    tip = np.zeros((e, v), dtype=complex)
    np.add.at(tip, (np.arange(e)[:, None], ends), 0.5j * pts[index[:, [1, -2]]] * [-1.0, 1.0])
    junction = np.vstack([S @ tip, np.ones(v), np.full(v, 1j), spin[:v]]) / np.sqrt(mu)
    junction = np.stack([junction.real, junction.imag], axis=-1).reshape(n + 3, J)
    C = np.hstack([junction, inner.reshape(n + 3, -1)])
    # each row gets the norm m^2 of the junction block; the SVD reads the rank
    C *= m**2 / np.linalg.norm(C, axis=1)[:, None]
    s = np.linalg.svd(C, compute_uv=False)
    rank = int((s > CONSTRAINT_RANK_REL * s[0]).sum())
    if rank < n + 3:
        raise GeometryDomainError(f"area and rigid-motion constraints have rank {rank}, expected {n + 3}")

    # each edge's nine border columns: its end junctions' x and y (coupled to
    # its first and last sample only), the area rows of its left and right
    # regions (region r is row r - 1; the exterior has none, so its column is
    # zero) and the three rigid motions
    side = labels - 1
    interior = C[:, J:].reshape(n + 3, e, m - 1)
    G = np.zeros((e, m - 1, 4))
    G[:, 0, :2], G[:, -1, 2:] = link[:, 0], link[:, 1]
    area = interior[np.maximum(side, 0), np.arange(e)[:, None]] * (side >= 0)[:, :, None]
    B = np.concatenate([G, area.transpose(0, 2, 1), interior[n:].transpose(1, 2, 0)], axis=2)
    columns = np.hstack(
        [(2 * ends[:, :, None] + [0, 1]).reshape(e, 4), J + np.maximum(side, 0),
         np.broadcast_to(J + n + np.arange(3), (e, 3))]
    )
    border = np.zeros((J + rank, J + rank))
    dof = np.arange(J).reshape(v, 2)
    border[dof[:, :, None], dof[:, None, :]] = HJJ
    border[:J, J:], border[J:, :J] = C[:, :J].T, C[:, :J]
    return EliminatedHessian(lam, _sine_basis(m) @ B, columns, border, J, rank, bound)


@lru_cache(maxsize=4)
def _sine_basis(m: int) -> np.ndarray:
    """The (m-1) x (m-1) sine matrix S_ik = sqrt(2 / m) sin(i k pi / m),
    i, k = 1..m-1, built once per m and read-only."""
    k = np.arange(1, m)
    S = np.sqrt(2.0 / m) * np.sin(np.outer(k, k) * np.pi / m)
    S.flags.writeable = False
    return S


#: A verdict count is ambiguous when, at either probe, Z(sigma) has an
#: eigenvalue below SCHUR_ROUNDOFF * N * max|mu| in size, with N the size of
#: Z: that is ``eigvalsh``'s error bound, so the sign of such an eigenvalue,
#: and with it the count, is roundoff.
SCHUR_ROUNDOFF = np.finfo(float).eps


def stability_report(cluster: Cluster, m: int = 64) -> HessianReport:
    """Inertia of the discretized second variation at fixed areas.

    The verdict is an inertia count, not a spectrum, on ``cluster.unit()``
    (eigenvalues are mass-normalized, so lambda * diameter^2 is the
    scale-invariant quantity): the counts below -tau and +tau, where
    tau = ``HESSIAN_ZERO`` * (diameter / extent)^2 in the unit frame, give
    the negative and zero-mode counts.  The band is read against ``Cluster.extent()``, the
    arcs' bounding box, not the vertex span: a small bubble on a large one
    has its vertices close together, and the large arcs' modes would fall
    inside a band read against the vertices.  The probes are in the first
    batch of the spectrum slicing (``EliminatedHessian._slice``) that
    finds the smallest six constrained eigenvalues, which the report carries
    in the cluster's units, to within 2 * bound * 2^-53 of the unit frame.
    ``evaluations`` counts the batched Schur evaluations and their sigmas,
    ``ambiguous`` flags a count that rests on a Schur eigenvalue below
    ``SCHUR_ROUNDOFF`` * N * max|mu|, and ``assembly_s`` and ``slicing_s``
    are the wall seconds of ``eliminated_hessian`` and of the slicing.  See
    ``eliminated_hessian`` for the discretization; ``m``, the segments per
    edge, is an integer of at least 8, or ``GeometryDomainError`` is raised.

    Every mode with |lambda| * extent^2 < ``HESSIAN_ZERO`` counts as a
    zero mode, whatever its sign: a real instability that small is reported
    as ``Degenerate``, not ``Unstable`` (necklace(7) with its chamber
    pressure at -0.02 says ``Degenerate(4)``).
    """
    start = time.perf_counter()
    pressures(cluster)  # undefined pressures raise here, as measured in the cluster's own frame
    unit = cluster.unit()
    hess = eliminated_hessian(unit, m)
    assembled = time.perf_counter()
    found = hess._slice(min(6, hess.size), HESSIAN_ZERO / unit.extent() ** 2)
    sliced = time.perf_counter()
    below_neg, below_pos = found.probe_counts.tolist()
    negative, zero = below_neg, below_pos - below_neg
    if negative > 0:
        label = f"Unstable({negative})"
    elif zero > 0:
        label = f"Degenerate({zero})"
    else:
        label = "StrictlyStable"
    mu = np.abs(found.probe_mu)
    floor = SCHUR_ROUNDOFF * mu.shape[1] * mu.max(axis=1)
    return HessianReport(
        eigenvalues=found.eigenvalues / cluster.diameter() ** 2,
        zero_mode_count=zero,
        classification=label,
        m=int(m),
        rank=hess.rank,
        evaluations=found.evaluations,
        ambiguous=bool((mu.min(axis=1) < floor).any()),
        assembly_s=assembled - start,
        slicing_s=sliced - assembled,
    )


# ---------------------------------------------------------------------------
# continuation


def continue_family(
    cluster: Cluster,
    target: Sequence[float],
    steps: int = 10,
    max_iter: int = 100,
) -> List[Cluster]:
    """Path of equilibria from the cluster's areas to the target areas.

    Step k re-solves the area target interpolated linearly k/``steps`` of
    the way, each :func:`solve` within ``max_iter`` iterations.  Step 1
    starts from the cluster; every later step starts at the secant
    prediction x_k + (x_k - x_{k-1}) from the charts of the last two path
    points, and, where that start raises :class:`TopologyBreakdown` or
    :class:`NonConvergence`, is solved again from x_k.  Returns the full
    path including the start.  ``target`` is checked as :func:`solve`
    checks it, before the first step, and ``steps`` is an integer of at
    least 1, or ``GeometryDomainError`` is raised.
    """
    steps = _size("steps", steps, 1)
    target = _target_areas(cluster, target)
    start = region_areas(cluster)
    path = [cluster]
    for k in range(1, steps + 1):
        t = k / steps
        areas = (1 - t) * start + t * target
        if k > 1:
            predicted = path[-1].with_chart(2.0 * path[-1].chart() - path[-2].chart())
            try:
                path.append(solve(predicted, areas, max_iter))
                continue
            except (TopologyBreakdown, NonConvergence):
                pass
        path.append(solve(path[-1], areas, max_iter))
    return path
