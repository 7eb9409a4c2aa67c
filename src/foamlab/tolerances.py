"""Central tolerance policy.

Every SVD rank cut and residual threshold in the library is taken from one
of these policy objects so that tests and the CLI can tighten or loosen
everything coherently.  Every threshold is dimensionless, in the unit frame.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TolerancePolicy:
    # singular values below rank_rel * sigma_max count as zero
    rank_rel: float = 1e-6
    # required ratio between smallest kept and largest cut singular value;
    # spectra with a smaller gap are flagged ambiguous, never silently resolved
    rank_gap_factor: float = 100.0
    # sup-norm threshold on the angle sums and the relative curvature sums
    residual_tol: float = 1e-9
    # threshold on the relative pressure defect (see equilibrium.pressures)
    pressure_defect_rel: float = 1e-6
    # zero-mode cutoff on Hessian eigenvalues (lambda * diam^2): any mode
    # with |lambda| * diam^2 below it counts as a zero mode, whatever its
    # sign, so small real negative modes are reported as Degenerate too
    hessian_zero_scaled: float = 1.0


DEFAULT = TolerancePolicy()
STRICT = TolerancePolicy(residual_tol=1e-11, rank_rel=1e-8)
LOOSE = TolerancePolicy(residual_tol=1e-6, rank_rel=1e-4)

PROFILES = {"default": DEFAULT, "strict": STRICT, "loose": LOOSE}
