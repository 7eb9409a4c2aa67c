"""Spans around foamlab's layer boundaries, installed from outside the package.

``install`` wraps every function named in ``TRACED`` and rebinds each
``foamlab.*`` module attribute that refers to it, so that calls made through
``from .geometry import arc_tangent`` style imports are seen as well.  The two
``Cluster`` methods are wrapped on the class, and the dense kernels on their
``numpy.linalg`` / ``scipy.linalg`` attributes, which is how foamlab calls
them.  ``uninstall`` puts every original object back.

Spans are kept in memory as parallel arrays (name, start, end, parent, task,
failed) and written once when the run ends.  Self time is a span's duration
minus the time covered by its direct children; spans recorded from one
thread nest strictly, so the children of one span never overlap and the
covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Dict, List, Tuple

import numpy as np

# (metric prefix, module that defines the object, attribute path)
TRACED: Tuple[Tuple[str, str, str], ...] = (
    ("geometry.bulge_angle_from_area", "foamlab.geometry", "bulge_angle_from_area"),
    ("geometry.arc_tangent", "foamlab.geometry", "arc_tangent"),
    ("geometry.arc_point", "foamlab.geometry", "arc_point"),
    ("geometry.second_intersection", "foamlab.geometry", "second_intersection"),
    ("cluster.with_chart", "foamlab.cluster", "Cluster.with_chart"),
    ("cluster.next_half_edge", "foamlab.cluster", "Cluster.next_half_edge"),
    ("cluster.region_areas", "foamlab.cluster", "region_areas"),
    ("cluster.area_jacobian", "foamlab.cluster", "area_jacobian"),
    ("cluster.loads", "foamlab.cluster", "loads"),
    ("cluster.dumps", "foamlab.cluster", "dumps"),
    ("cluster.validate", "foamlab.cluster", "validate"),
    ("cluster.to_svg", "foamlab.cluster", "to_svg"),
    ("equilibrium.solve", "foamlab.equilibrium", "solve"),
    ("equilibrium.residuals", "foamlab.equilibrium", "residuals"),
    ("equilibrium.numeric_jacobian", "foamlab.equilibrium", "numeric_jacobian"),
    ("equilibrium.lm_minimize", "foamlab.equilibrium", "lm_minimize"),
    ("equilibrium.classify", "foamlab.equilibrium", "classify"),
    ("equilibrium.pressures", "foamlab.equilibrium", "pressures"),
    ("variation.stability_report", "foamlab.variation", "stability_report"),
    ("variation.discretize", "foamlab.variation", "discretize"),
    ("variation.tangent_dimension", "foamlab.variation", "tangent_dimension"),
    ("variation.continue_family", "foamlab.variation", "continue_family"),
    ("constructions.random_mobius", "foamlab.constructions", "random_mobius"),
    ("constructions.mobius_apply_cluster", "foamlab.constructions", "mobius_apply_cluster"),
    ("constructions.decorate", "foamlab.constructions", "decorate"),
    ("desitter.verify_correspondence", "foamlab.desitter", "verify_correspondence"),
    ("cli.run", "foamlab.cli", "run"),
    ("linalg.eigh", "scipy.linalg", "eigh"),
    ("linalg.svd", "numpy.linalg", "svd"),
    ("linalg.lstsq", "numpy.linalg", "lstsq"),
)

NO_PARENT = -1


class Recorder:
    """In-memory span store; one instance per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.failed = array("b")
        self._stack: List[int] = []
        self.task_id = NO_PARENT

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else NO_PARENT)
            self.task.append(self.task_id)
            self.end.append(0.0)
            self.failed.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.name)

    def write(self, path) -> None:
        """Store the spans as one compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            task=np.frombuffer(self.task, dtype=np.int32),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(recorder: Recorder) -> List[Tuple[object, str, object]]:
    """Wrap every ``TRACED`` target; returns the undo list for ``uninstall``."""
    undo: List[Tuple[object, str, object]] = []
    for name, module, path in TRACED:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapper = recorder.wrap(name, original)
        if isinstance(owner, type) or not module.startswith("foamlab"):
            targets = [owner]
        else:
            targets = [
                mod
                for key, mod in list(sys.modules.items())
                if key == "foamlab" or key.startswith("foamlab.")
            ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    undo.append((target, key, original))
                    setattr(target, key, wrapper)
    return undo


def uninstall(undo: List[Tuple[object, str, object]]) -> None:
    for target, key, original in reversed(undo):
        setattr(target, key, original)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(start, end, parent):
    """Per-span self time: duration minus the summed duration of its children.

    ``start``, ``end`` and ``parent`` are equal-length sequences; ``parent``
    holds the index of the enclosing span or ``NO_PARENT``.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    has_parent = parent != NO_PARENT
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def under(name, parent, ancestor):
    """Mask of spans that have an ancestor span whose name id is ``ancestor``."""
    name = np.asarray(name)
    parent = np.asarray(parent, dtype=np.int64)
    found = np.zeros(name.size, dtype=bool)
    cur = parent.copy()
    while True:
        live = cur != NO_PARENT
        if not live.any():
            return found
        found[live] |= name[cur[live]] == ancestor
        cur[live] = parent[cur[live]]


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(rec: Recorder, passes: int, tasks) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the recorded spans, per pass over the task list.

    A ratio whose denominator is zero on a workload (the layer does no work
    there) is reported as 0.  Size metrics come from the task list: the
    largest discretization (P points, D dofs) and the dense bytes its
    assembly holds, 8 B x (4P^2 + 2PD + 2D^2), which is computed from the
    sizes, not measured.
    """
    name = np.frombuffer(rec.name, dtype=np.int32)
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    own = self_times(rec.start, rec.end, parent)
    ids = {n: rec.intern(n) for n, _, _ in TRACED}
    mask = {n: name == i for n, i in ids.items()}
    calls = {n: int(m.sum()) for n, m in mask.items()}

    out: Dict[str, Tuple[float, str]] = {}
    for n, m in mask.items():
        out[f"{n}.calls"] = (calls[n] / passes, "count")
        out[f"{n}.self_s"] = (float(own[m].sum()) / passes, "s")
    failed = np.frombuffer(rec.failed, dtype=np.int8)
    out["equilibrium.solve.failed"] = (int(failed[mask["equilibrium.solve"]].sum()) / passes, "count")

    residual = mask["equilibrium.residuals"]
    jacobian = mask["equilibrium.numeric_jacobian"]
    in_jacobian = under(name, parent, ids["equilibrium.numeric_jacobian"])
    in_lm = under(name, parent, ids["equilibrium.lm_minimize"])
    in_solve = under(name, parent, ids["equilibrium.solve"])
    # one Jacobian per LM iteration; each lm_minimize call evaluates once
    # before its first iteration, every other evaluation outside a Jacobian
    # is a trial step
    iterations = int((jacobian & in_lm).sum())
    trials = int((residual & in_lm & ~in_jacobian).sum()) - calls["equilibrium.lm_minimize"]
    out["geometry.phi_per_residual_eval"] = (
        _ratio(calls["geometry.bulge_angle_from_area"], calls["equilibrium.residuals"]),
        "ratio",
    )
    out["cluster.walk_steps_per_chart"] = (
        _ratio(calls["cluster.next_half_edge"], calls["cluster.with_chart"]),
        "ratio",
    )
    out["equilibrium.iterations_per_solve"] = (
        _ratio(int((jacobian & in_solve).sum()), calls["equilibrium.solve"]),
        "ratio",
    )
    out["equilibrium.evals_per_jacobian"] = (
        _ratio(int((residual & in_jacobian).sum()), calls["equilibrium.numeric_jacobian"]),
        "ratio",
    )
    out["equilibrium.lm_accept_ratio"] = (_ratio(iterations, trials), "ratio")

    discretized = [t.sizes for t in tasks if t.sizes["m"] is not None]
    P = max((s["P"] for s in discretized), default=0)
    D = max((s["D"] for s in discretized), default=0)
    out["variation.max_points_P"] = (P, "count")
    out["variation.max_dof_D"] = (D, "count")
    out["variation.dense_mb_computed"] = (8.0 * (4 * P * P + 2 * P * D + 2 * D * D) / 1e6, "MB")
    return out
