"""Seeded task lists for the three workloads, and the closed loop that runs them.

Every workload is one process with one caller: the next task starts when
the previous one has returned.  ``build`` turns ``(workload, seed)`` into a
fixed task list; the program under test sees only the generated inputs.
Library tasks call through the ``foamlab`` module attributes at call time, so
that the traced run's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import foamlab as fl
import foamlab.cli
import verify

SOLVE_PRESETS = ("double", "triple", "four", "two_lens", "flower", "necklace6")
SOLVE_SPREAD = 0.05  # targets are areas * (1 + U(-0.05, 0.05))
CONTINUE_SPREAD = 0.20
CONTINUE_STEPS = 4
STABILITY_M = (64, 128)
INVALID_PRESETS = ("double", "triple")  # one seeded edge dropped from each
# Mobius images and decorations per preset; seeds differ in how much curved
# geometry they generate, and several draws average that out
DRAWS_PER_PRESET = 3


def presets() -> Dict[str, fl.Cluster]:
    return {
        "double": fl.double_bubble(1.0, 0.6),
        "triple": fl.triple_bubble(),
        "four": fl.four_bubble(),
        "two_lens": fl.two_lens(),
        "flower": fl.flower(),
        "necklace6": fl.necklace(6),
        "necklace7": fl.necklace(7),
    }


def sizes(c: fl.Cluster, m: Optional[int] = None) -> Dict[str, Optional[int]]:
    """n, v, e, chart dimension 2v + e (= 7(n-1) when valid), and for a
    discretization with m segments per edge its P points and D dofs."""
    out = {"n": c.n, "v": c.v, "e": c.e, "chart_dim": 2 * c.v + c.e, "m": m, "P": None, "D": None}
    if m is not None:
        out["P"] = c.v + c.e * (m - 1)
        out["D"] = 2 * c.v + c.e * (m - 1)
    return out


@dataclass
class Task:
    id: int
    label: str
    preset: str
    sizes: Dict[str, Optional[int]]
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    invalid_input: bool = False  # a structurally invalid document
    verified: Dict[tuple, Optional[str]] = field(default_factory=dict, repr=False)


# ---------------------------------------------------------------------------
# area_solve


def _area_solve(seed: int, workdir: Path) -> List[Task]:
    rng = np.random.default_rng(seed)
    base = presets()
    tasks: List[Task] = []
    for name in SOLVE_PRESETS:
        c = base[name]
        target = fl.region_areas(c) * (1.0 + rng.uniform(-SOLVE_SPREAD, SOLVE_SPREAD, c.n))
        tasks.append(
            Task(
                len(tasks), f"solve {name}", name, sizes(c),
                call=lambda c=c, t=target: fl.solve(c, t),
                check=lambda r, c=c, t=target: verify.solved(c, t, r),
            )
        )
    c = base["triple"]
    target = fl.region_areas(c) * (1.0 + rng.uniform(-CONTINUE_SPREAD, CONTINUE_SPREAD, c.n))
    tasks.append(
        Task(
            len(tasks), f"continue triple steps={CONTINUE_STEPS}", "triple", sizes(c),
            call=lambda: fl.continue_family(c, target, steps=CONTINUE_STEPS),
            check=lambda r: verify.continued(c, target, CONTINUE_STEPS, r),
        )
    )
    return tasks


# ---------------------------------------------------------------------------
# second_variation


def similarity(c: fl.Cluster, rng: np.random.Generator) -> fl.Cluster:
    """Seeded rotation, scaling and translation: labels and nullities hold."""
    centroid = sum(p.z for p in c.vertices) / c.v
    m = fl.MobiusMap.rotation(rng.uniform(0.0, 2.0 * math.pi), about=centroid)
    m = fl.MobiusMap.scaling(math.exp(rng.uniform(-0.5, 0.5))).compose(m)
    m = fl.MobiusMap.translation(complex(*rng.normal(0.0, 0.3 * c.diameter(), 2))).compose(m)
    return fl.mobius_apply_cluster(m, c)


def _second_variation(seed: int, workdir: Path) -> List[Task]:
    rng = np.random.default_rng(seed)
    moved = {name: similarity(c, rng) for name, c in presets().items()}
    tasks: List[Task] = []
    for m in STABILITY_M:
        for name, c in moved.items():
            tasks.append(
                Task(
                    len(tasks), f"stability {name} m={m}", name, sizes(c, m),
                    call=lambda c=c, m=m: fl.stability_report(c, m=m),
                    check=lambda r, name=name: verify.stability(name, r),
                )
            )
    for fix_areas in (True, False):
        for name, c in moved.items():
            tasks.append(
                Task(
                    len(tasks), f"tangent_dimension {name} fix_areas={fix_areas}", name, sizes(c),
                    call=lambda c=c, f=fix_areas: fl.tangent_dimension(c, fix_areas=f),
                    check=lambda r, name=name, f=fix_areas: verify.tangent(name, f, r),
                )
            )
    return tasks


# ---------------------------------------------------------------------------
# cli_inspect


def drop_edge(c: fl.Cluster, j: int) -> fl.Cluster:
    """Structurally invalid copy: edge ``j`` removed, everything else kept."""
    return fl.Cluster(c.vertices, c.edges[:j] + c.edges[j + 1 :], c.region_count, c.region_labels)


def admissible(draw: Callable[[], tuple], apply: Callable) -> tuple:
    """First parameters from ``draw`` on which ``apply`` raises no
    FoamlabError, with what ``apply`` returned for them.

    ``random_mobius`` refuses maps whose pole comes near the cluster and
    ``decorate`` refuses sizes that reach past a neighbouring vertex;
    redrawing keeps every generated input and CLI task a valid operation.
    """
    for _ in range(100):
        params = draw()
        try:
            return params, apply(*params)
        except fl.FoamlabError:
            continue
    raise RuntimeError("no admissible parameters in 100 draws")


def mobius_image(c: fl.Cluster, rng: np.random.Generator) -> tuple:
    """(seed, image): a ``random_mobius`` seed accepted on ``c``, and the image."""

    def apply(s):
        return fl.mobius_apply_cluster(fl.random_mobius(c, np.random.default_rng(s)), c)

    (s,), image = admissible(lambda: (int(rng.integers(1 << 30)),), apply)
    return s, image


def decoration(c: fl.Cluster, rng: np.random.Generator) -> tuple:
    """((vertex, size), decorated cluster) accepted by ``decorate`` on ``c``."""

    def draw():
        return int(rng.integers(c.v)), float(rng.uniform(0.05, 0.25))

    return admissible(draw, lambda v, size: fl.decorate(c, v, size))


def cli_documents(seed: int) -> List[tuple]:
    """(name, kind, preset, cluster) for every generated input document."""
    rng = np.random.default_rng(seed)
    base = presets()
    docs = [(f"preset_{name}", "equilibrium", name, c) for name, c in base.items()]
    for k in range(DRAWS_PER_PRESET):
        for name, c in base.items():
            docs.append((f"mobius{k}_{name}", "equilibrium", name, mobius_image(c, rng)[1]))
            docs.append((f"decorated{k}_{name}", "equilibrium", name, decoration(c, rng)[1]))
    for variant in ("two_lens_recurved", "four_stretched"):
        docs.append((f"quasi_{variant}", "quasi", variant, fl.quasi_variant(variant)))
    for name in INVALID_PRESETS:
        c = base[name]
        j = int(rng.integers(c.e))
        docs.append((f"invalid_{name}_drop{j}", "invalid", name, drop_edge(c, j)))
    return docs


def _cli_task(tid: int, argv: List[str], name: str, kind: str, preset: str, c, text: str) -> Task:
    verb = argv[0]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fl.cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    return Task(
        tid, f"cli {' '.join(argv[:-1])} {name}", preset, sizes(c),
        call=call,
        check=lambda r: verify.cli(verb, kind, text, r[0], r[1]),
        invalid_input=kind == "invalid",
    )


def _cli_inspect(seed: int, workdir: Path) -> List[Task]:
    rng = np.random.default_rng(seed + 1)  # argument draws; documents use ``seed``
    workdir.mkdir(parents=True, exist_ok=True)
    tasks: List[Task] = []
    for name, kind, preset, c in cli_documents(seed):
        text = fl.dumps(c)
        path = workdir / f"{name}.json"
        path.write_text(text)
        argvs = [
            ["check", str(path)],
            ["pressures", str(path)],
            ["desitter", "verify", str(path)],
            ["render", str(path)],
        ]
        if kind == "equilibrium":
            argvs.append(["mobius", "--random", "--seed", str(mobius_image(c, rng)[0]), str(path)])
            (vertex, size), _ = decoration(c, rng)
            argvs.append(["decorate", "--vertex", str(vertex), "--size", repr(size), str(path)])
        for argv in argvs:
            tasks.append(_cli_task(len(tasks), argv, name, kind, preset, c, text))
    return tasks


BUILDERS = {
    "area_solve": _area_solve,
    "second_variation": _second_variation,
    "cli_inspect": _cli_inspect,
}


def build(workload: str, seed: int, workdir: Path) -> List[Task]:
    return BUILDERS[workload](seed, workdir)


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Outcome:
    task: Task
    seconds: float
    result: object = None
    error: Optional[BaseException] = None


def run_pass(tasks: List[Task], recorder=None) -> List[Outcome]:
    """Run every task once, in order, timing each call on its own."""
    outcomes = []
    clock = time.perf_counter
    for task in tasks:
        if recorder is not None:
            recorder.task_id = task.id
        t0 = clock()
        try:
            result = task.call()
        except Exception as err:  # a failed task is recorded, the loop goes on
            outcomes.append(Outcome(task, clock() - t0, error=err))
        else:
            outcomes.append(Outcome(task, clock() - t0, result))
    return outcomes


def failure(outcome: Outcome) -> Optional[str]:
    """Why a task failed, or None; identical CLI results are judged once."""
    if outcome.error is not None:
        err = outcome.error
        return f"raised {type(err).__name__}: {err}"
    # CLI results are (exit code, stdout, stderr) and repeat exactly across passes
    key = outcome.result if isinstance(outcome.result, tuple) else None
    if key is not None and key in outcome.task.verified:
        return outcome.task.verified[key]
    reason = outcome.task.check(outcome.result)
    if key is not None:
        outcome.task.verified[key] = reason
    return reason
