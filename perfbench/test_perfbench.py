"""Tests of the benchmark itself: verifiers, span arithmetic, wrapper hygiene,
and agreement between the metrics it prints and BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import foamlab as fl
import foamlab.cli
import run
import tracing
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def triple():
    return fl.triple_bubble()


# ---------------------------------------------------------------------------
# verifiers


def test_solve_verifier_accepts_an_exact_solution(triple):
    assert verify.solved(triple, fl.region_areas(triple), triple) is None


def test_solve_verifier_rejects_perturbed_areas(triple):
    target = fl.region_areas(triple) * (1.0 + 1e-6)
    assert "area error" in verify.solved(triple, target, triple)


def test_solve_verifier_rejects_a_perturbed_cluster(triple):
    x = triple.chart()
    x[-1] += 1e-3  # one bulge: areas move and the cocycle breaks
    moved = triple.with_chart(x)
    assert verify.solved(triple, fl.region_areas(triple), moved) is not None


def test_solve_verifier_rejects_a_changed_type(triple):
    other = fl.four_bubble()
    assert "v/e/n" in verify.solved(triple, fl.region_areas(other), other)


def test_stability_verifier_rejects_a_wrong_label():
    right = SimpleNamespace(classification="Degenerate(4)")
    wrong = SimpleNamespace(classification="StrictlyStable")
    assert verify.stability("necklace7", right) is None
    assert "expected Degenerate(4)" in verify.stability("necklace7", wrong)


def test_tangent_verifier_rejects_a_wrong_nullity_or_ambiguous_gap():
    ok = SimpleNamespace(nullity=1, ambiguous=False, gap_ratio=1e6)
    assert verify.tangent("two_lens", True, ok) is None
    assert "expected 4" in verify.tangent("two_lens", False, ok)
    assert "nullity" in verify.tangent("two_lens", True, SimpleNamespace(nullity=0, ambiguous=False))
    assert "ambiguous" in verify.tangent(
        "two_lens", True, SimpleNamespace(nullity=1, ambiguous=True, gap_ratio=3.0)
    )


def test_cli_verifier_follows_the_exit_code_contract(triple):
    text = fl.dumps(triple)
    assert verify.cli("render", "invalid", text, 0, "<svg") is not None
    assert verify.cli("render", "invalid", text, 2, "") is None
    assert verify.cli("check", "equilibrium", text, 7, "") is not None
    assert verify.cli("check", "quasi", text, 1, "") is None
    assert verify.cli("check", "equilibrium", text, 1, "") is not None


def test_cli_verifier_compares_pressures_with_the_library(triple):
    text = fl.dumps(triple)
    p = [float(x) for x in fl.pressures(triple)]
    assert verify.cli("pressures", "equilibrium", text, 0, json.dumps(p)) is None
    p[1] += 1e-6
    assert "pressure error" in verify.cli("pressures", "equilibrium", text, 0, json.dumps(p))


def test_cli_verifier_judges_image_verdicts_at_unit_scale():
    # a decorated double bubble shrunk 1000 times: foamlab.classify calls it
    # quasi only because of its absolute concurrency floor
    small = fl.mobius_apply_cluster(fl.MobiusMap.scaling(1e-3), fl.double_bubble(1.0, 0.6))
    decorated = fl.decorate(small, 0, 0.1)
    assert fl.classify(decorated) is fl.Verdict.QUASI_EQUILIBRIUM
    assert verify.unit_scale(decorated).diameter() == pytest.approx(1.0)
    assert verify.cli("decorate", "equilibrium", fl.dumps(small), 0, fl.dumps(decorated)) is None
    # a quasi-equilibrium of the right type is still no image of an equilibrium
    quasi = fl.dumps(fl.quasi_variant("two_lens_recurved"))
    assert "verdict" in verify.cli("mobius", "equilibrium", fl.dumps(fl.two_lens()), 0, quasi)


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_times_on_a_synthetic_span_tree():
    #  0 root [0, 10]
    #  1   a  [1, 4]
    #  2   b  [5, 9]
    #  3     c [6, 8]
    #  4 second root [20, 21]
    start = [0.0, 1.0, 5.0, 6.0, 20.0]
    end = [10.0, 4.0, 9.0, 8.0, 21.0]
    parent = [tracing.NO_PARENT, 0, 0, 2, tracing.NO_PARENT]
    own = tracing.self_times(start, end, parent)
    assert own == pytest.approx([3.0, 3.0, 2.0, 2.0, 1.0])
    # c lies under b and root; a and b under root only
    assert tracing.under([0, 1, 1, 2, 0], parent, 1).tolist() == [
        False, False, False, True, False
    ]


def test_recorder_nests_spans_and_flags_failures():
    rec = tracing.Recorder()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner = rec.wrap("inner", inner)
    outer = rec.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(2) == 4
    with pytest.raises(ValueError):
        outer(-1)
    names = [rec.names[i] for i in rec.name]
    assert names == ["outer", "inner", "inner", "outer", "inner"]
    assert list(rec.parent) == [tracing.NO_PARENT, 0, 0, tracing.NO_PARENT, 3]
    assert list(rec.failed) == [0, 0, 0, 1, 1]
    assert all(e >= s for s, e in zip(rec.start, rec.end))


# ---------------------------------------------------------------------------
# wrappers are installed only in the traced run


def test_install_rebinds_every_import_and_uninstall_restores(triple):
    originals = {
        "cluster": fl.cluster.arc_tangent,
        "package": fl.classify,
        "svd": np.linalg.svd,
        "method": fl.Cluster.__dict__["with_chart"],
    }
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        assert fl.cluster.arc_tangent is fl.variation.arc_tangent
        assert fl.cluster.arc_tangent is not originals["cluster"]
        assert fl.classify is fl.equilibrium.classify is fl.cli.classify
        assert fl.classify(triple) is fl.Verdict.EQUILIBRIUM
    finally:
        tracing.uninstall(undo)
    called = {rec.names[i] for i in rec.name}
    assert {"equilibrium.classify", "geometry.arc_tangent", "geometry.bulge_angle_from_area"} <= called
    assert fl.cluster.arc_tangent is originals["cluster"] is fl.geometry.arc_tangent
    assert fl.classify is originals["package"] is fl.equilibrium.classify
    assert np.linalg.svd is originals["svd"]
    assert fl.Cluster.__dict__["with_chart"] is originals["method"]
    for target, key, original in undo:
        assert getattr(target, key) is original


def test_untraced_process_sees_original_functions(triple):
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        fl.classify(triple)
    finally:
        tracing.uninstall(undo)
    code = (
        "import foamlab.cluster, foamlab.geometry, foamlab.variation;"
        "f = foamlab.geometry.arc_tangent;"
        "assert foamlab.cluster.arc_tangent is f is foamlab.variation.arc_tangent;"
        "assert not hasattr(f, '__wrapped__')"
    )
    env = {"PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# inputs and metric names


def test_cli_documents_are_seeded():
    a = [(n, k, fl.dumps(c)) for n, k, _, c in workloads.cli_documents(5)]
    b = [(n, k, fl.dumps(c)) for n, k, _, c in workloads.cli_documents(5)]
    c = [(n, k, fl.dumps(c)) for n, k, _, c in workloads.cli_documents(6)]
    assert a == b
    assert a != c
    kinds = [k for _, k, _ in a]
    assert kinds.count("invalid") == len(workloads.INVALID_PRESETS)
    assert kinds.count("quasi") == 2


def _benchmark_names(key):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[key]}


def test_end_to_end_metrics_match_benchmark_json():
    task = SimpleNamespace(id=0, label="t", preset="double", sizes={})
    passes = [[workloads.Outcome(task, 0.5)], [workloads.Outcome(task, 0.7)]]
    metrics, printed = run.end_to_end(passes, [1.0, 2.0, 3.0])
    assert {k: u for k, (_, u) in metrics.items()} == _benchmark_names("end_to_end")
    assert metrics["wall_s"][0] == pytest.approx(0.6)
    assert metrics["setup_s"][0] == 2.0
    assert printed["task_p50_ms"] == (pytest.approx(600.0), "ms")
    assert "task_p90_ms" not in printed  # too few samples


def test_layer_metrics_match_benchmark_json():
    metrics = tracing.layer_metrics(tracing.Recorder(), 1, [])
    metrics["trace.overhead_frac"] = (0.0, "ratio")
    assert {k: u for k, (_, u) in metrics.items()} == _benchmark_names("per_layer")


def test_solver_ratios_on_synthetic_spans():
    rec = tracing.Recorder()
    residual = rec.wrap("equilibrium.residuals", lambda: None)

    def jacobian_body():
        for _ in range(3):
            residual()

    jacobian = rec.wrap("equilibrium.numeric_jacobian", jacobian_body)

    def lm_body():
        residual()  # initial evaluation
        for _ in range(2):  # two iterations, the second needs two trials
            jacobian()
            residual()
        residual()

    lm = rec.wrap("equilibrium.lm_minimize", lm_body)
    rec.wrap("equilibrium.solve", lm)()
    m = tracing.layer_metrics(rec, 1, [])
    assert m["equilibrium.iterations_per_solve"][0] == 2.0
    assert m["equilibrium.evals_per_jacobian"][0] == 3.0
    assert m["equilibrium.lm_accept_ratio"][0] == pytest.approx(2 / 3)
    assert m["equilibrium.residuals.calls"][0] == 10.0
