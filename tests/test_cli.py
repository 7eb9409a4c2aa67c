import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foamlab as fl
from foamlab import cli, equilibrium, variation
from foamlab.cli import run
from foamlab.variation import eliminated_hessian

from conftest import tiny_decorated_image


def read(path):
    return path.read_text()


def _with_edges(c, edges):
    """The cluster ``c`` with its edge rows replaced by ``edges``; row j is
    edge j."""
    return fl.Cluster(c.vertices, tuple(edges), c.region_count, c.region_labels)


def dropped_edge_document(tmp_path):
    """Path of a double bubble document with edge 0 removed and the other
    two renumbered 0 and 1."""
    c = fl.double_bubble(1.0, 0.6)
    edges = tuple(replace(ed, id=j) for j, ed in enumerate(c.edges[1:]))
    dropped = fl.Cluster(c.vertices, edges, c.region_count, c.region_labels)
    bad = tmp_path / "bad.json"
    bad.write_text(fl.dumps(dropped))
    return str(bad)


def swapped_labels_document(tmp_path):
    """Path of a triple bubble document with edge 3's left and right swapped."""
    c = fl.triple_bubble()
    edges = list(c.edges)
    edges[3] = replace(edges[3], left=edges[3].right, right=edges[3].left)
    bad = tmp_path / "swapped.json"
    bad.write_text(fl.dumps(_with_edges(c, edges)))
    return str(bad)


# every verb that reads a document, with the arguments it needs on a triple bubble
READING_VERBS = [
    ["pressures"],
    ["dim"],
    ["stability", "--m", "8"],
    ["render"],
    ["mobius", "--scale", "2"],
    ["decorate", "--vertex", "0", "--size", "0.1"],
    ["shrink", "--region", "1", "--factor", "0.5"],
    ["desitter", "verify"],
    ["solve", "--areas", "1,1,1"],
    ["continue", "--areas", "1,1,1", "--steps", "1"],
]


# the verbs among them that write a cluster
WRITING_VERBS = [
    v for v in READING_VERBS if v[0] in ("mobius", "decorate", "shrink", "solve", "continue")
]

# each would write a cluster that ``validate`` rejects, or one whose areas
# overflow; argv, and the start of its error message: the library refuses
# the Mobius images and the double bubble
INVALID_RESULTS = {
    "far_translation": (
        ["mobius", "--translate", "1e17,0", "triple.json"], "invalid cluster: edge_chords: degenerate edges [3]"
    ),
    "tiny_scale": (
        ["mobius", "--scale", "1e-170", "triple.json"], "invalid cluster: positive_areas: areas [0.0, 0.0, 0.0]"
    ),
    "huge_scale": (["mobius", "--scale", "1e170", "triple.json"], "Mobius image has points beyond 1e+140"),
    "tiny_double": (["new", "double", "--r1", "1e-300", "--r2", "1"], "radii 1e-300 and 1 must be positive"),
}


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def run_script(argv):
    """``python -m foamlab.cli argv`` in a fresh interpreter, so stderr
    shows what an uncaught exception would print."""
    src = str(Path(fl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "foamlab.cli", *argv], env=env, capture_output=True, text=True
    )


def with_input(verb, path):
    """``verb`` with the document path after its positional arguments."""
    head = 2 if verb[0] == "desitter" else 1
    return verb[:head] + [path] + verb[head:]


class TestNewAndCheck:
    def test_double_round_trip(self, tmp_path, capsys):
        out = tmp_path / "db.json"
        assert run(["new", "double", "--r1", "1", "--r2", "0.5", "-o", str(out)]) == 0
        assert run(["check", str(out)]) == 0
        assert "Equilibrium" in capsys.readouterr().out

    def test_missing_input_is_exit_2(self, tmp_path):
        assert run(["check", str(tmp_path / "missing.json")]) == 2

    def test_corrupt_input_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert run(["check", str(bad)]) == 2

    def test_quasi_check_fails(self, tmp_path):
        out = tmp_path / "q.json"
        assert run(["new", "quasi", "--kind", "four_stretched", "-o", str(out)]) == 0
        assert run(["check", str(out)]) == 1

    @pytest.mark.parametrize("amount", ["1e-9", "1e-8", "1e-7", "1e-6"])
    def test_slightly_stretched_check_and_pressures_both_fail(self, tmp_path, amount):
        out = tmp_path / "q.json"
        argv = ["new", "quasi", "--kind", "four_stretched", "--amount", amount, "-o", str(out)]
        assert run(argv) == 0
        assert run_quietly(["check", str(out)])[0] == 1
        assert run_quietly(["pressures", str(out)])[0] == 1

    @pytest.mark.parametrize("kind", ["two_lens_recurved", "four_stretched"])
    @pytest.mark.parametrize("amount", ["nan", "inf"])
    def test_non_finite_quasi_amount_is_exit_2(self, kind, amount):
        assert run_quietly(["new", "quasi", "--kind", kind, "--amount", amount])[0] == 2

    def test_invalid_cluster_check_is_exit_1(self, tmp_path, capsys):
        assert run(["check", dropped_edge_document(tmp_path)]) == 1
        assert capsys.readouterr().out.startswith("Invalid: ")
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({
            "version": 1, "vertices": [], "edges": [], "exterior": 0,
            "regions": [{"id": 0}, {"id": 1}, {"id": 2}],
        }))
        assert run(["check", str(empty)]) == 1
        assert capsys.readouterr().out.startswith("Invalid: ")

    def test_check_refuses_an_area_below_the_normal_range(self, tmp_path, capsys):
        # the triple bubble at 1e-155: its areas of 1e-310 are subnormal
        c = fl.triple_bubble((1, 1, 1))
        doc = tmp_path / "tiny.json"
        doc.write_text(fl.dumps(c.with_chart(c.chart() * np.repeat([1e-155, 1.0], [2 * c.v, c.e]))))
        assert run(["check", str(doc)]) == 1
        assert capsys.readouterr().out.startswith("Invalid: positive_areas: areas [")

    @pytest.mark.parametrize("verb", [["pressures"], ["desitter", "verify"], ["render"]])
    def test_invalid_cluster_is_exit_2(self, tmp_path, verb):
        # the two vertices left have degree 2: not a triple junction
        assert run(verb + [dropped_edge_document(tmp_path)]) == 2

    @pytest.mark.parametrize("document", [dropped_edge_document, swapped_labels_document])
    def test_every_verb_rejects_a_structurally_invalid_document(self, tmp_path, document):
        path = document(tmp_path)
        code, out = run_quietly(["check", path])
        assert code == 1 and out.startswith("Invalid: ") and "topology: " in out
        for verb in READING_VERBS:
            assert run_quietly(with_input(verb, path))[0] == 2, verb

    def test_repeated_vertex_id_is_exit_2(self, tmp_path):
        doc = fl.cluster.to_json_dict(fl.triple_bubble())
        doc["vertices"].append(dict(doc["vertices"][1], x=5.0))
        bad = tmp_path / "repeat.json"
        bad.write_text(json.dumps(doc))
        assert run_quietly(["check", str(bad)])[0] == 2

    @pytest.mark.parametrize(
        "path, value",
        [(("vertices", 0), 5), (("edges",), 5), (("edges", 0, "tail"), None)],
        ids=["vertex_entry_number", "edges_number", "tail_null"],
    )
    def test_malformed_entry_is_exit_2_without_traceback(self, tmp_path, path, value):
        doc = fl.cluster.to_json_dict(fl.triple_bubble())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(doc))
        out = run_script(["check", str(bad)])
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr

    def test_non_finite_bulge_check_is_exit_1(self, tmp_path, capsys):
        doc = fl.cluster.to_json_dict(fl.triple_bubble())
        doc["edges"][2]["bulge"] = math.nan
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert "NaN" in bad.read_text()
        assert run(["check", str(bad)]) == 1
        assert capsys.readouterr().out.startswith("Invalid: finite_chart: ")

    def test_check_sums_the_residuals_once(self, tmp_path, monkeypatch, capsys):
        t = tmp_path / "t.json"
        run(["new", "triple", "-o", str(t)])
        calls = []

        def counted(c):
            calls.append(c)
            return fl.residuals(c)

        monkeypatch.setattr(equilibrium, "residuals", counted)
        monkeypatch.setattr(cli, "residuals", counted)
        capsys.readouterr()
        assert run(["check", str(t)]) == 0
        assert len(calls) == 1
        rep = fl.residuals(fl.loads(read(t)))
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"angle residual sup: {rep.angle_sup:.6e}",
            f"cocycle residual sup: {rep.cocycle_sup:.6e}",
        ]

    def test_output_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["new", "flower", "-o", str(a)])
        run(["new", "flower", "-o", str(b)])
        assert read(a) == read(b)

    def test_import_leaves_scipy_unloaded(self):
        # cold start: foamlab needs numpy only
        src = str(Path(fl.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, foamlab; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestWrittenClusters:
    @pytest.mark.parametrize("verb", WRITING_VERBS, ids=lambda v: v[0])
    def test_writing_verb_output_is_valid(self, tmp_path, verb):
        t, out = tmp_path / "t.json", tmp_path / "out.json"
        run(["new", "triple", "-o", str(t)])
        assert run_quietly(with_input(verb, str(t)) + ["-o", str(out)])[0] == 0
        assert fl.validate(fl.loads(read(out))).ok

    @pytest.mark.parametrize("preset", list(cli._PRESETS))
    def test_new_output_is_valid(self, tmp_path, preset):
        out = tmp_path / "out.json"
        assert run(["new", preset, "-o", str(out)]) == 0
        assert fl.validate(fl.loads(read(out))).ok

    @pytest.mark.parametrize("argv, message", INVALID_RESULTS.values(), ids=INVALID_RESULTS.keys())
    def test_invalid_result_is_exit_2_and_writes_nothing(self, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        run(["new", "triple", "-o", "triple.json"])
        out = run_script(argv + ["-o", "out.json"])
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error: " + message)
        assert "Traceback" not in out.stderr and "RuntimeWarning" not in out.stderr
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "verb",
        [["new", p] for p in cli._PRESETS]
        + [v for v in WRITING_VERBS if v[0] not in ("solve", "continue")]
        + [["solve", "--areas", "1.1,1,0.9"], ["continue", "--areas", "1.1,1,0.9", "--steps", "2"]],
        ids=lambda v: f"new_{v[1]}" if v[0] == "new" else v[0],
    )
    def test_each_cluster_is_validated_once(self, tmp_path, monkeypatch, verb):
        # the input document once, if the verb reads one, and the written
        # chart point once: the library admits what it builds (``validate``
        # reads its checks at scale 1, a solver on its last iterate scaled to
        # the result), and the writer dumps it unchecked; solve and continue
        # leave the input's areas, so each chart point is new
        t, out = tmp_path / "t.json", tmp_path / "out.json"
        run(["new", "triple", "-o", str(t)])
        read, checked, written = [], [], []
        loads, checks, dumps = fl.cluster.loads, fl.cluster._checks, fl.cluster.dumps
        monkeypatch.setattr(fl.cluster, "loads", lambda text: read.append(loads(text)) or read[-1])
        for module in (fl.cluster, fl.equilibrium):
            monkeypatch.setattr(module, "_checks", lambda c, s, *a: checked.append((c, s)) or checks(c, s, *a))
        monkeypatch.setattr(fl.cluster, "dumps", lambda c: written.append(c) or dumps(c))
        argv = verb if verb[0] == "new" else with_input(verb, str(t))
        assert run_quietly(argv + ["-o", str(out)])[0] == 0
        assert len(read) == (verb[0] != "new") and len(written) == 1
        point = lambda c, s=1.0: ((c.chart() * np.repeat([s, 1.0], [2 * c.v, c.e])).tobytes(), c.labels.tobytes())
        points = [point(c, s) for c, s in checked]
        for c in read + written:
            assert points.count(point(c)) == 1
        assert len(set(points)) == len(points)

    def test_refused_preset_prints_the_library_message(self, capsys):
        with pytest.raises(fl.GeometryDomainError) as err:
            fl.necklace(7, 1e-12)
        assert run(["new", "necklace", "--k", "7", "--inner-radius", "1e-12"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {err.value}\n")

    def test_output_to_a_directory_is_exit_2(self, tmp_path):
        assert run_quietly(["new", "double", "-o", str(tmp_path)])[0] == 2


class TestNumericVerbs:
    def test_pressures(self, tmp_path, capsys):
        out = tmp_path / "db.json"
        run(["new", "double", "--r1", "1", "--r2", "0.5", "-o", str(out)])
        assert run(["pressures", str(out)]) == 0
        p = json.loads(capsys.readouterr().out)
        assert p == pytest.approx([0.0, 1.0, 2.0], abs=1e-9)

    def test_dim(self, tmp_path, capsys):
        out = tmp_path / "n.json"
        run(["new", "necklace", "--k", "7", "-o", str(out)])
        assert run(["dim", str(out), "--fix-areas"]) == 0
        assert "nullity: 4" in capsys.readouterr().out

    def test_reused_parser_keeps_no_state_between_runs(self, tmp_path, capsys):
        out = tmp_path / "lens.json"
        run(["new", "two_lens", "-o", str(out)])
        assert cli._build_parser() is cli._build_parser()
        assert run(["dim", "--fix-areas", str(out)]) == 0
        assert "nullity: 1" in capsys.readouterr().out
        assert run(["dim", str(out)]) == 0
        assert "nullity: 4" in capsys.readouterr().out

    def test_stability(self, tmp_path, capsys):
        out = tmp_path / "db.json"
        run(["new", "double", "-o", str(out)])
        assert run(["stability", str(out), "--m", "32"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "classification: StrictlyStable"
        assert lines[3].startswith("constraint rank: 5; schur evaluations: ")

    def test_ambiguous_stability_is_exit_1(self, tmp_path, capsys, monkeypatch):
        # a verdict probe moved onto an eigenvalue, where the count is roundoff
        out = tmp_path / "db.json"
        run(["new", "double", "-o", str(out)])
        unit = fl.loads(read(out)).unit()
        lam = eliminated_hessian(unit, 32).smallest(1)[0]
        monkeypatch.setattr(variation, "HESSIAN_ZERO", lam * unit.extent() ** 2)
        assert run(["stability", str(out), "--m", "32"]) == 1
        assert "warning" in capsys.readouterr().err

    def test_solve(self, tmp_path):
        src, dst = tmp_path / "t.json", tmp_path / "ts.json"
        run(["new", "triple", "-o", str(src)])
        assert run(["solve", str(src), "--areas", "1.1,0.9,1.0", "-o", str(dst)]) == 0
        c = fl.loads(read(dst))
        assert fl.region_areas(c) == pytest.approx([1.1, 0.9, 1.0], abs=1e-8)

    def test_solve_bad_area_count_is_exit_2(self, tmp_path):
        src = tmp_path / "t.json"
        run(["new", "triple", "-o", str(src)])
        assert run(["solve", str(src), "--areas", "1.0"]) == 2

    @pytest.mark.parametrize(
        "verb", [["new", "triple"], ["solve", "t.json"], ["continue", "t.json"]], ids=lambda v: v[0]
    )
    @pytest.mark.parametrize(
        # every area list is checked once, by the library's target check
        "areas, message",
        [
            ("1,1", "target must have one area per interior region"),
            ("1,1,1,1", "target must have one area per interior region"),
            ("-1,-1,-1", "target areas must be normal positive finite numbers"),
            ("1,0,1", "target areas must be normal positive finite numbers"),
            ("1e308,1e308,1e308", "target areas must have a finite sum"),
            ("1,x,1", "bad area list '1,x,1'"),
        ],
    )
    def test_bad_area_list_is_exit_2_with_one_message(self, tmp_path, monkeypatch, capsys, verb, areas,
                                                      message):
        monkeypatch.chdir(tmp_path)
        run(["new", "triple", "-o", "t.json"])
        capsys.readouterr()
        assert run(verb + [f"--areas={areas}", "-o", "out.json"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: {message}")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("verb", ["solve", "continue"])
    @pytest.mark.parametrize("areas", ["inf,1,1", "1,nan,1"])
    def test_non_finite_areas_are_exit_2(self, tmp_path, verb, areas):
        src = tmp_path / "t.json"
        run(["new", "triple", "-o", str(src)])
        assert run_quietly([verb, str(src), "--areas", areas])[0] == 2

    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_solve_without_iterations_is_exit_2(self, tmp_path, max_iter):
        src = tmp_path / "t.json"
        run(["new", "triple", "-o", str(src)])
        argv = ["solve", str(src), "--areas", "1.1,0.9,1.0", "--max-iter", max_iter]
        assert run_quietly(argv)[0] == 2

    def test_continue(self, tmp_path):
        src, dst = tmp_path / "t.json", tmp_path / "tc.json"
        run(["new", "triple", "-o", str(src)])
        assert (
            run(
                ["continue", str(src), "--areas", "1.2,0.8,1.0", "--steps", "5",
                 "-o", str(dst)]
            )
            == 0
        )
        c = fl.loads(read(dst))
        assert fl.region_areas(c) == pytest.approx([1.2, 0.8, 1.0], abs=1e-8)

    def test_continue_into_a_breakdown_is_not_an_input_error(self, tmp_path):
        # trial steps of this path reorder a star; the solver rejects them,
        # halves the step and reaches the target
        src = tmp_path / "t.json"
        run(["new", "triple", "-o", str(src)])
        dst = tmp_path / "c.json"
        argv = ["continue", str(src), "--areas", "1,1,100", "--steps", "4", "-o", str(dst)]
        assert run_quietly(argv)[0] == 0
        assert fl.region_areas(fl.loads(read(dst))) == pytest.approx([1, 1, 100], abs=1e-8)


class TestSurgeryVerbs:
    def test_decorate_and_shrink(self, tmp_path):
        t, t4, t3 = (tmp_path / f for f in ("t.json", "t4.json", "t3.json"))
        run(["new", "triple", "-o", str(t)])
        assert run(
            ["decorate", str(t), "--vertex", "0", "--size", "0.25", "-o", str(t4)]
        ) == 0
        assert fl.loads(read(t4)).n == 4
        assert run(
            ["shrink", str(t4), "--region", "4", "--factor", "0", "-o", str(t3)]
        ) == 0
        assert fl.loads(read(t3)).n == 3

    def test_bad_vertex_is_exit_2(self, tmp_path):
        t = tmp_path / "t.json"
        run(["new", "triple", "-o", str(t)])
        assert run(["decorate", str(t), "--vertex", "99", "--size", "0.2"]) == 2
        assert run(["shrink", str(t), "--region", "4", "--factor", "0.5"]) == 2

    @pytest.mark.parametrize("factor", ["nan", "inf"])
    def test_non_finite_factor_is_exit_2(self, tmp_path, factor):
        t, t4 = tmp_path / "t.json", tmp_path / "t4.json"
        run(["new", "triple", "-o", str(t)])
        run(["decorate", str(t), "--vertex", "0", "--size", "0.25", "-o", str(t4)])
        assert run_quietly(["shrink", str(t4), "--region", "4", "--factor", factor])[0] == 2

    @pytest.mark.parametrize(
        "steps",
        [
            [["mobius", "--scale", "10", "db.json", "-o", "db10.json"],
             ["decorate", "db10.json", "--vertex", "0", "--size", "2"]],
            [["decorate", "db.json", "--vertex", "0", "--size", "0.05", "-o", "dd.json"],
             ["shrink", "dd.json", "--region", "1", "--factor", "2"]],
        ],
        ids=["decorate_scaled_double", "grow_decorated_double"],
    )
    def test_non_positive_area_result_is_exit_2(self, tmp_path, monkeypatch, steps):
        """Each chain's last step would write a region of negative area."""
        monkeypatch.chdir(tmp_path)
        run(["new", "double", "--r1", "1", "--r2", "0.6", "-o", "db.json"])
        *setup, last = steps
        for argv in setup:
            assert run(argv) == 0
        code, out = run_quietly(last)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("region", ["1", "2"])
    def test_shrink_with_coincident_common_points_is_exit_2(self, tmp_path, region):
        doc = tmp_path / "tiny.json"
        doc.write_text(fl.dumps(tiny_decorated_image()))
        out = run_script(["shrink", str(doc), "--region", region, "--factor", "0.5"])
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


class TestMapVerbs:
    def test_mobius_random_requires_seed(self, tmp_path):
        t = tmp_path / "t.json"
        run(["new", "triple", "-o", str(t)])
        assert run(["mobius", str(t), "--random"]) == 2

    def test_mobius_random_preserves_equilibrium(self, tmp_path):
        t, out = tmp_path / "t.json", tmp_path / "out.json"
        run(["new", "triple", "-o", str(t)])
        assert run(
            ["mobius", str(t), "--random", "--seed", "3", "-o", str(out)]
        ) == 0
        assert run(["check", str(out)]) == 0

    def test_mobius_seeded_deterministic(self, tmp_path):
        t, a, b = (tmp_path / f for f in ("t.json", "a.json", "b.json"))
        run(["new", "triple", "-o", str(t)])
        run(["mobius", str(t), "--random", "--seed", "9", "-o", str(a)])
        run(["mobius", str(t), "--random", "--seed", "9", "-o", str(b)])
        assert read(a) == read(b)

    def test_translate(self, tmp_path):
        t, out = tmp_path / "t.json", tmp_path / "out.json"
        run(["new", "double", "-o", str(t)])
        assert run(["mobius", str(t), "--translate", "1,2", "-o", str(out)]) == 0
        a = fl.loads(read(t)).vertices[0]
        b = fl.loads(read(out)).vertices[0]
        assert abs(b.z - a.z - (1 + 2j)) < 1e-12


class TestReportVerbs:
    def test_desitter_verify(self, tmp_path, capsys):
        t = tmp_path / "t.json"
        run(["new", "triple", "-o", str(t)])
        assert run(["desitter", "verify", str(t)]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_desitter_verify_quasi_fails(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        run(["new", "quasi", "-o", str(q)])
        assert run(["desitter", "verify", str(q)]) == 1

    def test_undefined_pressures_are_exit_1_for_every_verb(self, tmp_path, capsys):
        q, svg = tmp_path / "q.json", tmp_path / "q.svg"
        run(["new", "quasi", "--kind", "two_lens_recurved", "-o", str(q)])
        # every verb measures the defects in the document's own frame
        with pytest.raises(fl.PathInconsistent) as err:
            fl.pressures(fl.loads(read(q)))
        for argv in (["pressures"], ["render", "--fill-pressures", "-o", str(svg)], ["stability"]):
            assert run(argv + [str(q)]) == 1, argv
            assert capsys.readouterr() == ("", f"pressures undefined: {err.value}\n"), argv
        assert not svg.exists()

    def test_render(self, tmp_path):
        t, svg = tmp_path / "t.json", tmp_path / "t.svg"
        run(["new", "four", "-o", str(t)])
        assert run(["render", str(t), "-o", str(svg)]) == 0
        assert read(svg).startswith("<svg")


# ---------------------------------------------------------------------------
# mutated documents


def _drop(c, j):
    return _with_edges(c, c.edges[:j] + c.edges[j + 1 :])


def _duplicate(c, j):
    return _with_edges(c, c.edges + (c.edges[j],))


def _edit(c, j, **fields):
    edges = list(c.edges)
    edges[j] = replace(edges[j], **fields)
    return _with_edges(c, edges)


MUTATIONS = {
    "drop_edge": _drop,
    "duplicate_edge": _duplicate,
    "swap_labels": lambda c, j: _edit(c, j, left=c.edges[j].right, right=c.edges[j].left),
    # the arc now bulges to the other side of its chord
    "swap_ends": lambda c, j: _edit(c, j, tail=c.edges[j].head, head=c.edges[j].tail),
    **{
        f"bulge_{b:g}": (lambda b: lambda c, j: _edit(c, j, bulge=b))(b)
        for b in (math.nan, math.inf, -math.inf, 1e9, -1e9)
    },
}

MUTATED_VERBS = [
    ["check"],
    ["pressures"],
    ["dim"],
    ["render"],
    ["mobius", "--scale", "2"],
    ["decorate", "--vertex", "0", "--size", "0.1"],
    ["desitter", "verify"],
    ["stability", "--m", "8"],
]


@pytest.fixture(scope="module")
def mutation_bases():
    return {
        "double": fl.double_bubble(1.0, 0.6),
        "triple": fl.triple_bubble(),
        "necklace7": fl.necklace(7),
        "flower": fl.flower(),
    }


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_mutated_document_never_exits_0_when_invalid(mutation_bases, tmp_path_factory, data):
    base = mutation_bases[data.draw(st.sampled_from(sorted(mutation_bases)), label="preset")]
    mutation = data.draw(st.sampled_from(sorted(MUTATIONS)), label="mutation")
    j = data.draw(st.integers(0, base.e - 1), label="edge")
    # the standard library's JSON writes NaN and Infinity, which loads accepts
    text = json.dumps(fl.cluster.to_json_dict(MUTATIONS[mutation](base, j)))
    path = tmp_path_factory.mktemp("mutated") / "doc.json"
    path.write_text(text)
    valid = fl.validate(fl.loads(text)).ok
    for verb in MUTATED_VERBS:
        code = run_quietly(with_input(verb, str(path)))[0]
        assert code in (0, 1, 2, 3), verb
        assert valid or code != 0, verb
