import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foamlab as fl
from foamlab.cli import run


def read(path):
    return path.read_text()


def dropped_edge_document(tmp_path):
    """Path of a double bubble document with edge 0 removed."""
    c = fl.double_bubble(1.0, 0.6)
    dropped = fl.Cluster(c.vertices, c.edges[1:], c.region_count, c.region_labels)
    bad = tmp_path / "bad.json"
    bad.write_text(fl.dumps(dropped))
    return str(bad)


def swapped_labels_document(tmp_path):
    """Path of a triple bubble document with edge 3's left and right swapped."""
    c = fl.triple_bubble()
    edges = list(c.edges)
    edges[3] = replace(edges[3], left=edges[3].right, right=edges[3].left)
    bad = tmp_path / "swapped.json"
    bad.write_text(fl.dumps(replace(c, edges=tuple(edges))))
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


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


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

    def test_non_finite_bulge_check_is_exit_1(self, tmp_path, capsys):
        doc = fl.cluster.to_json_dict(fl.triple_bubble())
        doc["edges"][2]["bulge"] = math.nan
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert "NaN" in bad.read_text()
        assert run(["check", str(bad)]) == 1
        assert capsys.readouterr().out.startswith("Invalid: finite_chart: ")

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

    def test_stability(self, tmp_path, capsys):
        out = tmp_path / "db.json"
        run(["new", "double", "-o", str(out)])
        assert run(["stability", str(out), "--m", "32"]) == 0
        assert "StrictlyStable" in capsys.readouterr().out

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

    def test_render(self, tmp_path):
        t, svg = tmp_path / "t.json", tmp_path / "t.svg"
        run(["new", "four", "-o", str(t)])
        assert run(["render", str(t), "-o", str(svg)]) == 0
        assert read(svg).startswith("<svg")

    def test_tol_profile_flag(self, tmp_path):
        t = tmp_path / "t.json"
        run(["new", "double", "-o", str(t)])
        assert run(["--tol-profile", "loose", "check", str(t)]) == 0


# ---------------------------------------------------------------------------
# mutated documents


def _drop(c, j):
    return replace(c, edges=c.edges[:j] + c.edges[j + 1 :])


def _duplicate(c, j):
    return replace(c, edges=c.edges + (replace(c.edges[j], id=c.e),))


def _edit(c, j, **fields):
    edges = list(c.edges)
    edges[j] = replace(edges[j], **fields)
    return replace(c, edges=tuple(edges))


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
