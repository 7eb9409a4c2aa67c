"""Independent checks of every task result.

None of these trusts a solver's own success flag: a solved cluster is
re-classified and its areas re-measured, a stability verdict is compared with
the label known for the preset, and a CLI result is judged by the documented
exit-code contract (0 success, 1 negative verdict, 2 input error, 3 solver
non-convergence) plus the content of its output.  Each check returns ``None``
when the result is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

import foamlab as fl

# known second-variation labels and tangent nullities (fixed areas, free)
STABILITY = {
    "double": "StrictlyStable",
    "triple": "StrictlyStable",
    "four": "StrictlyStable",
    "two_lens": "Degenerate(1)",
    "flower": "StrictlyStable",
    "necklace6": "StrictlyStable",
    "necklace7": "Degenerate(4)",
}
NULLITY = {
    "double": (0, 2),
    "triple": (0, 3),
    "four": (0, 4),
    "two_lens": (1, 4),
    "flower": (0, 5),
    "necklace6": (0, 7),
    "necklace7": (4, 12),
}

AREA_TOL = 1e-8  # relative to diameter^2
PRESSURE_TOL = 1e-9  # relative to max(1, largest |pressure|)


def same_type(a: fl.Cluster, b: fl.Cluster) -> bool:
    return (a.v, a.e, a.n) == (b.v, b.e, b.n)


def solved(initial: fl.Cluster, target: Sequence[float], result) -> Optional[str]:
    """An area solve: equilibrium, areas on target, combinatorics unchanged."""
    if not isinstance(result, fl.Cluster):
        return f"result is {type(result).__name__}, not a Cluster"
    if not same_type(initial, result):
        return f"v/e/n changed from {(initial.v, initial.e, initial.n)}"
    verdict = fl.classify(result)
    if verdict is not fl.Verdict.EQUILIBRIUM:
        return f"verdict {verdict.value}"
    err = float(abs(fl.region_areas(result) - target).max())
    tol = AREA_TOL * result.diameter() ** 2
    if err > tol:
        return f"area error {err:.3e} > {tol:.3e}"
    return None


def continued(initial: fl.Cluster, target: Sequence[float], steps: int, path) -> Optional[str]:
    """A continuation path: every step solved for its interpolated target."""
    if len(path) != steps + 1:
        return f"path has {len(path)} clusters, expected {steps + 1}"
    start = fl.region_areas(initial)
    for k, cluster in enumerate(path[1:], start=1):
        t = k / steps
        reason = solved(initial, (1 - t) * start + t * target, cluster)
        if reason:
            return f"step {k}: {reason}"
    return None


def stability(preset: str, report) -> Optional[str]:
    want = STABILITY[preset]
    if report.classification != want:
        return f"classification {report.classification}, expected {want}"
    return None


def tangent(preset: str, fix_areas: bool, report) -> Optional[str]:
    want = NULLITY[preset][0 if fix_areas else 1]
    if report.nullity != want:
        return f"nullity {report.nullity}, expected {want}"
    if report.ambiguous:
        return f"ambiguous spectral gap {report.gap_ratio:.3g}"
    return None


# ---------------------------------------------------------------------------
# CLI results; ``kind`` is how the input document was generated


def cli(verb: str, kind: str, text: str, code: int, out: str) -> Optional[str]:
    """Check one ``foamlab.cli.run`` result against the exit-code contract.

    ``text`` is the input document.  Structurally invalid documents must not
    exit 0; quasi-equilibria fail ``check``, ``pressures`` and ``desitter``
    with 1; every verb on an equilibrium document exits 0 with correct output.
    """
    if code not in (0, 1, 2, 3):
        return f"exit code {code!r} outside the 0/1/2/3 contract"
    if kind == "invalid":
        return None if code in (1, 2) else f"exit {code} on a structurally invalid cluster"
    want = 1 if kind == "quasi" and verb in ("check", "pressures", "desitter") else 0
    if code != want:
        return f"exit {code}, expected {want}"
    if code != 0:
        return None
    doc = fl.loads(text)
    if verb == "check":
        return None if "verdict: Equilibrium" in out else "no Equilibrium verdict"
    if verb == "pressures":
        return _pressures(doc, out)
    if verb == "render":
        ok = out.startswith("<svg") and out.count("<path") >= doc.e
        return None if ok else "not an SVG with one path per edge"
    if verb in ("mobius", "decorate"):
        try:
            image = fl.loads(out)
        except fl.ClusterFormatError as err:
            return f"output is not a cluster document: {err}"
        grow = 1 if verb == "decorate" else 0
        sizes = (image.v, image.e, image.n)
        want_sizes = (doc.v + 2 * grow, doc.e + 3 * grow, doc.n + grow)
        if sizes != want_sizes:
            return f"v/e/n {sizes}, expected {want_sizes}"
        if fl.classify(unit_scale(image)) is not fl.classify(unit_scale(doc)):
            return "equilibrium verdict not preserved"
    return None


def unit_scale(c: fl.Cluster) -> fl.Cluster:
    """Similar copy of ``c`` with its vertex centroid at 0 and diameter 1.

    ``classify`` is a similarity-invariant property, but its concurrency
    cross-check measures distances against an absolute floor of 1.0
    (``second_intersection``), so on a very small cluster it takes a second
    intersection point closer than 1e-6 to its vertex for the vertex itself.
    A seeded Mobius image of diameter 2.5e-3, decorated with a bubble of
    radius 2.3e-7, hits that (cli_inspect, seed 226367426).  Comparing the
    verdicts at unit scale judges the ``mobius`` and ``decorate`` output,
    not that floor.
    """
    centroid = sum(p.z for p in c.vertices) / c.v
    m = fl.MobiusMap.scaling(1.0 / c.diameter()).compose(fl.MobiusMap.translation(-centroid))
    return fl.mobius_apply_cluster(m, c)


def _pressures(doc: fl.Cluster, out: str) -> Optional[str]:
    try:
        got = json.loads(out)
    except json.JSONDecodeError:
        return "pressures output is not JSON"
    want = fl.pressures(doc)
    if len(got) != len(want):
        return f"{len(got)} pressures, expected {len(want)}"
    err = max(abs(g - w) for g, w in zip(got, want))
    tol = PRESSURE_TOL * max(1.0, float(abs(want).max()))
    return None if err <= tol else f"pressure error {err:.3e} > {tol:.3e}"
