"""Command-line front end.

Every verb is a thin adapter over the library: the JSON cluster schema for
input/output, deterministic float formatting, and the exit-code contract

    0  success / check passed
    1  check ran but the verdict is negative
    2  input or argument error
    3  solver failed to converge

A verb that reads a document exits 2 when ``validate`` rejects it, except
``check``, which prints the failed checks and exits 1.  A verb that writes a
cluster exits 2, and writes nothing, when ``validate`` rejects the result:
the reader calls :func:`foamlab.cluster.validated`, and the library admits
what it builds, once each.
Every input or argument error is a :class:`FoamlabError` that ``run`` prints
after ``error: ``.  A verb that needs pressures of a document whose
curvature sums disagree (:class:`PathInconsistent`) exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

import numpy as np

from . import cluster as cl
from . import constructions as con
from .desitter import verify_correspondence
from .equilibrium import Verdict, _verdict, pressures, residuals, solve
from .errors import (
    ClusterFormatError,
    FoamlabError,
    GeometryDomainError,
    NonConvergence,
    PathInconsistent,
)
from .geometry import MobiusMap
from .variation import continue_family, stability_report, tangent_dimension

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3


def _read(path: str) -> cl.Cluster:
    try:
        with open(path) as fh:
            return cl.loads(fh.read())
    except OSError as err:
        raise ClusterFormatError(f"cannot read {path}: {err}") from err


def _load(path: str) -> cl.Cluster:
    return cl.validated(_read(path))


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_areas(text: str) -> np.ndarray:
    """The numbers of a comma-separated list; the library checks them as a target."""
    try:
        return np.array([float(s) for s in text.split(",")])
    except ValueError as err:
        raise GeometryDomainError(f"bad area list {text!r}: {err}") from err


def _complex_pair(text: str, what: str) -> complex:
    try:
        x, y = (float(s) for s in text.split(","))
    except ValueError as err:
        raise GeometryDomainError(f"bad {what} {text!r}: {err}") from err
    return complex(x, y)


# ``foamlab new``'s presets: the keys are the parser's choices
_PRESETS = {
    "double": lambda a: con.double_bubble(a.r1, a.r2),
    "triple": lambda a: con.triple_bubble(_parse_areas(a.areas or "1,1,1")),
    "four": lambda a: con.four_bubble(),
    "two_lens": lambda a: con.two_lens(a.lens1, a.lens2, a.separation),
    "necklace": lambda a: con.necklace(a.k, a.inner_radius),
    "flower": lambda a: con.flower(a.lens_size, a.radius),
    "quasi": lambda a: con.quasi_variant(a.kind, a.amount),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Reuse is safe:
    ``parse_args`` fills a fresh namespace on every call, and no default is
    a list that an action could append to."""
    ap = argparse.ArgumentParser(
        prog="foamlab", description="planar soap bubble cluster toolkit"
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, handler, help, reads=True, writes=False):
        """A subparser that runs ``handler``, with the document path when it
        ``reads`` and ``-o`` when it ``writes``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if reads:
            p.add_argument("input")
        if writes:
            p.add_argument("-o", "--output")
        return p

    p = verb("new", _cmd_new, "construct a preset cluster", reads=False, writes=True)
    p.add_argument("preset", choices=list(_PRESETS))
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--r2", type=float, default=1.0)
    p.add_argument("--areas", help="triple: comma-separated areas")
    p.add_argument("--k", type=int, default=6, help="necklace: bubble count")
    p.add_argument("--inner-radius", type=float, help="necklace: chamber radius")
    p.add_argument("--lens1", type=float, default=0.8)
    p.add_argument("--lens2", type=float, default=0.8)
    p.add_argument("--separation", type=float, default=2.0)
    p.add_argument("--lens-size", type=float, default=0.18)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument(
        "--kind",
        choices=["two_lens_recurved", "four_stretched"],
        default="two_lens_recurved",
        help="quasi: which variant",
    )
    p.add_argument("--amount", type=float, default=0.15)

    verb("check", _cmd_check, "classify a cluster's equilibrium state")

    p = verb("solve", _cmd_solve, "solve for prescribed region areas", writes=True)
    p.add_argument("--areas", required=True)
    p.add_argument("--max-iter", type=int, default=100)

    verb("pressures", _cmd_pressures, "print per-region pressures")

    p = verb("dim", _cmd_dim, "tangent-space dimension modulo rigid motions")
    p.add_argument("--fix-areas", action="store_true")

    p = verb("stability", _cmd_stability, "second-variation classification")
    p.add_argument("--m", type=int, default=64, help="samples per edge")

    p = verb("mobius", _cmd_mobius, "apply a Mobius map", writes=True)
    p.add_argument("--translate", help="dx,dy")
    p.add_argument("--rotate", type=float, help="angle in radians")
    p.add_argument("--scale", type=float)
    p.add_argument("--invert", help="cx,cy: inversion about a point")
    p.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=int)

    p = verb("decorate", _cmd_decorate, "insert a three-sided bubble at a junction", writes=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--size", type=float, required=True)

    p = verb("shrink", _cmd_shrink, "scale or remove a three-sided bubble", writes=True)
    p.add_argument("--region", type=int, required=True)
    p.add_argument("--factor", type=float, required=True)

    p = verb("desitter", _cmd_desitter, "de Sitter correspondence report", reads=False)
    p.add_argument("action", choices=["verify"])
    p.add_argument("input")

    p = verb("render", _cmd_render, "render to SVG", writes=True)
    p.add_argument("--fill-pressures", action="store_true")

    p = verb("continue", _cmd_continue, "continue along an area family", writes=True)
    p.add_argument("--areas", required=True)
    p.add_argument("--steps", type=int, default=10)

    return ap


def _cmd_new(args) -> int:
    _write(args.output, cl.dumps(_PRESETS[args.preset](args)))
    return EXIT_OK


def _cmd_check(args) -> int:
    c = _read(args.input)
    report = cl.validate(c)
    if not report.ok:
        print(f"Invalid: {'; '.join(report.failures())}")
        return EXIT_FAIL
    rep = residuals(c)
    verdict = _verdict(c, rep)
    print(f"verdict: {verdict.value}")
    print(f"angle residual sup: {rep.angle_sup:.6e}")
    print(f"cocycle residual sup: {rep.cocycle_sup:.6e}")
    return EXIT_OK if verdict is Verdict.EQUILIBRIUM else EXIT_FAIL


def _cmd_solve(args) -> int:
    c = _load(args.input)
    target = _parse_areas(args.areas)
    _write(args.output, cl.dumps(solve(c, target, max_iter=args.max_iter)))
    return EXIT_OK


def _cmd_pressures(args) -> int:
    print(json.dumps([float(x) for x in pressures(_load(args.input))]))
    return EXIT_OK


def _cmd_dim(args) -> int:
    c = _load(args.input)
    rep = tangent_dimension(c, fix_areas=args.fix_areas)
    print(f"nullity: {rep.nullity}")
    print(f"gap ratio: {rep.gap_ratio:.3e}")
    if rep.ambiguous:
        print("warning: singular value gap is ambiguous", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_stability(args) -> int:
    c = _load(args.input)
    rep = stability_report(c, m=args.m)
    print(f"classification: {rep.classification}")
    print(f"zero modes: {rep.zero_mode_count}")
    print(f"smallest eigenvalues: {[f'{x:.6g}' for x in rep.eigenvalues]}")
    batches, sigmas = rep.evaluations
    print(f"constraint rank: {rep.rank}; schur evaluations: {batches} batches, {sigmas} sigmas")
    if rep.ambiguous:
        print("warning: a verdict count rests on a roundoff-level eigenvalue", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_mobius(args) -> int:
    c = _load(args.input)
    maps = []
    if args.random:
        if args.seed is None:
            raise GeometryDomainError("--random requires --seed")
        maps.append(con.random_mobius(c, np.random.default_rng(args.seed)))
    if args.rotate is not None:
        maps.append(MobiusMap.rotation(args.rotate))
    if args.scale is not None:
        maps.append(MobiusMap.scaling(args.scale))
    if args.translate is not None:
        maps.append(MobiusMap.translation(_complex_pair(args.translate, "translation")))
    if args.invert is not None:
        maps.append(MobiusMap.inversion_about(_complex_pair(args.invert, "center")))
    if not maps:
        raise GeometryDomainError("no map specified")
    # applied in the order listed: each map after the ones before it
    m = functools.reduce(lambda m, step: step.compose(m), maps, MobiusMap.identity())
    _write(args.output, cl.dumps(con.mobius_apply_cluster(m, c)))
    return EXIT_OK


def _cmd_decorate(args) -> int:
    c = _load(args.input)
    _write(args.output, cl.dumps(con.decorate(c, args.vertex, args.size)))
    return EXIT_OK


def _cmd_shrink(args) -> int:
    c = _load(args.input)
    _write(args.output, cl.dumps(con.scale_three_sided(c, args.region, args.factor)))
    return EXIT_OK


def _cmd_desitter(args) -> int:
    c = _load(args.input)
    rep = verify_correspondence(c)
    print(json.dumps(rep.to_json(), indent=2))
    return EXIT_OK if rep.passed else EXIT_FAIL


def _cmd_render(args) -> int:
    c = _load(args.input)
    fills = pressures(c)[1:] if args.fill_pressures else None
    _write(args.output, cl.to_svg(c, fill_pressures=fills))
    return EXIT_OK


def _cmd_continue(args) -> int:
    c = _load(args.input)
    target = _parse_areas(args.areas)
    _write(args.output, cl.dumps(continue_family(c, target, steps=args.steps)[-1]))
    return EXIT_OK


def run(argv: Optional[List[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT if err.code not in (0, None) else 0
    try:
        return args.handler(args)
    except NonConvergence as err:
        print(f"solver failed: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except PathInconsistent as err:
        print(f"pressures undefined: {err}", file=sys.stderr)
        return EXIT_FAIL
    except (FoamlabError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
