"""Command-line front end.

Every verb is a thin adapter over the library: the JSON cluster schema for
input/output, deterministic float formatting, and the exit-code contract

    0  success / check passed
    1  check ran but the verdict is negative
    2  input or argument error
    3  solver failed to converge

A verb that reads a document exits 2 when ``validate`` rejects it, except
``check``, which prints the failed checks and exits 1.
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
from .equilibrium import Verdict, classify, pressures, residuals, solve
from .errors import FoamlabError, NonConvergence, PathInconsistent
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
        raise SystemExit(_input_error(f"cannot read {path}: {err}"))


def _load(path: str) -> cl.Cluster:
    """Read a document that ``validate`` accepts, which builds its topology:
    any other document is an input error."""
    c = _read(path)
    report = cl.validate(c)
    if not report.ok:
        raise SystemExit(_input_error(f"invalid cluster: {'; '.join(report.failures())}"))
    return c


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _parse_areas(text: str, n: int) -> np.ndarray:
    try:
        areas = np.array([float(s) for s in text.split(",")])
    except ValueError as err:
        raise SystemExit(_input_error(f"bad area list {text!r}: {err}"))
    if areas.size != n:
        raise SystemExit(_input_error(f"expected {n} areas, got {areas.size}"))
    return areas


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Reuse is safe:
    ``parse_args`` fills a fresh namespace on every call, and no default is
    a list that an action could append to."""
    ap = argparse.ArgumentParser(
        prog="foamlab", description="planar soap bubble cluster toolkit"
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("new", help="construct a preset cluster")
    p.add_argument(
        "preset",
        choices=["double", "triple", "four", "two_lens", "necklace", "flower", "quasi"],
    )
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
    p.add_argument("-o", "--output")

    p = sub.add_parser("check", help="classify a cluster's equilibrium state")
    p.add_argument("input")

    p = sub.add_parser("solve", help="solve for prescribed region areas")
    p.add_argument("input")
    p.add_argument("--areas", required=True)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("-o", "--output")

    p = sub.add_parser("pressures", help="print per-region pressures")
    p.add_argument("input")

    p = sub.add_parser("dim", help="tangent-space dimension modulo rigid motions")
    p.add_argument("input")
    p.add_argument("--fix-areas", action="store_true")

    p = sub.add_parser("stability", help="second-variation classification")
    p.add_argument("input")
    p.add_argument("--m", type=int, default=64, help="samples per edge")

    p = sub.add_parser("mobius", help="apply a Mobius map")
    p.add_argument("input")
    p.add_argument("--translate", help="dx,dy")
    p.add_argument("--rotate", type=float, help="angle in radians")
    p.add_argument("--scale", type=float)
    p.add_argument("--invert", help="cx,cy: inversion about a point")
    p.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output")

    p = sub.add_parser("decorate", help="insert a three-sided bubble at a junction")
    p.add_argument("input")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--size", type=float, required=True)
    p.add_argument("-o", "--output")

    p = sub.add_parser("shrink", help="scale or remove a three-sided bubble")
    p.add_argument("input")
    p.add_argument("--region", type=int, required=True)
    p.add_argument("--factor", type=float, required=True)
    p.add_argument("-o", "--output")

    p = sub.add_parser("desitter", help="de Sitter correspondence report")
    p.add_argument("action", choices=["verify"])
    p.add_argument("input")

    p = sub.add_parser("render", help="render to SVG")
    p.add_argument("input")
    p.add_argument("--fill-pressures", action="store_true")
    p.add_argument("-o", "--output")

    p = sub.add_parser("continue", help="continue along an area family")
    p.add_argument("input")
    p.add_argument("--areas", required=True)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("-o", "--output")

    return ap


def _complex_pair(text: str, what: str) -> complex:
    try:
        x, y = (float(s) for s in text.split(","))
    except ValueError as err:
        raise SystemExit(_input_error(f"bad {what} {text!r}: {err}"))
    return complex(x, y)


def _cmd_new(args) -> int:
    if args.preset == "double":
        c = con.double_bubble(args.r1, args.r2)
    elif args.preset == "triple":
        areas = (1.0, 1.0, 1.0)
        if args.areas:
            areas = tuple(_parse_areas(args.areas, 3))
        c = con.triple_bubble(areas)
    elif args.preset == "four":
        c = con.four_bubble()
    elif args.preset == "two_lens":
        c = con.two_lens(args.lens1, args.lens2, args.separation)
    elif args.preset == "necklace":
        c = con.necklace(args.k, args.inner_radius)
    elif args.preset == "flower":
        c = con.flower(args.lens_size, args.radius)
    else:
        c = con.quasi_variant(args.kind, args.amount)
    _write(args.output, cl.dumps(c))
    return EXIT_OK


def _cmd_check(args) -> int:
    c = _read(args.input)
    report = cl.validate(c)
    if not report.ok:
        print(f"Invalid: {'; '.join(report.failures())}")
        return EXIT_FAIL
    verdict = classify(c)
    rep = residuals(c)
    print(f"verdict: {verdict.value}")
    print(f"angle residual sup: {rep.angle_sup:.6e}")
    print(f"cocycle residual sup: {rep.cocycle_sup:.6e}")
    return EXIT_OK if verdict is Verdict.EQUILIBRIUM else EXIT_FAIL


def _cmd_solve(args) -> int:
    c = _load(args.input)
    target = _parse_areas(args.areas, c.n)
    out = solve(c, target, max_iter=args.max_iter)
    _write(args.output, cl.dumps(out))
    return EXIT_OK


def _cmd_pressures(args) -> int:
    c = _load(args.input)
    try:
        p = pressures(c)
    except PathInconsistent as err:
        print(f"pressures undefined: {err}", file=sys.stderr)
        return EXIT_FAIL
    print(json.dumps([float(x) for x in p]))
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
    m = MobiusMap.identity()
    chosen = False
    if args.random:
        if args.seed is None:
            return _input_error("--random requires --seed")
        m = con.random_mobius(c, np.random.default_rng(args.seed))
        chosen = True
    if args.rotate is not None:
        m = MobiusMap.rotation(args.rotate).compose(m)
        chosen = True
    if args.scale is not None:
        m = MobiusMap.scaling(args.scale).compose(m)
        chosen = True
    if args.translate is not None:
        m = MobiusMap.translation(_complex_pair(args.translate, "translation")).compose(m)
        chosen = True
    if args.invert is not None:
        m = MobiusMap.inversion_about(_complex_pair(args.invert, "center")).compose(m)
        chosen = True
    if not chosen:
        return _input_error("no map specified")
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
    target = _parse_areas(args.areas, c.n)
    family = continue_family(c, target, steps=args.steps)
    _write(args.output, cl.dumps(family[-1]))
    return EXIT_OK


_COMMANDS = {
    "new": _cmd_new,
    "check": _cmd_check,
    "solve": _cmd_solve,
    "pressures": _cmd_pressures,
    "dim": _cmd_dim,
    "stability": _cmd_stability,
    "mobius": _cmd_mobius,
    "decorate": _cmd_decorate,
    "shrink": _cmd_shrink,
    "desitter": _cmd_desitter,
    "render": _cmd_render,
    "continue": _cmd_continue,
}


def run(argv: Optional[List[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT if err.code not in (0, None) else 0
    try:
        return _COMMANDS[args.verb](args)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_INPUT
    except NonConvergence as err:
        print(f"solver failed: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except FoamlabError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
