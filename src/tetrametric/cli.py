"""Command-line front end: generate, measure, verify, and render.

Subcommands:

    tetra make      build one tetrahedron and write it as JSON
    tetra metrics   compute the four size measures of a stored tetrahedron
    tetra check     re-check the ratio bounds of computed metrics
    tetra campaign  bulk-verify a seeded family and collect extremal shapes
    tetra unfold    render a star or source unfolding as SVG

Exit codes form a stable contract for CI: 0 when every requested check is
clean, 2 when any inequality violation was found, 3 when the computation
itself failed (bad input, unreadable files, or an engine error).  The
environment variable TETRA_THREADS caps campaign parallelism.
"""

from __future__ import annotations

import argparse
import sys

from .errors import TetraError
from .generators import (_KINDS, GeneratorSpec, generate, instance_stream,
                         normalize, spec_to_json)
from .geometry import (ToleranceConfig, tetrahedron_from_json,
                       tetrahedron_to_json, vertex_point, face_point)
from .report import (campaign, canonical_json, check_inequalities,
                     compute_report, refine_min_ratio, report_margins)
from .svg import export_unfolding


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit 3, not argparse's 2.

    Exit code 2 is reserved for "violations found", so anything that
    prevents a result — including bad flags — reports as a failure.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


def _build_parser():
    top = _Parser(prog="tetra", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make", parents=[], help="build one tetrahedron",
                        description="Build one tetrahedron and write it as "
                                    "JSON (vertices plus generator echo).")
    mk.add_argument("--kind", required=True, choices=_KINDS)
    mk.add_argument("--edge", type=float, default=1.0,
                    help="edge scale for regular and thick kinds")
    mk.add_argument("--sides", type=float, nargs=3, metavar=("P", "Q", "R"),
                    default=(5.0, 6.0, 7.0),
                    help="opposite-edge pairs of the isosceles kind")
    mk.add_argument("--eps", type=float, default=0.01,
                    help="thinness parameter of the thick kinds")
    mk.add_argument("--seed", type=int, default=0)
    mk.add_argument("-o", "--output", default=None,
                    help="output path (default: stdout)")

    me = sub.add_parser("metrics", help="compute the four size measures",
                        description="Compute geodesic and chord diameters "
                                    "and radii with witnesses; exits 2 if "
                                    "the computed ratios break any bound.")
    me.add_argument("-i", "--input", required=True, help="tetrahedron JSON")
    me.add_argument("--tol", type=float, default=1e-6,
                    help="farthest-point window (opt_tol, times diam) "
                         "and ratio-check tolerance")
    me.add_argument("-o", "--output", default=None,
                    help="output path (default: stdout)")

    ck = sub.add_parser("check", help="re-check bounds of a stored report",
                        description="Re-derive the ratio-bound margins of a "
                                    "metrics report; exits 2 on violations.")
    ck.add_argument("-i", "--input", required=True, help="report JSON")
    ck.add_argument("--tol", type=float, default=1e-6)

    ca = sub.add_parser("campaign", help="bulk-verify a seeded family",
                        description="Generate, measure, and check n seeded "
                                    "instances; rows go to the CSV output, "
                                    "the extremal/violation summary to "
                                    "stdout.  TETRA_THREADS caps workers.")
    ca.add_argument("--kind", default="random", choices=_KINDS)
    ca.add_argument("--n", type=int, required=True)
    ca.add_argument("--seed", type=int, default=42)
    ca.add_argument("--edge", type=float, default=1.0)
    ca.add_argument("--sides", type=float, nargs=3, metavar=("P", "Q", "R"),
                    default=(5.0, 6.0, 7.0))
    ca.add_argument("--eps", type=float, default=0.01)
    ca.add_argument("--tol", type=float, default=1e-6)
    ca.add_argument("--refine", action="store_true",
                    help="locally refine the smallest Diam/Rad instance")
    ca.add_argument("-o", "--output", required=True, help="CSV output path")

    un = sub.add_parser("unfold", help="render an unfolding as SVG",
                        description="Render the star unfolding (cut surface "
                                    "laid flat) or the source-centered view "
                                    "from a point given as 'v:IDX' or "
                                    "'f:FACE:B0,B1,B2'.")
    un.add_argument("-i", "--input", required=True, help="tetrahedron JSON")
    un.add_argument("--source", required=True,
                    help="'v:0' for a vertex or 'f:0:0.3,0.3,0.4' for a "
                         "face point in barycentric coordinates")
    un.add_argument("--mode", default="star", choices=("star", "source"))
    un.add_argument("-o", "--output", default=None,
                    help="output path (default: stdout)")
    return top


# ---------------------------------------------------------------------------
# shared plumbing

def _read_json(path):
    import json
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _spec_from_args(args):
    return GeneratorSpec(kind=args.kind, edge=args.edge,
                         sides=tuple(args.sides), eps=args.eps,
                         seed=getattr(args, "seed", 0))


def _parse_source(text):
    parts = text.split(":")
    if parts[0] == "v" and len(parts) == 2:
        v = int(parts[1])
        if not 0 <= v <= 3:
            raise ValueError("vertex index must be 0..3")
        return vertex_point(v)
    if parts[0] == "f" and len(parts) == 3:
        face = int(parts[1])
        bary = tuple(float(c) for c in parts[2].split(","))
        if len(bary) != 3:
            raise ValueError("face point needs three barycentric weights")
        total = sum(bary)
        if total <= 0.0 or min(bary) < 0.0:
            raise ValueError("barycentric weights must be nonnegative with "
                             "positive sum")
        return face_point(face, tuple(c / total for c in bary))
    raise ValueError("source must look like 'v:0' or 'f:0:0.3,0.3,0.4'")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_make(args):
    spec = _spec_from_args(args)
    T = normalize(generate(spec))
    payload = {
        "schema": "tetrametric-tetrahedron/1",
        "vertices": tetrahedron_to_json(T)["vertices"],
        "edge_lengths": list(T.edge_lengths),
        "generator": spec_to_json(spec),
    }
    _emit(canonical_json(payload), args.output)
    return 0


def _cmd_metrics(args):
    T = tetrahedron_from_json(_read_json(args.input))
    cfg = ToleranceConfig(opt_tol=args.tol)
    rep = compute_report(T, cfg)
    _emit(rep.to_text(), args.output)
    return 2 if check_inequalities(rep, args.tol) else 0


def _cmd_check(args):
    report = _read_json(args.input)
    margins = report_margins(report)
    records = check_inequalities(report, args.tol)
    payload = {
        "schema": "tetrametric-check/1",
        "tolerance": args.tol,
        "margins": margins,
        "violations": [r.to_json() for r in records],
    }
    sys.stdout.write(canonical_json(payload))
    return 2 if records else 0


def _cmd_campaign(args):
    spec = _spec_from_args(args)

    settled = 0

    def progress(i):
        # instances settle in completion order on a pool, so count them
        nonlocal settled
        settled += 1
        if args.n >= 50 and settled % max(1, args.n // 10) == 0:
            sys.stderr.write("  %d/%d\n" % (settled, args.n))

    result = campaign(spec, args.n, args.seed, tol=args.tol,
                      progress=progress)
    _emit(result.to_csv(), args.output)
    summary = result.to_json()
    if args.refine and not result.rows:
        sys.stderr.write("tetra campaign: every instance failed; "
                         "nothing to refine\n")
    elif args.refine:
        best = result.extremal["Diam_over_Rad"]["min"]
        T0 = normalize(generate(spec, seed=instance_stream(args.seed,
                                                           best["seed"])))
        summary["refinement"] = refine_min_ratio(T0).to_json()
    sys.stdout.write(canonical_json(summary))
    return 2 if result.violations else 0


def _cmd_unfold(args):
    T = tetrahedron_from_json(_read_json(args.input))
    source = _parse_source(args.source)
    svg = export_unfolding(T, source, mode=args.mode)
    _emit(svg, args.output)
    return 0


_DISPATCH = {
    "make": _cmd_make,
    "metrics": _cmd_metrics,
    "check": _cmd_check,
    "campaign": _cmd_campaign,
    "unfold": _cmd_unfold,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (TetraError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write("tetra %s: %s\n" % (args.command, exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
