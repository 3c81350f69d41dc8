"""Command-line entry point.

Subcommands map to the pipeline modes; `--config` points at a key = value
file, and the remaining flags override individual config values.
"""
from __future__ import annotations

import argparse
import sys

from .mesh import load_mesh, quality_report
from .pipeline import PipelineError, load_config, run


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="seed for pseudo-random tie-breaks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bubblemesh",
        description="Bubble meshing of planar domains and disk-topology surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plane", help="mesh a rectangular plate with optional holes")
    _add_common(p)
    p.add_argument("--r", type=float, help="uniform bubble radius (sets r_min = r_max)")

    p = sub.add_parser("surface", help="triangulate a parametric surface")
    _add_common(p)
    p.add_argument("--surface", help="catalog surface name")
    p.add_argument("--epsilon", type=float, help="chord-error tolerance")

    p = sub.add_parser("remesh", help="re-mesh a disk-topology OBJ/OFF mesh")
    _add_common(p)
    p.add_argument("--input", help="input mesh file")

    p = sub.add_parser("compare-qc", help="compare quantity-control strategies")
    _add_common(p)

    p = sub.add_parser("report", help="print the quality report of a mesh file")
    p.add_argument("--mesh", required=True, help="OBJ or OFF mesh file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            print(quality_report(load_mesh(args.mesh)).to_text(), end="")
            return 0
        overrides = {"mode": args.command, "out": args.out,
                     "seed": None if args.seed is None else str(args.seed)}
        if args.command == "plane" and args.r is not None:
            overrides["r_min"] = overrides["r_max"] = str(args.r)
        if args.command == "surface":
            if args.surface:
                overrides["surface"] = args.surface
            if args.epsilon is not None:
                overrides["epsilon"] = str(args.epsilon)
        if args.command == "remesh" and args.input:
            overrides["input_mesh"] = args.input
        cfg = load_config(args.config, overrides)
        result = run(cfg)
        traces = ([result["trace"]] if "trace" in result
                  else [result[label]["trace"] for label in ("new", "original")])
        for trace in traces:
            if not trace.converged:
                print(f"warning: relaxation stopped at the sweep cap ({trace.sweeps} sweeps)",
                      file=sys.stderr)
        print(f"wrote artifacts to {result['out']}")
        return 0
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surface errors with a stage-free label
        print(f"error: [unhandled] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
