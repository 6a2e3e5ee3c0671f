"""Command line front end for the check harness and the pencil plotter."""

import argparse
import sys
from fractions import Fraction

from . import harness
from .plot import plot_pencil


def _parse_lambda(text: str):
    """A member parameter of the plot: 'inf' (also 'oo', 'infinity') or a rational."""
    token = text.strip().lower()
    if token in ("inf", "oo", "infinity"):
        return "inf"
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational parameter: {text!r}") from exc


def _parse_window(text: str) -> tuple:
    try:
        a, b, c, d = map(float, text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"window must be four numbers xmin,xmax,ymin,ymax: {text!r}"
        ) from exc
    return (a, b, c, d)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesse-lab",
        description="exact verification harness for the pencil of plane cubics "
        "through nine inflection points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run registered checks (glob filters select a subset)")
    check.add_argument("filters", nargs="*", metavar="GLOB", help="check id globs, e.g. 'lattice.*'")
    check.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                       help="write the machine-readable report here")

    plot = sub.add_parser("plot-pencil", help="render members and the base configuration as SVG")
    plot.add_argument("--lambda", dest="lambdas", action="append", type=_parse_lambda,
                      metavar="L", required=True, help="member parameter ('inf' allowed); repeatable")
    plot.add_argument("--out", required=True, metavar="PATH", help="output SVG path")
    plot.add_argument("--window", type=_parse_window, default=None, metavar="A,B,C,D",
                      help="affine chart window xmin,xmax,ymin,ymax")

    sub.add_parser("list", help="print every registered check id")
    return parser


def _run_check(args) -> int:
    try:
        report = harness.run(harness.default_config(filters=args.filters))
        for result in report.results:
            print(f"{result.status:7s} {result.runtime_ms:10.1f}ms  {result.check_id}")
        if args.json_path:
            harness.report_json(report, args.json_path)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passed = sum(1 for r in report.results if r.status == "pass")
    print(f"{passed}/{len(report.results)} checks passed")
    return report.exit_code


def _run_plot(args) -> int:
    kwargs = {}
    if args.window is not None:
        kwargs["window"] = args.window
    try:
        path = plot_pencil(args.lambdas, args.out, **kwargs)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return _run_check(args)
    if args.command == "plot-pencil":
        return _run_plot(args)
    for check_id in harness.check_ids():
        print(check_id)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
