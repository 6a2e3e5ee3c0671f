"""Command line front end for the check harness and the pencil plotter."""

import argparse
import sys
from fractions import Fraction

from . import harness
from .plot import plot_pencil


def _parse_lambda(text: str, allow_infinite: bool = False):
    token = text.strip().lower()
    if token in ("inf", "oo", "infinity"):
        if not allow_infinite:
            raise argparse.ArgumentTypeError(
                "the triangle of coordinate lines has no group law; "
                "pick a finite smooth parameter"
            )
        return "inf"
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational parameter: {text!r}") from exc
    if not allow_infinite and value == -3:
        raise argparse.ArgumentTypeError(
            "-3 picks a singular member; the numeric checks need a smooth one"
        )
    return value


def _check_lambda(text: str):
    return _parse_lambda(text, allow_infinite=False)


def _plot_lambda(text: str):
    return _parse_lambda(text, allow_infinite=True)


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
    check.add_argument("--precision", type=int, default=None, metavar="BITS",
                       help="working precision for numeric checks (default 128)")
    check.add_argument("--lambda", dest="lambdas", action="append", type=_check_lambda,
                       metavar="L", help="smooth member parameter; repeatable")
    check.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                       help="write the machine-readable report here")

    plot = sub.add_parser("plot-pencil", help="render members and the base configuration as SVG")
    plot.add_argument("--lambda", dest="lambdas", action="append", type=_plot_lambda,
                      metavar="L", required=True, help="member parameter ('inf' allowed); repeatable")
    plot.add_argument("--out", required=True, metavar="PATH", help="output SVG path")
    plot.add_argument("--window", type=_parse_window, default=None, metavar="A,B,C,D",
                      help="affine chart window xmin,xmax,ymin,ymax")

    sub.add_parser("list", help="print every registered check id")
    return parser


def _run_check(args) -> int:
    overrides = {"filters": tuple(args.filters)}
    if args.precision is not None:
        overrides["precision_bits"] = args.precision
    if args.lambdas:
        overrides["lambdas"] = tuple(args.lambdas)
    try:
        config = harness.default_config(**overrides)
        report = harness.run(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in report.results:
        print(f"{result.status:7s} {result.runtime_ms:10.1f}ms  {result.check_id}")
    if args.json_path:
        harness.report_json(report, args.json_path)
    passed = sum(1 for r in report.results if r.status == "pass")
    print(f"{passed}/{len(report.results)} checks passed")
    return report.exit_code


def _run_plot(args) -> int:
    kwargs = {}
    if args.window is not None:
        kwargs["window"] = args.window
    try:
        path = plot_pencil(args.lambdas, args.out, **kwargs)
    except ValueError as exc:
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
