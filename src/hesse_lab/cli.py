"""Command line front end for the check harness."""

import argparse
import sys

from . import harness


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return _run_check(args)
    for check_id in harness.check_ids():
        print(check_id)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
