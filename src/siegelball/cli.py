"""Command-line entry point for the verification suites.

Exit codes: 0 when every check passes, 1 when any check fails, 2 for
configuration errors (unknown suite or check name, malformed tolerance, a
report path that cannot be written), 3 when a check raises: its traceback goes
to stderr.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from . import verify

#: Dimensions swept when --dim is not given.
DEFAULT_DIMS = (2, 4, 8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegelball",
        description="Run the deterministic verification suites and report "
        "residuals as line-delimited JSON.",
    )
    parser.add_argument(
        "--dim", type=int, default=None,
        help=f"ball dimension (default: sweep {list(DEFAULT_DIMS)})",
    )
    parser.add_argument("--seed", type=int, default=1, help="master seed")
    parser.add_argument(
        "--samples", type=int, default=1000, help="samples per check"
    )
    parser.add_argument(
        "--suite", action="append", dest="suites", metavar="NAME",
        choices=list(verify.SUITE_NAMES) + ["all"],
        help="suite to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--tol", action="append", dest="tols", default=[], metavar="NAME=VALUE",
        help="override the tolerance of one check (repeatable)",
    )
    parser.add_argument(
        "--report", type=Path, default=None, metavar="PATH",
        help="write the line-delimited JSON report to this file",
    )
    return parser


def _parse_tols(parser: argparse.ArgumentParser, pairs) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            parser.error(f"--tol expects NAME=VALUE, got {pair!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            parser.error(f"--tol value for {name!r} is not a number: {value!r}")
    return overrides


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = _parse_tols(parser, args.tols)

    every = args.suites is None or "all" in args.suites
    suites = verify.SUITE_NAMES if every else args.suites

    dims = [args.dim] if args.dim is not None else list(DEFAULT_DIMS)
    sweeping = len(dims) > 1

    try:
        configs = [
            verify.RunConfig(dim=dim, seed=args.seed, samples=args.samples,
                             suites=suites, tol_overrides=overrides)
            for dim in dims
        ]
        if args.report is not None:  # an unwritable report fails before any suite runs
            args.report.open("a").close()
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    # A check that raises is a fault of the package, not of the configuration
    # or a failed check: a crashed run gets its own exit code.
    results = []
    for config in configs:
        try:
            checked = verify.run(config)
        except Exception:
            traceback.print_exc()
            return 3
        for r in checked:
            if sweeping:
                r = replace(r, name=f"{r.name}[n={config.dim}]")
            results.append(r)
            print(
                f"{r.status.upper():4s} {r.name:45s} "
                f"residual={r.residual:.3e} tol={r.tol:.1e} "
                f"samples={r.samples} ({r.ms:.0f} ms)"
            )

    summary = verify.summarize(results)
    print(
        f"{summary['status'].upper()}: {summary['checks']} checks, "
        f"{summary['failures']} failures ({summary['ms']:.0f} ms)"
    )
    if args.report is not None:
        args.report.write_text(verify.report(results))
    return 0 if summary["failures"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
