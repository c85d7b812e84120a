"""Command-line front end.

    riggedframes <command> [--config cfg.json] [--output out.json]
                 [--format json|csv] [--seed N] [--stages 8,16,32]

Commands: classify, bounds, dual, reconstruct, moment-solve, sweep, demo.
``demo`` runs every built-in acceptance check, prints one PASS/FAIL line
per check, and exits nonzero if any fails.  The RIGGEDFRAMES_THREADS
environment variable caps BLAS parallelism for reproducible timing.
"""

from __future__ import annotations

import argparse
import sys


def _build_parser():
    from .reporting import COMMANDS

    parser = argparse.ArgumentParser(
        prog="riggedframes",
        description="Distribution-frame diagnostics over truncated Hermite models.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--output", help="report destination (defaults to stdout)")
    parser.add_argument("--format", choices=("json", "csv"), dest="output_format")
    parser.add_argument("--seed", type=int, help="seed override for randomized checks")
    parser.add_argument(
        "--stages",
        help="comma-separated truncations overriding the ladder, e.g. 8,16,32",
    )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # package import applies RIGGEDFRAMES_THREADS before numpy loads
    from .errors import InvalidConfigError, NotAFrameError, NumericError, WeightSyntaxError
    from .reporting import (
        config_with_overrides,
        default_config,
        emit,
        load_config,
        run,
        write_report,
    )

    try:
        if args.config is not None:
            config = load_config(args.config)
        elif args.command == "demo":
            config = default_config()
        else:
            print("error: --config is required for this command", file=sys.stderr)
            return 2
        stages = None
        if args.stages is not None:
            try:
                stages = [int(part) for part in args.stages.split(",") if part.strip()]
            except ValueError:
                print(f"error: stages: not a comma-separated integer list: {args.stages!r}", file=sys.stderr)
                return 2
        config = config_with_overrides(
            config,
            seed=args.seed,
            stages=stages,
            output_path=args.output,
            output_format=args.output_format,
        )
        report = run(args.command, config)
    except (InvalidConfigError, WeightSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotAFrameError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if config.output_path:
        try:
            write_report(report, config.output_path, config.output_format)
        except OSError as exc:
            print(f"error: output: {exc}", file=sys.stderr)
            return 2
    elif args.command != "demo":
        sys.stdout.write(emit(report, config.output_format).decode())
    if args.command == "demo" and any(not c["passed"] for c in report.checks):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
