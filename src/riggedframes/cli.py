"""Command-line front end.

    riggedframes <command> [--config cfg.json] [--output out.json]
                 [--format json|csv] [--seed N] [--stages 8,16,32]

Commands: classify, bounds, dual, reconstruct, moment-solve, sweep, demo.
``demo`` runs every built-in acceptance check, prints one PASS/FAIL line
per check, and exits 1 if any fails; it needs no ``--config`` and runs on
the dirac map.  Each flag sets a field of the config document (``--seed``
seed, ``--stages`` ladder.stages, ``--output`` output.path, ``--format``
output.format), and config_from_dict checks the result once, so a flag is
held to the same rule as the field.  Exit codes: 0 on success, 2 for a
config or output error, 1 for a numerical failure or a failing demo check.
"""

from __future__ import annotations

import argparse
import functools
import sys


def stage_list(text):
    """``8,16,32`` as [8, 16, 32]; the truncations are checked as ladder.stages."""
    return [int(part) for part in text.split(",") if part.strip()]


@functools.cache
def _build_parser():
    """The one argument parser of the process: parse_args keeps no state
    between calls, so every main call reuses it."""
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
        type=stage_list,
        help="comma-separated truncations overriding the ladder, e.g. 8,16,32",
    )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    from .errors import InvalidConfigError, NotAFrameError, NumericError
    from .reporting import config_from_dict, config_to_dict, emit, load_config, run, write_report

    try:
        if args.config is not None:
            config = load_config(args.config)
        elif args.command == "demo":
            config = config_from_dict({"map": {"kind": "dirac"}})
        else:
            print("error: --config is required for this command", file=sys.stderr)
            return 2
        document = config_to_dict(config)
        if args.seed is not None:
            document["seed"] = args.seed
        if args.stages is not None:
            document["ladder"] = {"stages": args.stages}
        if args.output is not None:
            document["output"]["path"] = args.output
        if args.output_format is not None:
            document["output"]["format"] = args.output_format
        config = config_from_dict(document)
        report = run(args.command, config)
    except InvalidConfigError as exc:
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
    if args.command == "demo" and any(not c["passed"] for c in report["checks"]):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
