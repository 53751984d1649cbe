"""Command line front end.

Usage:
    puccilab <subcommand> --config cfg.json --out results/ [--threads 1] [--verbose]

Each subcommand runs one scenario tag from the config file, as paired
in scenarios.SCENARIOS; the tag and the subcommand must agree, which
catches copy-paste mistakes in sweep batches.  Every study runs on one
thread; --threads accepts only 1 and is kept so that existing command
lines still parse.  Exit codes: 0 ran to completion (fail verdicts are
results, not errors), 1 validation problem, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ConfigError, NumericalError, ValidationError
from .config import load_config
from .scenarios import SCENARIOS, execute

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="puccilab",
        description="Finite-difference studies of extremal parabolic operators.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for tag, scenario in SCENARIOS.items():
        p = sub.add_parser(scenario.subcommand, help=f"run a '{tag}' scenario config")
        p.set_defaults(tag=tag)
        p.add_argument("--config", required=True, help="path to the JSON scenario config")
        p.add_argument("--out", required=True, help="directory for report files")
        p.add_argument(
            "--threads", type=int, choices=(1,), default=1,
            help="accepted for existing command lines; every study runs on one thread",
        )
        p.add_argument(
            "--verbose", action="store_true", help="name the scenario and config file on stderr"
        )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"puccilab: error: {exc}", file=sys.stderr)
        return 1

    try:
        config = load_config(args.config)
        if config.scenario != args.tag:
            raise ConfigError(
                f"config declares scenario {config.scenario!r} but the "
                f"'{args.subcommand}' subcommand runs {args.tag!r}"
            )
        if args.verbose:
            print(f"running {config.scenario} from {args.config}", file=sys.stderr)
        paths = execute(config, args.out)
    except NumericalError as exc:
        print(f"puccilab: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"puccilab: {exc}", file=sys.stderr)
        return 1

    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
