"""Entry point of the ``repro`` command-line interface."""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro import __version__
from repro.cli import (
    constraints_cmd,
    convert,
    experiment,
    gc_cmd,
    generate,
    inspect_cmd,
    mine_cmd,
    serve_cmd,
    stats,
)
from repro.cli.common import CliError
from repro.errors import ReproError

#: Modules providing one subcommand each (ordered as shown in --help).
_SUBCOMMANDS = (
    generate, stats, mine_cmd, inspect_cmd, constraints_cmd, convert, experiment,
    serve_cmd, gc_cmd,
)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands registered."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Scalable frequent sequence mining with flexible subsequence "
            "constraints (reproduction of Renz-Wieland et al., ICDE 2019)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND")
    for module in _SUBCOMMANDS:
        module.add_parser(subparsers)
    return parser


def main(argv: Sequence[str] | None = None, stream=None) -> int:
    """Run the CLI.  Returns a process exit code (0 = success)."""
    stream = stream or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(stream)
        return 2
    try:
        return args.run(args, stream=stream)
    except CliError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
