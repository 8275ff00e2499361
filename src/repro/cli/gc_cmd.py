"""``repro gc``: remove the run directories killed drivers left in a spill dir.

A driver killed mid-run never reaches its cleanup, so its
``repro-run-<unix seconds>-<random>`` directory stays under ``spill_dir``.
The name stamps the directory's birth; this command removes the run
directories born more than the TTL ago and leaves everything else — younger
runs, foreign files, symlinks — alone.  Every run makes the same sweep of
its own ``spill_dir`` at start; this command is the explicit, cron-able path.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
from argparse import Namespace

from repro.cli.common import CliError
from repro.mapreduce.base import RUN_TTL_S, expired_run_dirs, sweep_run_dirs


def add_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "gc",
        help="remove expired run directories from a spill directory",
        description=(
            "Delete the repro-run-* directories whose name stamps a birth "
            "older than the TTL (a driver killed mid-run orphans its run "
            "directory).  Nothing else in the directory is touched."
        ),
    )
    parser.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="the directory to sweep, as given to mine --spill-dir (default: the system temp dir)",
    )
    parser.add_argument(
        "--ttl",
        type=float,
        default=RUN_TTL_S,
        metavar="SECONDS",
        help=f"age a run directory must exceed to be removed (default: {RUN_TTL_S:g}s)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting anything",
    )
    parser.set_defaults(run=run)


def run(args: Namespace, stream=None) -> int:
    stream = stream or sys.stdout
    if not 0 <= args.ttl < math.inf:  # also refuses NaN
        raise CliError(f"--ttl must be finite and >= 0 seconds, got {args.ttl}")
    root = args.spill_dir or tempfile.gettempdir()
    if not os.path.isdir(root):
        raise CliError(f"spill directory not found: {root}")
    verb = "would remove" if args.dry_run else "removed"
    found = (expired_run_dirs if args.dry_run else sweep_run_dirs)(root, args.ttl)
    for path in found:
        stream.write(f"{verb} {os.path.basename(path)}\n")
    dry = ", dry run" if args.dry_run else ""
    stream.write(f"{len(found)} expired run dir(s) in {root} (ttl {args.ttl:g}s{dry})\n")
    return 0
