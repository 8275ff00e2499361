"""``repro blob-gc``: reclaim orphaned blob namespaces in a shared --blob-dir.

A multihost driver that is killed mid-run never reaches its cleanup, so its
per-job ``job-*`` namespace (and the shuffle blobs inside it) stays in the
shared blob directory forever.  Every namespace is stamped with a lease at
job start; this command sweeps the namespaces whose lease is older than the
TTL and leaves everything else — live jobs, unleased prefixes, foreign files
— strictly alone.  The multihost backend also runs the same sweep
opportunistically at job start, so a busy deployment self-heals; this command
is the explicit/cron-able path.
"""

from __future__ import annotations

import math
import sys
from argparse import Namespace
from pathlib import Path

from repro.cli.common import CliError
from repro.mapreduce import DirectoryBlobStore
from repro.mapreduce.blobstore import NAMESPACE_TTL_S, expired_namespaces, gc_expired


def add_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "blob-gc",
        help="garbage-collect expired job namespaces in a shared blob directory",
        description=(
            "Delete per-job blob namespaces whose lease stamp is older than "
            "the TTL (a driver killed mid-run orphans its namespace; the "
            "lease is how this sweep tells an abandoned job from a live one). "
            "Unleased prefixes and foreign files are never touched."
        ),
    )
    parser.add_argument(
        "--blob-dir",
        required=True,
        metavar="DIR",
        help="the shared blob directory to sweep (as passed to --backend multihost)",
    )
    parser.add_argument(
        "--ttl",
        type=float,
        default=NAMESPACE_TTL_S,
        metavar="SECONDS",
        help=(
            "age a namespace's lease must exceed to be collected "
            f"(default: {NAMESPACE_TTL_S:g}s)"
        ),
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be swept without deleting anything",
    )
    parser.set_defaults(run=run)


def run(args: Namespace, stream=None) -> int:
    stream = stream or sys.stdout
    if not 0 <= args.ttl < math.inf:  # also refuses NaN
        raise CliError(f"--ttl must be finite and >= 0 seconds, got {args.ttl}")
    root = Path(args.blob_dir)
    if not root.is_dir():
        raise CliError(f"blob directory not found: {root}")
    store = DirectoryBlobStore(str(root))
    if args.dry_run:
        expired = expired_namespaces(store, args.ttl)
        for prefix in expired:
            stream.write(f"would sweep {prefix}\n")
        stream.write(
            f"dry run: {len(expired)} expired namespace(s) in {root} (ttl {args.ttl:g}s)\n"
        )
        return 0
    swept = gc_expired(store, args.ttl)
    for prefix in swept:
        stream.write(f"swept {prefix}\n")
    stream.write(
        f"swept {len(swept)} expired namespace(s) in {root} (ttl {args.ttl:g}s)\n"
    )
    return 0
