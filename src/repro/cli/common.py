"""Shared helpers for the CLI subcommands: input loading and output writing."""

from __future__ import annotations

import json
import math
import sys
from argparse import ArgumentParser, ArgumentTypeError, Namespace
from collections.abc import Sequence
from pathlib import Path

from repro.dictionary import Dictionary, Hierarchy
from repro.errors import ReproError
from repro.sequences import (
    SequenceDatabase,
    load_sequences,
    preprocess,
    read_dictionary,
)


class CliError(ReproError):
    """Raised for user-facing CLI errors (bad arguments, missing files)."""


#: Multipliers accepted by :func:`parse_byte_size` (binary units).
_BYTE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3}


def parse_byte_size(text: str | None) -> int | None:
    """Parse a byte count such as ``65536``, ``64k``, ``16M``, or ``1g``.

    Returns None for None (no limit).  Suffixes are binary (k = 1024).
    """
    if text is None:
        return None
    raw = str(text).strip().lower()
    if raw.endswith("b"):
        raw = raw[:-1]
    multiplier = 1
    if raw and raw[-1] in _BYTE_SUFFIXES:
        multiplier = _BYTE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(raw)
    except ValueError as error:
        raise CliError(
            f"invalid byte size {text!r}; expected an integer with an "
            "optional k/M/G suffix (e.g. 64k, 16M)"
        ) from error
    if value < 0:
        raise CliError(f"byte size must be >= 0, got {text!r}")
    return value * multiplier


# ------------------------------------------------------------------ arguments
def add_input_arguments(parser: ArgumentParser) -> None:
    """Arguments shared by all subcommands that read a sequence database."""
    parser.add_argument(
        "--sequences",
        required=True,
        metavar="FILE",
        help="input sequence file (text, .jsonl, optionally .gz)",
    )
    parser.add_argument(
        "--format",
        dest="sequence_format",
        choices=("text", "jsonl"),
        default=None,
        help="input format (default: detect from the file name)",
    )
    parser.add_argument(
        "--dictionary",
        metavar="FILE",
        default=None,
        help="dictionary JSON written by 'repro generate' or write_dictionary()",
    )
    parser.add_argument(
        "--hierarchy",
        metavar="FILE",
        default=None,
        help="optional hierarchy file with one 'child parent' pair per line "
        "(used only when no dictionary is given)",
    )


def backend_name(text: str) -> str:
    """``--backend`` value: a backend name or documented spelling, made canonical."""
    from repro.errors import MapReduceError
    from repro.mapreduce import canonical_backend

    try:
        return canonical_backend(text)
    except MapReduceError as error:
        raise ArgumentTypeError(str(error)) from None


def add_grid_argument(parser: ArgumentParser) -> None:
    """``--grid``: flat vs legacy position–state grid engine."""
    from repro.mapreduce import DEFAULT_GRID, GRIDS

    parser.add_argument(
        "--grid",
        choices=GRIDS,
        default=DEFAULT_GRID,
        help=(
            "position-state grid engine for pivot search, rewriting, and "
            "early stopping: 'flat' is one forward pass of sorted-run pivot "
            "merges over bitmask reachability rows, with per-worker grid "
            "memos, 'legacy' is "
            "the per-edge-object reference implementation (slower; for "
            f"debugging) (default: {DEFAULT_GRID})"
        ),
    )


def add_cap_arguments(parser: ArgumentParser) -> None:
    """``--max-runs`` / ``--max-candidates``: per-sequence safety caps."""
    parser.add_argument(
        "--max-runs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-sequence cap on enumerated accepting runs before the run "
            "is reported as a candidate explosion (default: the library "
            "default; experiments use a tighter cap to emulate the paper's "
            "out-of-memory failures)"
        ),
    )
    parser.add_argument(
        "--max-candidates",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-sequence cap on generated candidate subsequences for the "
            "candidate-enumerating algorithms (naive, semi-naive, desq-count)"
        ),
    )


def add_fault_arguments(parser: ArgumentParser) -> None:
    """``--retries`` / ``--task-timeout``: the run's fault-tolerance knobs."""
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "re-run a failed or timed-out map/reduce task up to N times "
            "before failing the job (0 = fail fast on the first error; "
            "default: 1 retry).  On the multihost backend a dead host's "
            "tasks are re-dispatched to the surviving hosts"
        ),
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "treat a map/reduce task attempt whose compute time exceeds "
            "SECONDS as failed and retry it under the --retries budget "
            "(default: no timeout)"
        ),
    )


def fault_policy_from_args(args: Namespace):
    """The run's :class:`~repro.mapreduce.FaultPolicy`, or None for the default."""
    from dataclasses import replace

    from repro.mapreduce import DEFAULT_FAULT_POLICY

    retries = getattr(args, "retries", None)
    task_timeout = getattr(args, "task_timeout", None)
    if retries is None and task_timeout is None:
        return None
    if retries is not None and retries < 0:
        raise CliError(f"--retries must be >= 0, got {retries}")
    if task_timeout is not None and not 0 < task_timeout < math.inf:
        raise CliError(f"--task-timeout must be finite and > 0 seconds, got {task_timeout}")
    return replace(
        DEFAULT_FAULT_POLICY,
        **({"max_task_attempts": retries + 1} if retries is not None else {}),
        **({"task_timeout_s": task_timeout} if task_timeout is not None else {}),
    )


def cluster_config_from_args(args: Namespace, num_workers: int):
    """Build the one :class:`~repro.mapreduce.ClusterConfig` of a CLI run."""
    from repro.mapreduce import ClusterConfig

    return ClusterConfig(
        backend=args.backend,
        num_workers=num_workers,
        codec=args.codec,
        spill_budget_bytes=parse_byte_size(args.spill_budget),
        spill_dir=getattr(args, "spill_dir", None),
        grid=getattr(args, "grid", None),
        fault_policy=fault_policy_from_args(args),
    )


#: Each :class:`~repro.mapreduce.ClusterConfig` flag of ``repro mine`` and
#: ``repro experiment`` -> the field it sets (``--retries`` and
#: ``--task-timeout`` both build the fault policy).  Every flag defaults to
#: its field's default; ``--workers`` is left out, as both commands give it a
#: value of their own.
CLUSTER_FLAGS = {
    "--backend": "backend",
    "--codec": "codec",
    "--spill-budget": "spill_budget_bytes",
    "--spill-dir": "spill_dir",
    "--grid": "grid",
    "--retries": "fault_policy",
    "--task-timeout": "fault_policy",
}


def reject_cluster_flags(args: Namespace, target: str) -> None:
    """Refuse every cluster flag given to ``target``, a run that builds no cluster."""
    from repro.mapreduce import ClusterConfig

    default = ClusterConfig()
    for flag, field in CLUSTER_FLAGS.items():
        if getattr(args, flag[2:].replace("-", "_")) != getattr(default, field):
            raise CliError(f"{flag} does not apply to {target} (it runs on no cluster)")


def add_shuffle_arguments(parser: ArgumentParser) -> None:
    """``--codec`` / ``--spill-budget``: shuffle wire format and spill knobs."""
    from repro.mapreduce import CODECS

    parser.add_argument(
        "--codec",
        choices=CODECS,
        default="compact",
        help=(
            "shuffle wire format: 'compact' is a length-prefixed binary "
            "codec that writes a key group of (fid tuple, weight) or (bytes, "
            "weight) records as three columns (lengths, weights, payloads; "
            "1-2 bytes per fid) and any other group value by value with type "
            "tags, 'zlib' additionally compresses each bucket (default: compact)"
        ),
    )
    parser.add_argument(
        "--spill-budget",
        metavar="BYTES",
        default=None,
        help=(
            "per-map-task in-memory budget for encoded shuffle payloads; "
            "payloads past the budget become blobs in the run's fragment "
            "store, in its run directory under --spill-dir.  Accepts k/M/G "
            "suffixes, e.g. 64k or 16M (default: no budget)"
        ),
    )
    parser.add_argument(
        "--spill-dir",
        metavar="DIR",
        default=None,
        help=(
            "parent of each run's scratch directory, which holds everything "
            "the run writes (the multihost fragment store included; a shared "
            "mount on a multi-host deployment).  Created if missing; each run "
            "directory goes when its run ends, and one a killed run left is "
            "removed by a later run or by 'repro gc' after 24 h "
            "(default: the system temp dir)"
        ),
    )


def read_hierarchy_file(path: str | Path) -> Hierarchy:
    """Read a hierarchy from a text file with one ``child parent`` pair per line.

    Lines starting with ``#`` and blank lines are ignored; a line with a single
    token declares an item without parents.
    """
    hierarchy = Hierarchy()
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) == 1:
                hierarchy.add_item(tokens[0])
            elif len(tokens) == 2:
                hierarchy.add_edge(tokens[0], tokens[1])
            else:
                raise CliError(
                    f"{path}:{line_number}: expected 'child parent' or 'item', got {line!r}"
                )
    return hierarchy


def load_input(args: Namespace) -> tuple[Dictionary, SequenceDatabase, list[tuple[str, ...]]]:
    """Load the sequence file and build (or read) the dictionary.

    Returns ``(dictionary, database, raw_sequences)``.  When a dictionary file
    is given it is used as-is (the paper's setting: the f-list is known);
    otherwise the dictionary is built from the sequences, optionally guided by
    a hierarchy file.
    """
    path = Path(args.sequences)
    if not path.exists():
        raise CliError(f"sequence file not found: {path}")
    raw = load_sequences(path, getattr(args, "sequence_format", None))
    if not raw:
        raise CliError(f"no sequences found in {path}")

    if getattr(args, "dictionary", None):
        dictionary_path = Path(args.dictionary)
        if not dictionary_path.exists():
            raise CliError(f"dictionary file not found: {dictionary_path}")
        dictionary = read_dictionary(dictionary_path)
        unknown = {gid for sequence in raw for gid in sequence if gid not in dictionary}
        if unknown:
            examples = ", ".join(sorted(unknown)[:5])
            raise CliError(
                f"{len(unknown)} items in {path} are missing from the dictionary "
                f"(e.g. {examples})"
            )
        database = SequenceDatabase.from_gid_sequences(dictionary, raw)
        return dictionary, database, raw

    hierarchy = None
    if getattr(args, "hierarchy", None):
        hierarchy_path = Path(args.hierarchy)
        if not hierarchy_path.exists():
            raise CliError(f"hierarchy file not found: {hierarchy_path}")
        hierarchy = read_hierarchy_file(hierarchy_path)
    dictionary, database = preprocess(raw, hierarchy)
    return dictionary, database, raw


# --------------------------------------------------------------------- output
def write_patterns(
    path: str | Path | None,
    patterns: Sequence[tuple[tuple[str, ...], int]],
    output_format: str = "tsv",
    stream=None,
) -> None:
    """Write decoded ``(pattern, frequency)`` rows to a file or a stream.

    ``tsv`` writes one tab-separated line per pattern (items joined by
    spaces); ``jsonl`` writes one JSON object per line.
    """
    stream = stream or sys.stdout
    handle = open(path, "w", encoding="utf-8") if path else None
    target = handle or stream
    try:
        for pattern, frequency in patterns:
            if output_format == "jsonl":
                record = {"pattern": list(pattern), "frequency": frequency}
                target.write(json.dumps(record, separators=(",", ":")))
                target.write("\n")
            else:
                target.write(f"{' '.join(pattern)}\t{frequency}\n")
    finally:
        if handle is not None:
            handle.close()


def print_metrics(metrics, stream=None) -> None:
    """Print the timing / shuffle metrics of one mining run."""
    stream = stream or sys.stdout
    summary = metrics.as_dict()
    stream.write(
        "map {:.3f}s  reduce {:.3f}s  total {:.3f}s  shuffle {:,} bytes modeled / "
        "{:,} bytes wire / {:,} records\n".format(
            summary["map_seconds"],
            summary["reduce_seconds"],
            summary["total_seconds"],
            int(summary["shuffle_bytes"]),
            int(summary["wire_bytes"]),
            int(summary["shuffle_records"]),
        )
    )
    if summary.get("spilled_buckets"):
        stream.write(
            "spilled {:,} bucket payloads / {:,} bytes past the budget\n".format(
                int(summary["spilled_buckets"]), int(summary["spilled_bytes"])
            )
        )
    if summary.get("blob_put_count") or summary.get("blob_get_count"):
        stream.write(
            "fragment store: {:,} puts / {:,} bytes up, {:,} gets / {:,} bytes down\n".format(
                int(summary["blob_put_count"]),
                int(summary["blob_put_bytes"]),
                int(summary["blob_get_count"]),
                int(summary["blob_get_bytes"]),
            )
        )
    if (
        summary.get("tasks_failed")
        or summary.get("task_retry_count")
        or summary.get("blob_retry_count")
        or summary.get("recovered_host_count")
    ):
        stream.write(
            "fault tolerance: {:,} task failures, {:,} task retries, "
            "{:,} blob retries, {:,} hosts recovered\n".format(
                int(summary["tasks_failed"]),
                int(summary["task_retry_count"]),
                int(summary["blob_retry_count"]),
                int(summary["recovered_host_count"]),
            )
        )
    if summary.get("map_input_pickle_bytes"):
        stream.write(
            "map input shipping {:,} pickled bytes\n".format(
                int(summary["map_input_pickle_bytes"])
            )
        )
    if summary.get("partition_max_bytes"):
        stream.write(
            "partition balance: max {:,} / mean {:,.0f} bytes, "
            "imbalance {:.2f}, modeled straggler {:.4f}s\n".format(
                int(summary["partition_max_bytes"]),
                summary["partition_mean_bytes"],
                summary["partition_imbalance"],
                summary["modeled_straggler_seconds"],
            )
        )
