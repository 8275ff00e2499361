"""``repro mine``: frequent sequence mining under a flexible constraint."""

from __future__ import annotations

import sys
from argparse import Namespace

from repro.cli.common import (
    CliError,
    add_cap_arguments,
    add_fault_arguments,
    add_input_arguments,
    add_shuffle_arguments,
    backend_name,
    cluster_config_from_args,
    load_input,
    print_metrics,
    reject_cluster_flags,
    write_patterns,
)
from repro.api.session import ALGORITHM_TABLE, MAX_CANDIDATES, MAX_RUNS, mine
from repro.datasets import CONSTRAINT_FACTORIES, constraint as make_constraint
from repro.errors import CandidateExplosionError

#: Algorithms selectable on the command line: those that mine a pattern
#: expression (the gap/length miners take no ``--pattern``).
ALGORITHM_CHOICES = tuple(
    name for name, algorithm in ALGORITHM_TABLE.items() if algorithm.gap_parameters is None
)


def add_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "mine",
        help="mine frequent sequences under a pattern-expression constraint",
        description=(
            "Mine all frequent subsequences of the input that match a DESQ "
            "pattern expression, using one of the distributed algorithms "
            "(D-SEQ, D-CAND), a baseline, or a sequential reference miner."
        ),
    )
    add_input_arguments(parser)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--pattern",
        metavar="EXPR",
        help="a DESQ pattern expression, e.g. '.*(A)[(.^)|.]*(b).*'",
    )
    group.add_argument(
        "--constraint",
        metavar="NAME",
        choices=sorted(CONSTRAINT_FACTORIES),
        help="one of the Table III constraints (N1-N5, A1-A4, T1-T3)",
    )
    parser.add_argument("--sigma", type=int, required=True, help="minimum support σ")
    parser.add_argument(
        "--algorithm",
        choices=ALGORITHM_CHOICES,
        default="dseq",
        help="mining algorithm (default: dseq)",
    )
    parser.add_argument("--workers", type=int, default=8, help="number of workers")
    parser.add_argument(
        "--backend",
        type=backend_name,
        default="simulated",
        metavar="NAME",
        help=(
            "execution backend for the distributed algorithms: 'simulated' "
            "models the cluster makespan in-process, 'persistent-processes' "
            "(also spelled 'processes') runs on a local process pool for real "
            "wall-clock speed-ups and publishes the encoded database as a file "
            "in the run directory that the workers map, so tasks ship chunk "
            "descriptors instead of pickled sequences, 'multihost' runs the "
            "same process pool but "
            "stages every shuffle payload through a blob store in the run "
            "directory (see --spill-dir) (default: simulated)"
        ),
    )
    add_shuffle_arguments(parser)
    add_fault_arguments(parser)
    add_cap_arguments(parser)
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write patterns to this file instead of stdout",
    )
    parser.add_argument(
        "--output-format",
        choices=("tsv", "jsonl"),
        default="tsv",
        help="pattern output format (default: tsv)",
    )
    parser.add_argument(
        "--top", type=int, default=0, help="only report the K most frequent patterns"
    )
    parser.add_argument(
        "--metrics", action="store_true", help="print map/reduce timing and shuffle size"
    )
    parser.set_defaults(run=run)


def _resolve_expression(args: Namespace) -> str:
    if args.pattern:
        return args.pattern
    factory_args = (args.sigma,)
    return make_constraint(args.constraint, *factory_args).expression


def run(args: Namespace, stream=None) -> int:
    stream = stream or sys.stdout
    if args.sigma < 1:
        raise CliError(f"--sigma must be >= 1, got {args.sigma}")
    dictionary, database, _raw = load_input(args)
    expression = _resolve_expression(args)

    algorithm = ALGORITHM_TABLE[args.algorithm]
    if not algorithm.cluster:
        # Sequential reference miners run in-process and never shuffle;
        # silently accepting the cluster flags would misrepresent the run.
        reject_cluster_flags(args, f"the sequential {args.algorithm} miner")
    if args.max_runs is not None and MAX_RUNS not in algorithm.caps:
        raise CliError(f"--max-runs does not apply to {args.algorithm}")
    if args.max_candidates is not None and MAX_CANDIDATES not in algorithm.caps:
        raise CliError(
            f"--max-candidates does not apply to {args.algorithm} "
            "(it never enumerates candidate sets)"
        )
    for flag, value in (("--max-runs", args.max_runs), ("--max-candidates", args.max_candidates)):
        if value is not None and value < 1:
            raise CliError(f"{flag} must be >= 1, got {value}")

    caps = {}
    if args.max_runs is not None:
        caps[MAX_RUNS] = args.max_runs
    if args.max_candidates is not None:
        caps[MAX_CANDIDATES] = args.max_candidates
    try:
        result = mine(
            (database, dictionary),
            expression,
            sigma=args.sigma,
            algorithm=args.algorithm,
            config=cluster_config_from_args(args, num_workers=args.workers),
            **caps,
        )
    except CandidateExplosionError as error:
        raise CliError(
            f"the constraint produced too many candidates ({error}); "
            "try a more selective pattern, a higher σ, or --algorithm dseq"
        ) from error

    decoded = result.top(args.top, dictionary) if args.top else [
        (dictionary.decode(pattern), frequency)
        for pattern, frequency in result.sorted_patterns()
    ]
    write_patterns(args.output, decoded, args.output_format, stream=stream)
    if args.output:
        stream.write(f"wrote {len(decoded)} patterns to {args.output}\n")
    stream.write(
        f"{args.algorithm}: {len(result)} frequent patterns "
        f"(σ={args.sigma}, pattern {expression!r})\n"
    )
    if args.metrics:
        print_metrics(result.metrics, stream=stream)
    return 0
