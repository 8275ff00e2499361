"""``repro experiment``: regenerate tables and figures of the paper's evaluation."""

from __future__ import annotations

import sys
from argparse import Namespace

from repro.cli.common import (
    CliError,
    add_cap_arguments,
    add_fault_arguments,
    add_grid_argument,
    add_shuffle_arguments,
    backend_name,
    cluster_config_from_args,
    reject_cluster_flags,
)
from repro.experiments import (
    DEFAULT_WORKERS,
    figure9a,
    figure9b,
    figure9c,
    figure10a,
    figure10b,
    figure11_scalability,
    figure12_lash_setting,
    figure13_mllib_setting,
    format_table,
    grouped_bar_chart,
    multi_line_chart,
    table2_dataset_characteristics,
    table4_candidate_statistics,
    table5_speedup,
)
from repro.experiments.tables import TABLE5_WORKERS

#: Experiment name -> short description (shown by ``--list``).
EXPERIMENTS = {
    "table2": "dataset and hierarchy characteristics",
    "table4": "candidate subsequences per input sequence (CSPI)",
    "table5": "speed-up of D-SEQ / D-CAND over sequential DESQ-DFS",
    "fig9a": "flexible constraints N1-N5 on NYT: total time per algorithm",
    "fig9b": "flexible constraints A1-A4 on AMZN: total time per algorithm",
    "fig9c": "shuffle size for A1 and A4 on AMZN",
    "fig10a": "D-SEQ ablation (grid, rewrites, early stopping)",
    "fig10b": "D-CAND ablation (aggregating, minimizing NFAs)",
    "fig11": "data / strong / weak scalability",
    "fig12": "LASH setting: generalization overhead over the specialist",
    "fig13": "MLlib setting: PrefixSpan vs LASH vs D-SEQ vs D-CAND",
}


def add_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "experiment",
        help="regenerate a table or figure of the paper's evaluation",
        description=(
            "Run one of the paper's experiments on the synthetic datasets and "
            "print the reproduced table (and optionally an ASCII chart). "
            "Dataset sizes default to the library defaults; pass --sizes to "
            "scale them."
        ),
    )
    parser.add_argument(
        "--name",
        choices=sorted(EXPERIMENTS),
        help="which experiment to run (see --list)",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument(
        "--sizes",
        metavar="SPEC",
        default=None,
        help="dataset sizes as 'NYT=500,AMZN=1200,AMZN-F=1200,CW=800'",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"number of workers (default: {DEFAULT_WORKERS}, {TABLE5_WORKERS} for table5)",
    )
    parser.add_argument(
        "--backend",
        type=backend_name,
        default="simulated",
        metavar="NAME",
        help=(
            "execution backend: 'simulated' models the cluster makespan, "
            "'persistent-processes' (also spelled 'processes') executes on "
            "real local processes that share the encoded database via shared "
            "memory, 'multihost' additionally stages shuffle payloads through "
            "a blob store (default: simulated)"
        ),
    )
    add_shuffle_arguments(parser)
    add_fault_arguments(parser)
    add_grid_argument(parser)
    add_cap_arguments(parser)
    parser.add_argument("--chart", action="store_true", help="also print an ASCII chart")
    parser.set_defaults(run=run)


def parse_sizes(spec: str | None) -> dict[str, int] | None:
    """Parse a ``NAME=SIZE,NAME=SIZE`` specification."""
    if not spec:
        return None
    sizes: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CliError(f"invalid --sizes entry {part!r}; expected NAME=SIZE")
        name, _, value = part.partition("=")
        try:
            sizes[name.strip().upper()] = int(value)
        except ValueError as error:
            raise CliError(f"invalid size {value!r} for dataset {name!r}") from error
    return sizes


def run(args: Namespace, stream=None) -> int:
    stream = stream or sys.stdout
    if args.list or not args.name:
        rows = [{"experiment": name, "description": text} for name, text in EXPERIMENTS.items()]
        stream.write(format_table(rows))
        stream.write("\n")
        if not args.name:
            return 0

    sizes = parse_sizes(args.sizes)
    name = args.name
    workers = args.workers
    if workers is None:
        workers = TABLE5_WORKERS if name == "table5" else DEFAULT_WORKERS
    options = {
        "cluster": cluster_config_from_args(args, num_workers=workers),
        "max_runs": args.max_runs,
        "max_candidates": args.max_candidates,
    }

    if name in ("table2", "table4"):
        # These tables report dataset/candidate statistics; nothing is mined,
        # so silently accepting the cluster flags would misrepresent the numbers.
        reject_cluster_flags(args, name)
        if args.max_runs is not None or args.max_candidates is not None:
            raise CliError(
                f"--max-runs/--max-candidates do not apply to {name} "
                "(its candidate statistics use fixed caps)"
            )

    if name == "table2":
        rows = table2_dataset_characteristics(sizes)
    elif name == "table4":
        rows = table4_candidate_statistics(sizes)
    elif name == "table5":
        rows = table5_speedup(sizes=sizes, **options)
    elif name == "fig9a":
        rows = figure9a(size=(sizes or {}).get("NYT"), **options)
    elif name == "fig9b":
        rows = figure9b(size=(sizes or {}).get("AMZN"), **options)
    elif name == "fig9c":
        rows = figure9c(size=(sizes or {}).get("AMZN"), **options)
    elif name == "fig10a":
        rows = figure10a(sizes=sizes, **options)
    elif name == "fig10b":
        rows = figure10b(sizes=sizes, **options)
    elif name == "fig11":
        results = figure11_scalability(base_size=(sizes or {}).get("AMZN-F"), **options)
        for kind, series_rows in results.items():
            stream.write(f"\nFig. 11 ({kind} scalability):\n")
            stream.write(format_table(series_rows))
            stream.write("\n")
            if args.chart:
                series = {
                    "dseq": [(row.get("workers", row.get("fraction")), row["dseq_s"]) for row in series_rows],
                    "dcand": [(row.get("workers", row.get("fraction")), row["dcand_s"]) for row in series_rows],
                }
                stream.write(multi_line_chart(series, x_label=kind, y_label="seconds"))
                stream.write("\n")
        return 0
    elif name == "fig12":
        rows = figure12_lash_setting(sizes=sizes, **options)
    elif name == "fig13":
        rows = figure13_mllib_setting(size=(sizes or {}).get("AMZN"), **options)
    else:  # pragma: no cover - argparse restricts the choices
        raise CliError(f"unknown experiment {name!r}")

    stream.write(f"\n{name}: {EXPERIMENTS[name]}\n")
    stream.write(format_table(rows))
    stream.write("\n")

    if args.chart and rows and "total_s" in rows[0]:
        group_key = "constraint" if "constraint" in rows[0] else "dataset"
        label_key = "algorithm" if "algorithm" in rows[0] else "variant"
        stream.write("\n")
        stream.write(
            grouped_bar_chart(
                rows, group_key, label_key, "total_s", title=f"{name} (total seconds)",
                log_scale=True, unit="s",
            )
        )
        stream.write("\n")
    return 0
