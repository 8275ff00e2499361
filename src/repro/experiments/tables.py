"""Regeneration of the paper's tables (Table II, IV, V)."""

from __future__ import annotations

import statistics

from repro.datasets import Constraint
from repro.errors import CandidateExplosionError
from repro.experiments.configs import (
    PreparedDataset,
    prepare_dataset,
    table4_constraints,
)
from repro.experiments.harness import run_algorithm
from repro.fst import generate_candidates, make_kernel
from repro.mapreduce import ClusterConfig


# -------------------------------------------------------------------- Table II
def table2_dataset_characteristics(sizes: dict[str, int] | None = None) -> list[dict]:
    """Table II: dataset and hierarchy characteristics of the four datasets."""
    rows = []
    for name in ("NYT", "AMZN", "AMZN-F", "CW"):
        prepared = prepare_dataset(name, (sizes or {}).get(name))
        stats = prepared.database.statistics()
        hierarchy = prepared.dictionary.hierarchy_stats()
        rows.append(
            {
                "dataset": name,
                "sequences": stats.sequence_count,
                "total_items": stats.total_items,
                "unique_items": stats.unique_items,
                "max_length": stats.max_length,
                "mean_length": round(stats.mean_length, 1),
                "hierarchy_items": hierarchy["items"],
                "max_ancestors": hierarchy["max_ancestors"],
                "mean_ancestors": round(hierarchy["mean_ancestors"], 1),
            }
        )
    return rows


# -------------------------------------------------------------------- Table IV
def candidate_statistics(
    prepared: PreparedDataset,
    constraint: Constraint,
    max_candidates_per_sequence: int = 20_000,
    max_runs: int = 20_000,
) -> dict:
    """CSPI statistics of one constraint on one dataset (one Table IV row).

    Sequences whose candidate set exceeds the cap contribute the cap value
    (mirroring the paper's sampling-based estimate for the loosest settings).
    """
    kernel = make_kernel(constraint.patex().compile(prepared.dictionary), prepared.dictionary)
    counts = []
    matched = 0
    capped = 0
    for sequence in prepared.database:
        try:
            candidates = generate_candidates(
                kernel,
                sequence,
                sigma=constraint.sigma,
                max_runs=max_runs,
                max_candidates=max_candidates_per_sequence,
            )
            count = len(candidates)
        except CandidateExplosionError:
            count = max_candidates_per_sequence
            capped += 1
        if count > 0:
            matched += 1
            counts.append(count)
    total = len(prepared.database)
    return {
        "constraint": constraint.name,
        "dataset": prepared.name,
        "matched_pct": round(100.0 * matched / total, 1) if total else 0.0,
        "total_candidates": sum(counts),
        "cspi_mean": round(statistics.mean(counts), 1) if counts else 0.0,
        "cspi_median": statistics.median(counts) if counts else 0,
        "capped_sequences": capped,
    }


def table4_candidate_statistics(sizes: dict[str, int] | None = None) -> list[dict]:
    """Table IV: candidate subsequence statistics for all evaluated constraints."""
    rows = []
    for dataset_name, constraint in table4_constraints():
        prepared = prepare_dataset(dataset_name, (sizes or {}).get(dataset_name))
        rows.append(candidate_statistics(prepared, constraint))
    return rows


# --------------------------------------------------------------------- Table V
#: Worker count used for Table V.  The paper runs the distributed algorithms on
#: 65 CPU cores (8 executors x 8 cores + driver) against DESQ-DFS on 1 core; the
#: simulated-cluster equivalent is 64 map/reduce workers.
TABLE5_WORKERS = 64

#: Table V's default substrate: :data:`TABLE5_WORKERS` modelled workers.
TABLE5_CLUSTER = ClusterConfig(num_workers=TABLE5_WORKERS)


def table5_speedup(
    entries: list[tuple[str, Constraint]] | None = None,
    sizes: dict[str, int] | None = None,
    cluster: ClusterConfig = TABLE5_CLUSTER,
    max_runs: int | None = None,
    max_candidates: int | None = None,
) -> list[dict]:
    """Table V: speed-up of D-SEQ and D-CAND over sequential DESQ-DFS.

    Speed-ups compare the sequential run time against the makespan of the
    distributed algorithms on ``cluster`` (the paper uses 65 cores for the
    distributed algorithms and 1 core for DESQ-DFS; the default,
    :data:`TABLE5_CLUSTER`, models that cluster in-process).
    """
    from repro.datasets import constraint as make_constraint
    from repro.experiments.configs import SCALED_SIGMA

    if entries is None:
        entries = [
            ("NYT", make_constraint("N4", SCALED_SIGMA["N4"])),
            ("NYT", make_constraint("N5", SCALED_SIGMA["N5"])),
            ("AMZN-F", make_constraint("T3", SCALED_SIGMA["T3"], 1, 5)),
            ("AMZN-F", make_constraint("T3", 4 * SCALED_SIGMA["T3"], 1, 5)),
            ("CW", make_constraint("T2", SCALED_SIGMA["T2"], 0, 5)),
        ]
    rows = []
    for dataset_name, constraint in entries:
        prepared = prepare_dataset(dataset_name, (sizes or {}).get(dataset_name))
        # DESQ-DFS mines in-process on one core; it takes no substrate.
        sequential = run_algorithm(
            "desq-dfs", constraint, prepared.dictionary, prepared.database,
            dataset_name=dataset_name,
        )
        dseq, dcand = (
            run_algorithm(
                algorithm, constraint, prepared.dictionary, prepared.database,
                dataset_name=dataset_name, cluster=cluster,
                max_runs=max_runs, max_candidates=max_candidates,
            )
            for algorithm in ("dseq", "dcand")
        )
        row = {
            "constraint": constraint.name,
            "dataset": dataset_name,
            "desq_dfs_s": round(sequential.metrics.total_seconds, 3),
            "dseq_s": round(dseq.metrics.total_seconds, 3),
            "dcand_s": round(dcand.metrics.total_seconds, 3),
            # The map/reduce split of each distributed makespan: map-side
            # costs (grid engine, corpus dedup pass) stay visible per algorithm.
            "dseq_map_s": round(dseq.metrics.map_seconds, 3),
            "dseq_reduce_s": round(dseq.metrics.reduce_seconds, 3),
            "dcand_map_s": round(dcand.metrics.map_seconds, 3),
            "dcand_reduce_s": round(dcand.metrics.reduce_seconds, 3),
            "dseq_wire_bytes": dseq.metrics.wire_bytes,
            "dcand_wire_bytes": dcand.metrics.wire_bytes,
            "dseq_input_pickle_bytes": dseq.metrics.map_input_pickle_bytes,
            "dcand_input_pickle_bytes": dcand.metrics.map_input_pickle_bytes,
        }
        for record, key in ((dseq, "dseq_speedup"), (dcand, "dcand_speedup")):
            seconds = record.metrics.total_seconds
            if record.status == "ok" and seconds > 0:
                row[key] = round(sequential.metrics.total_seconds / seconds, 1)
            else:
                row[key] = "n/a"
        rows.append(row)
    return rows
