"""Regeneration of the paper's figures (Fig. 9–13) as data series."""

from __future__ import annotations

from dataclasses import replace

from repro.core import DCandMiner, DSeqMiner
from repro.datasets import constraint as make_constraint
from repro.errors import CandidateExplosionError
from repro.experiments.configs import (
    DEFAULT_CLUSTER,
    SCALED_SIGMA,
    figure9a_constraints,
    figure9b_constraints,
    prepare_dataset,
)
from repro.experiments.harness import RunRecord, run_algorithm, run_comparison
from repro.mapreduce import ClusterConfig

#: The algorithms compared in Fig. 9.
FIGURE9_ALGORITHMS = ("naive", "semi-naive", "dseq", "dcand")


# --------------------------------------------------------------------- Fig. 9
def figure9a(
    size: int | None = None,
    cluster: ClusterConfig = DEFAULT_CLUSTER,
    max_runs: int | None = None,
    max_candidates: int | None = None,
) -> list[dict]:
    """Fig. 9a: total time per algorithm for N1–N5 on the NYT-like dataset."""
    prepared = prepare_dataset("NYT", size)
    rows = []
    for constraint in figure9a_constraints():
        for record in run_comparison(
            list(FIGURE9_ALGORITHMS), constraint, prepared.dictionary, prepared.database,
            dataset_name="NYT", cluster=cluster,
            max_runs=max_runs, max_candidates=max_candidates,
        ):
            rows.append(record.as_row())
    return rows


def figure9b(
    size: int | None = None,
    cluster: ClusterConfig = DEFAULT_CLUSTER,
    max_runs: int | None = None,
    max_candidates: int | None = None,
) -> list[dict]:
    """Fig. 9b: total time per algorithm for A1–A4 on the AMZN-like dataset."""
    prepared = prepare_dataset("AMZN", size)
    rows = []
    for constraint in figure9b_constraints():
        for record in run_comparison(
            list(FIGURE9_ALGORITHMS), constraint, prepared.dictionary, prepared.database,
            dataset_name="AMZN", cluster=cluster,
            max_runs=max_runs, max_candidates=max_candidates,
        ):
            rows.append(record.as_row())
    return rows


def figure9c(
    size: int | None = None,
    cluster: ClusterConfig = DEFAULT_CLUSTER,
    max_runs: int | None = None,
    max_candidates: int | None = None,
) -> list[dict]:
    """Fig. 9c: shuffle size per algorithm for A1 and A4 on the AMZN-like dataset."""
    prepared = prepare_dataset("AMZN", size)
    rows = []
    for constraint in (
        make_constraint("A1", SCALED_SIGMA["A1"]),
        make_constraint("A4", SCALED_SIGMA["A4"]),
    ):
        for record in run_comparison(
            list(FIGURE9_ALGORITHMS), constraint, prepared.dictionary, prepared.database,
            dataset_name="AMZN", cluster=cluster,
            max_runs=max_runs, max_candidates=max_candidates,
        ):
            row = record.as_row()
            rows.append(
                {
                    "constraint": row["constraint"],
                    "algorithm": row["algorithm"],
                    "status": row["status"],
                    "total_s": row["total_s"],
                    "map_s": row["map_s"],
                    "reduce_s": row["reduce_s"],
                    "shuffle_bytes": row["shuffle_bytes"],
                    "wire_bytes": row["wire_bytes"],
                    "input_pickle_bytes": row["input_pickle_bytes"],
                }
            )
    return rows


# -------------------------------------------------------------------- Fig. 10
#: D-SEQ variants of Fig. 10a, from "everything off" to the full algorithm.
DSEQ_ABLATION_VARIANTS = (
    ("no stop, no rewrites, no grid", {
        "use_grid": False, "use_rewriting": False, "use_early_stopping": False}),
    ("no stop, no rewrites", {"use_rewriting": False, "use_early_stopping": False}),
    ("no stop", {"use_early_stopping": False}),
    ("D-SEQ", {}),
)

#: D-CAND variants of Fig. 10b.
DCAND_ABLATION_VARIANTS = (
    ("tries, no agg", {"minimize_nfas": False, "aggregate_nfas": False}),
    ("tries", {"minimize_nfas": False}),
    ("D-CAND", {}),
)


def figure10a(
    constraints: list | None = None,
    sizes: dict[str, int] | None = None,
    cluster: ClusterConfig = DEFAULT_CLUSTER,
    max_runs: int | None = None,
    max_candidates: int | None = None,
) -> list[dict]:
    """Fig. 10a: effect of the grid, rewrites, and early stopping in D-SEQ."""
    if constraints is None:
        constraints = [
            ("AMZN", make_constraint("A1", SCALED_SIGMA["A1"])),
            ("NYT", make_constraint("N5", SCALED_SIGMA["N5"])),
            ("AMZN-F", make_constraint("T3", SCALED_SIGMA["T3"], 1, 6)),
            ("AMZN-F", make_constraint("T3", 10 * SCALED_SIGMA["T3"], 3, 5)),
        ]
    rows = []
    for dataset_name, constraint in constraints:
        prepared = prepare_dataset(dataset_name, (sizes or {}).get(dataset_name))
        for variant_name, options in DSEQ_ABLATION_VARIANTS:
            if max_runs is not None:
                options = {**options, "max_runs": max_runs}
            miner = DSeqMiner(
                constraint.expression, constraint.sigma, prepared.dictionary,
                cluster=cluster, **options,
            )
            result = miner.mine(prepared.database)
            rows.append(
                {
                    "constraint": constraint.name,
                    "dataset": dataset_name,
                    "variant": variant_name,
                    "total_s": round(result.metrics.total_seconds, 3),
                    "map_s": round(result.metrics.map_seconds, 3),
                    "reduce_s": round(result.metrics.reduce_seconds, 3),
                    "patterns": len(result),
                }
            )
    return rows


def figure10b(
    constraints: list | None = None,
    sizes: dict[str, int] | None = None,
    cluster: ClusterConfig = DEFAULT_CLUSTER,
    max_runs: int | None = None,
    max_candidates: int | None = None,
) -> list[dict]:
    """Fig. 10b: effect of aggregating and minimizing NFAs in D-CAND."""
    if constraints is None:
        constraints = [
            ("AMZN", make_constraint("A1", SCALED_SIGMA["A1"])),
            ("NYT", make_constraint("N4", SCALED_SIGMA["N4"])),
            ("AMZN-F", make_constraint("T3", SCALED_SIGMA["T3"], 1, 6)),
        ]
    rows = []
    for dataset_name, constraint in constraints:
        prepared = prepare_dataset(dataset_name, (sizes or {}).get(dataset_name))
        for variant_name, options in DCAND_ABLATION_VARIANTS:
            if max_runs is not None:
                options = {**options, "max_runs": max_runs}
            miner = DCandMiner(
                constraint.expression, constraint.sigma, prepared.dictionary,
                cluster=cluster, **options,
            )
            try:
                result = miner.mine(prepared.database)
            except CandidateExplosionError:
                rows.append(
                    {
                        "constraint": constraint.name,
                        "dataset": dataset_name,
                        "variant": variant_name,
                        "total_s": "oom",
                        "map_s": "oom",
                        "reduce_s": "oom",
                        "shuffle_bytes": "oom",
                        "patterns": 0,
                    }
                )
                continue
            rows.append(
                {
                    "constraint": constraint.name,
                    "dataset": dataset_name,
                    "variant": variant_name,
                    "total_s": round(result.metrics.total_seconds, 3),
                    "map_s": round(result.metrics.map_seconds, 3),
                    "reduce_s": round(result.metrics.reduce_seconds, 3),
                    "shuffle_bytes": result.metrics.shuffle_bytes,
                    "patterns": len(result),
                }
            )
    return rows


# -------------------------------------------------------------------- Fig. 11
def figure11_scalability(
    base_size: int | None = None,
    fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    worker_counts: tuple[int, ...] = (2, 4, 8),
    base_sigma: int | None = None,
    cluster: ClusterConfig = DEFAULT_CLUSTER,
    max_runs: int | None = None,
    max_candidates: int | None = None,
) -> dict[str, list[dict]]:
    """Fig. 11: data, strong, and weak scalability of D-SEQ and D-CAND.

    The workload is T3(σ, 1, 5) on the AMZN-F-like dataset; σ is scaled with the
    data fraction exactly as in the paper (σ = 25/50/75/100 for 25–100 %).
    """
    prepared = prepare_dataset("AMZN-F", base_size)
    base_sigma = base_sigma or SCALED_SIGMA["T3"]
    samples = {
        fraction: prepared.database.sample(fraction, seed=7) if fraction < 1.0 else prepared.database
        for fraction in fractions
    }

    def run(fraction: float, workers: int) -> tuple[RunRecord, ...]:
        sigma = max(2, round(base_sigma * fraction))
        constraint = make_constraint("T3", sigma, 1, 5)
        worker_cluster = replace(cluster, num_workers=workers)
        return tuple(
            run_algorithm(
                algorithm, constraint, prepared.dictionary, samples[fraction],
                dataset_name="AMZN-F", cluster=worker_cluster,
                max_runs=max_runs, max_candidates=max_candidates,
            )
            for algorithm in ("dseq", "dcand")
        )

    results: dict[str, list[dict]] = {"data": [], "strong": [], "weak": []}

    # (a) data scalability: fixed worker count, growing data.
    max_workers = max(worker_counts)
    for fraction in fractions:
        dseq, dcand = run(fraction, max_workers)
        results["data"].append(
            {
                "fraction": fraction,
                "workers": max_workers,
                "dseq_s": round(dseq.metrics.total_seconds, 3),
                "dcand_s": round(dcand.metrics.total_seconds, 3),
            }
        )

    # (b) strong scalability: full data, growing workers.
    for workers in worker_counts:
        dseq, dcand = run(1.0, workers)
        results["strong"].append(
            {
                "workers": workers,
                "fraction": 1.0,
                "dseq_s": round(dseq.metrics.total_seconds, 3),
                "dcand_s": round(dcand.metrics.total_seconds, 3),
            }
        )

    # (c) weak scalability: data and workers grow together.
    paired_fractions = fractions[-len(worker_counts):]
    for workers, fraction in zip(worker_counts, paired_fractions):
        dseq, dcand = run(fraction, workers)
        results["weak"].append(
            {
                "workers": workers,
                "fraction": fraction,
                "dseq_s": round(dseq.metrics.total_seconds, 3),
                "dcand_s": round(dcand.metrics.total_seconds, 3),
            }
        )
    return results


# -------------------------------------------------------------------- Fig. 12
def figure12_lash_setting(
    sizes: dict[str, int] | None = None,
    cluster: ClusterConfig = DEFAULT_CLUSTER,
    max_runs: int | None = None,
    max_candidates: int | None = None,
) -> list[dict]:
    """Fig. 12: LASH vs D-SEQ vs D-CAND in the specialist gap/length setting."""
    entries = [
        ("AMZN-F", make_constraint("T3", SCALED_SIGMA["T3"], 1, 5)),
        ("AMZN-F", make_constraint("T3", max(2, SCALED_SIGMA["T3"] // 2), 1, 5)),
        ("AMZN-F", make_constraint("T3", SCALED_SIGMA["T3"], 2, 5)),
        ("AMZN-F", make_constraint("T3", SCALED_SIGMA["T3"], 1, 6)),
        ("CW", make_constraint("T2", SCALED_SIGMA["T2"], 0, 5)),
        ("CW", make_constraint("T2", 4 * SCALED_SIGMA["T2"], 0, 5)),
    ]
    rows = []
    for dataset_name, constraint in entries:
        prepared = prepare_dataset(dataset_name, (sizes or {}).get(dataset_name))
        specialist = "lash" if constraint.key == "T3" else "mg-fsm"
        for algorithm in (specialist, "dseq", "dcand"):
            record = run_algorithm(
                algorithm, constraint, prepared.dictionary, prepared.database,
                dataset_name=dataset_name, cluster=cluster,
                max_runs=max_runs, max_candidates=max_candidates,
            )
            rows.append(record.as_row())
    return rows


# -------------------------------------------------------------------- Fig. 13
def figure13_mllib_setting(
    sigmas: tuple[int, ...] = (100, 50, 25, 10, 5),
    max_length: int = 5,
    size: int | None = None,
    cluster: ClusterConfig = DEFAULT_CLUSTER,
    max_runs: int | None = None,
    max_candidates: int | None = None,
) -> list[dict]:
    """Fig. 13: MLlib (PrefixSpan) setting T1(σ, 5) with decreasing σ on AMZN."""
    prepared = prepare_dataset("AMZN", size)
    rows = []
    for sigma in sigmas:
        constraint = make_constraint("T1", sigma, max_length)
        for algorithm in ("prefixspan", "lash", "dseq", "dcand"):
            record = run_algorithm(
                algorithm, constraint, prepared.dictionary, prepared.database,
                dataset_name="AMZN", cluster=cluster,
                max_runs=max_runs, max_candidates=max_candidates,
            )
            row = record.as_row()
            row["sigma"] = sigma
            rows.append(row)
    return rows
