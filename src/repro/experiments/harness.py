"""Experiment harness: run one algorithm on one constraint and record metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core import DCandMiner, DSeqMiner, NaiveMiner, SemiNaiveMiner
from repro.datasets import Constraint
from repro.dictionary import Dictionary
from repro.errors import CandidateExplosionError, MiningError
from repro.mapreduce import ClusterConfig
from repro.sequences import SequenceDatabase
from repro.sequential import (
    GapConstrainedMiner,
    PrefixSpanMiner,
    SequentialDesqCount,
    SequentialDesqDfs,
)


@dataclass
class RunRecord:
    """Measurements of one (algorithm, constraint, dataset) run."""

    algorithm: str
    constraint: str
    dataset: str
    status: str = "ok"  # "ok" or "oom" (candidate/run explosion)
    backend: str = "simulated"
    total_seconds: float = 0.0
    map_seconds: float = 0.0
    reduce_seconds: float = 0.0
    wall_seconds: float = 0.0
    shuffle_bytes: int = 0
    shuffle_records: int = 0
    wire_bytes: int = 0
    spilled_buckets: int = 0
    input_pickle_bytes: int = 0
    # Blob traffic of the multihost backend; zero everywhere else.  Kept out
    # of as_row() so the committed BENCH goldens keep their exact shape.
    blob_put_count: int = 0
    blob_put_bytes: int = 0
    blob_get_count: int = 0
    blob_get_bytes: int = 0
    # Fault-tolerance accounting (zero on fault-free runs); kept out of
    # as_row() so the committed BENCH goldens keep their exact shape.
    tasks_failed: int = 0
    task_retry_count: int = 0
    blob_retry_count: int = 0
    recovered_host_count: int = 0
    num_patterns: int = 0
    num_workers: int = 1
    partitioner: str = "hash"
    partition_max_bytes: int = 0
    partition_mean_bytes: float = 0.0
    partition_imbalance: float = 1.0
    modeled_straggler_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        # ``total_s`` is always the ``map_s``/``reduce_s`` sum: the split
        # keeps map-side wins (grid engine, dedup) visible in every report.
        # Four decimals: tiny regression-scale runs finish in milliseconds,
        # and the committed BENCH artifacts must resolve the stage split.
        return {
            "algorithm": self.algorithm,
            "constraint": self.constraint,
            "dataset": self.dataset,
            "status": self.status,
            "total_s": round(self.total_seconds, 4),
            "map_s": round(self.map_seconds, 4),
            "reduce_s": round(self.reduce_seconds, 4),
            "shuffle_bytes": self.shuffle_bytes,
            "wire_bytes": self.wire_bytes,
            "input_pickle_bytes": self.input_pickle_bytes,
            "patterns": self.num_patterns,
        }

    def balance_row(self) -> dict:
        # Reduce-partition balance of the run, for the BENCH "balance"
        # sections; ``as_row`` stays untouched so the committed goldens and
        # the CI byte-count baselines keep their exact historical shape.
        return {
            "algorithm": self.algorithm,
            "constraint": self.constraint,
            "dataset": self.dataset,
            "partitioner": self.partitioner,
            "shuffle_bytes": self.shuffle_bytes,
            "partition_max_bytes": self.partition_max_bytes,
            "partition_mean_bytes": round(self.partition_mean_bytes, 1),
            "partition_imbalance": round(self.partition_imbalance, 3),
            "modeled_straggler_s": round(self.modeled_straggler_seconds, 6),
        }


#: Caps used to emulate the paper's out-of-memory failures on loose constraints.
OOM_MAX_RUNS = 20_000
OOM_MAX_CANDIDATES = 50_000


def build_miner(
    algorithm: str,
    constraint: Constraint,
    dictionary: Dictionary,
    num_workers: int,
    cluster: ClusterConfig | None = None,
    max_runs: int | None = None,
    max_candidates: int | None = None,
    **options,
):
    """Instantiate a miner by algorithm name for the given constraint.

    The execution substrate is one :class:`~repro.mapreduce.ClusterConfig`
    passed as ``cluster``; the sequential reference miners ignore it.
    ``max_runs`` / ``max_candidates`` override the per-sequence safety caps;
    by default the harness applies the tighter :data:`OOM_MAX_RUNS` /
    :data:`OOM_MAX_CANDIDATES` to the candidate-enumerating algorithms to
    emulate the paper's out-of-memory failures.
    """
    name = algorithm.lower()
    patex = constraint.expression
    sigma = constraint.sigma
    config = ClusterConfig.resolve(cluster, num_workers=num_workers)
    if config.num_workers is None:
        config = config.merged(num_workers=num_workers)
    if name in ("dseq", "d-seq"):
        if max_runs is not None:
            options.setdefault("max_runs", max_runs)
        return DSeqMiner(patex, sigma, dictionary, cluster=config, **options)
    if name in ("dcand", "d-cand"):
        runs_cap = max_runs if max_runs is not None else options.pop("max_runs", OOM_MAX_RUNS)
        return DCandMiner(
            patex, sigma, dictionary, cluster=config, max_runs=runs_cap, **options,
        )
    if name in ("naive", "semi-naive", "seminaive"):
        miner_class = NaiveMiner if name == "naive" else SemiNaiveMiner
        return miner_class(
            patex, sigma, dictionary, cluster=config,
            max_candidates_per_sequence=(
                max_candidates if max_candidates is not None else OOM_MAX_CANDIDATES
            ),
            max_runs=max_runs if max_runs is not None else OOM_MAX_RUNS,
        )
    if name == "desq-dfs":
        return SequentialDesqDfs(patex, sigma, dictionary)
    if name == "desq-count":
        return SequentialDesqCount(
            patex, sigma, dictionary,
            **(
                {"max_candidates_per_sequence": max_candidates}
                if max_candidates is not None
                else {}
            ),
            **({"max_runs": max_runs} if max_runs is not None else {}),
        )
    if name in ("lash", "mg-fsm", "mgfsm"):
        spec = constraint.specialized or {}
        return GapConstrainedMiner(
            sigma,
            dictionary,
            max_gap=spec.get("max_gap", 1),
            max_length=spec.get("max_length", 5),
            min_length=spec.get("min_length", 2),
            use_hierarchy=spec.get("use_hierarchy", name == "lash"),
            cluster=config,
        )
    if name in ("prefixspan", "mllib"):
        spec = constraint.specialized or {}
        return PrefixSpanMiner(sigma, spec.get("max_length", 5), dictionary)
    raise MiningError(f"unknown algorithm {algorithm!r}")


def run_algorithm(
    algorithm: str,
    constraint: Constraint,
    dictionary: Dictionary,
    database: SequenceDatabase,
    num_workers: int = 8,
    dataset_name: str | None = None,
    cluster: ClusterConfig | None = None,
    max_runs: int | None = None,
    max_candidates: int | None = None,
    **options,
) -> RunRecord:
    """Run one algorithm and collect a :class:`RunRecord`.

    Candidate or run explosions (the reproduction's analogue of the paper's
    out-of-memory failures) are caught and reported as ``status="oom"``.
    The execution substrate is one ``cluster=ClusterConfig(...)`` (the legacy
    ``backend`` / ``codec`` / ``spill_budget_bytes`` keywords were removed).
    """
    config = ClusterConfig.resolve(cluster, num_workers=num_workers)
    backend_label = (
        config.backend
        if isinstance(config.backend, str)
        else getattr(config.backend, "backend_name", "cluster")
    )
    record = RunRecord(
        algorithm=algorithm,
        constraint=constraint.name,
        dataset=dataset_name or constraint.dataset,
        num_workers=num_workers,
        backend=backend_label,
    )
    miner = build_miner(
        algorithm, constraint, dictionary, num_workers, cluster=config,
        max_runs=max_runs, max_candidates=max_candidates, **options,
    )
    started = time.perf_counter()
    try:
        result = miner.mine(database)
    except CandidateExplosionError as error:
        record.status = "oom"
        record.wall_seconds = time.perf_counter() - started
        record.extra["error"] = str(error)
        return record
    record.wall_seconds = time.perf_counter() - started
    metrics = result.metrics
    record.total_seconds = metrics.total_seconds
    record.map_seconds = metrics.map_seconds
    record.reduce_seconds = metrics.reduce_seconds
    record.shuffle_bytes = metrics.shuffle_bytes
    record.shuffle_records = metrics.shuffle_records
    record.wire_bytes = metrics.wire_bytes
    record.spilled_buckets = metrics.spilled_buckets
    record.input_pickle_bytes = metrics.map_input_pickle_bytes
    record.blob_put_count = metrics.blob_put_count
    record.blob_put_bytes = metrics.blob_put_bytes
    record.blob_get_count = metrics.blob_get_count
    record.blob_get_bytes = metrics.blob_get_bytes
    record.tasks_failed = metrics.tasks_failed
    record.task_retry_count = metrics.task_retry_count
    record.blob_retry_count = metrics.blob_retry_count
    record.recovered_host_count = metrics.recovered_host_count
    record.partitioner = metrics.partitioner
    record.partition_max_bytes = metrics.partition_max_bytes
    record.partition_mean_bytes = metrics.partition_mean_bytes
    record.partition_imbalance = metrics.partition_imbalance
    record.modeled_straggler_seconds = metrics.modeled_straggler_seconds
    record.num_patterns = len(result)
    return record


def run_comparison(
    algorithms: list[str],
    constraint: Constraint,
    dictionary: Dictionary,
    database: SequenceDatabase,
    num_workers: int = 8,
    dataset_name: str | None = None,
    cluster: ClusterConfig | None = None,
    max_runs: int | None = None,
    max_candidates: int | None = None,
) -> list[RunRecord]:
    """Run several algorithms on the same constraint and dataset.

    The execution substrate is one ``cluster=ClusterConfig(...)`` (the legacy
    ``backend`` / ``codec`` / ``spill_budget_bytes`` keywords were removed).
    """
    config = ClusterConfig.resolve(cluster, num_workers=num_workers)
    return [
        run_algorithm(
            algorithm,
            constraint,
            dictionary,
            database,
            num_workers=num_workers,
            dataset_name=dataset_name,
            cluster=config,
            max_runs=max_runs,
            max_candidates=max_candidates,
        )
        for algorithm in algorithms
    ]
