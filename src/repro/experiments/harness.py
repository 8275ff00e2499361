"""Experiment harness: run one algorithm on one constraint and record metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api.session import ALGORITHM_TABLE, MAX_CANDIDATES, MAX_RUNS, canonical_algorithm, mine
from repro.datasets import Constraint
from repro.dictionary import Dictionary
from repro.errors import CandidateExplosionError
from repro.mapreduce import ClusterConfig
from repro.sequences import SequenceDatabase


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

#: The algorithms the paper saw run out of memory, with the caps that emulate
#: it: D-CAND's run enumeration and the baselines' candidate sets.
OOM_CAPS = {
    "dcand": {MAX_RUNS: OOM_MAX_RUNS},
    "naive": {MAX_RUNS: OOM_MAX_RUNS, MAX_CANDIDATES: OOM_MAX_CANDIDATES},
    "semi-naive": {MAX_RUNS: OOM_MAX_RUNS, MAX_CANDIDATES: OOM_MAX_CANDIDATES},
}


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
    name = canonical_algorithm(algorithm)
    config = ClusterConfig.resolve(cluster, num_workers=num_workers)
    if config.num_workers is None:
        config = config.merged(num_workers=num_workers)
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
    # An explicit cap wins over the OOM policy; an algorithm is handed only
    # the caps its table row says it honours.
    policy = OOM_CAPS.get(name, {})
    caps = {}
    for option, value in ((MAX_RUNS, max_runs), (MAX_CANDIDATES, max_candidates)):
        value = value if value is not None else policy.get(option)
        if value is not None and option in ALGORITHM_TABLE[name].caps:
            caps[option] = value
    started = time.perf_counter()
    try:
        result = mine(
            (database, dictionary), constraint, algorithm=name, config=config,
            **{**caps, **options},
        )
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
