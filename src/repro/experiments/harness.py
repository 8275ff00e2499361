"""Experiment harness: run one algorithm on one constraint and record metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api.session import ALGORITHM_TABLE, MAX_CANDIDATES, MAX_RUNS, canonical_algorithm, mine
from repro.datasets import Constraint
from repro.dictionary import Dictionary
from repro.errors import CandidateExplosionError
from repro.experiments.configs import DEFAULT_CLUSTER
from repro.mapreduce import ClusterConfig, JobMetrics
from repro.sequences import SequenceDatabase


@dataclass
class RunRecord:
    """Measurements of one (algorithm, constraint, dataset) run.

    ``metrics`` is the run's :class:`~repro.mapreduce.JobMetrics`: read the
    timing, shuffle, blob, fault and balance figures there.  An ``"oom"``
    run (candidate/run explosion) finished no job, so its metrics are empty
    apart from the worker count it was configured with.  Blob traffic,
    fault-tolerance accounting and the balance figures stay out of
    :meth:`as_row`, so the committed BENCH goldens keep their exact shape.
    """

    algorithm: str
    constraint: str
    dataset: str
    status: str = "ok"  # "ok" or "oom" (candidate/run explosion)
    backend: str = "simulated"
    wall_seconds: float = 0.0
    num_patterns: int = 0
    metrics: JobMetrics = field(default_factory=JobMetrics)
    extra: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        # ``total_s`` is always the ``map_s``/``reduce_s`` sum: the split
        # keeps map-side costs (the grid engine, the dedup pass that every
        # miner runs) visible in every report.
        # Four decimals: tiny regression-scale runs finish in milliseconds,
        # and the committed BENCH artifacts must resolve the stage split.
        metrics = self.metrics
        return {
            "algorithm": self.algorithm,
            "constraint": self.constraint,
            "dataset": self.dataset,
            "status": self.status,
            "total_s": round(metrics.total_seconds, 4),
            "map_s": round(metrics.map_seconds, 4),
            "reduce_s": round(metrics.reduce_seconds, 4),
            "shuffle_bytes": metrics.shuffle_bytes,
            "wire_bytes": metrics.wire_bytes,
            "input_pickle_bytes": metrics.map_input_pickle_bytes,
            "patterns": self.num_patterns,
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
    dataset_name: str | None = None,
    cluster: ClusterConfig = DEFAULT_CLUSTER,
    max_runs: int | None = None,
    max_candidates: int | None = None,
    **options,
) -> RunRecord:
    """Run one algorithm on the substrate ``cluster`` and collect a :class:`RunRecord`.

    Candidate or run explosions (the reproduction's analogue of the paper's
    out-of-memory failures) are caught and reported as ``status="oom"``.
    """
    name = canonical_algorithm(algorithm)
    # The labels come from the substrate that runs: a ready-made cluster
    # instance in ``backend`` overrides the config's other fields.
    backend, workers = cluster.backend, cluster.num_workers
    if not isinstance(backend, str):
        backend, workers = getattr(backend, "backend_name", "cluster"), backend.num_workers
    record = RunRecord(
        algorithm=algorithm,
        constraint=constraint.name,
        dataset=dataset_name or constraint.dataset,
        backend=backend,
        metrics=JobMetrics(num_workers=workers),
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
            (database, dictionary), constraint, algorithm=name, config=cluster,
            **{**caps, **options},
        )
    except CandidateExplosionError as error:
        record.status = "oom"
        record.extra["error"] = str(error)
    else:
        record.metrics = result.metrics
        record.num_patterns = len(result)
    record.wall_seconds = time.perf_counter() - started
    return record


def run_comparison(
    algorithms: list[str],
    constraint: Constraint,
    dictionary: Dictionary,
    database: SequenceDatabase,
    dataset_name: str | None = None,
    cluster: ClusterConfig = DEFAULT_CLUSTER,
    max_runs: int | None = None,
    max_candidates: int | None = None,
) -> list[RunRecord]:
    """Run several algorithms on the same constraint, dataset and substrate."""
    return [
        run_algorithm(
            algorithm,
            constraint,
            dictionary,
            database,
            dataset_name=dataset_name,
            cluster=cluster,
            max_runs=max_runs,
            max_candidates=max_candidates,
        )
        for algorithm in algorithms
    ]
