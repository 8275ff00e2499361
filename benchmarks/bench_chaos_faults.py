"""Chaos smoke: D-SEQ on the multihost backend under injected faults.

A deterministic :class:`~repro.mapreduce.faults.ScriptedInjector` kills one
host mid-map (``os._exit`` inside the pool worker) and makes 20% of blob keys
fail their first get, while the default fault policy retries tasks and the
blob store retries its operations.  The smoke asserts the chaos run recovers — same patterns as
the fault-free run, retries and a rebuilt host visible in the metrics — and
reports the fault-tolerance overhead (chaos vs fault-free makespan).
"""

from __future__ import annotations

from repro.datasets import constraint as make_constraint
from repro.experiments import SCALED_SIGMA, format_table, prepare_dataset, run_algorithm
from repro.mapreduce import ClusterConfig, MultiHostCluster, ScriptedInjector

from benchmarks.conftest import BENCH_SIZES, run_once

#: Modest worker count: each run spawns a real host pool (and the chaos run
#: additionally rebuilds it once after the injected kill).
CHAOS_WORKERS = 4

CHAOS_INJECTOR = ScriptedInjector(
    kill_map_task=0,
    kill_mode="exit",
    blob_get_failure_rate=0.2,
)


def _run(fault_injector=None):
    prepared = prepare_dataset("NYT", BENCH_SIZES["NYT"])
    task = make_constraint("N1", SCALED_SIGMA["N1"])
    return run_algorithm(
        "dseq",
        task,
        prepared.dictionary,
        prepared.database,
        dataset_name="NYT",
        cluster=ClusterConfig(
            backend=MultiHostCluster(
                num_workers=CHAOS_WORKERS,
                fault_injector=fault_injector,
            )
        ),
    )


def test_chaos_injected_faults_recover(benchmark):
    baseline = _run()
    chaos = run_once(benchmark, _run, fault_injector=CHAOS_INJECTOR)

    # The injected kill and flaky blobs must be fully absorbed by retries.
    assert chaos.status == "ok"
    assert chaos.num_patterns == baseline.num_patterns
    assert chaos.metrics.shuffle_bytes == baseline.metrics.shuffle_bytes
    assert chaos.metrics.wire_bytes == baseline.metrics.wire_bytes
    assert chaos.metrics.task_retry_count > 0
    assert chaos.metrics.recovered_host_count >= 1
    assert baseline.metrics.task_retry_count == 0

    rows = [
        {
            "run": label,
            "status": record.status,
            "total_s": round(record.wall_seconds, 4),
            "patterns": record.num_patterns,
            "tasks_failed": record.metrics.tasks_failed,
            "task_retries": record.metrics.task_retry_count,
            "blob_retries": record.metrics.blob_retry_count,
            "hosts_recovered": record.metrics.recovered_host_count,
        }
        for label, record in (("fault-free", baseline), ("chaos", chaos))
    ]
    print()
    print(format_table(rows))
    overhead = chaos.wall_seconds - baseline.wall_seconds
    print(f"fault-tolerance overhead: {overhead:+.3f}s wall clock")
