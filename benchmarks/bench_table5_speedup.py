"""Table V: speed-up of D-SEQ and D-CAND over sequential DESQ-DFS."""

from __future__ import annotations

from repro.experiments import format_table, table5_speedup
from repro.experiments.tables import TABLE5_WORKERS

from benchmarks.conftest import BENCH_SCALE, BENCH_SIZES, run_once


def test_table5_speedup_over_sequential(benchmark, bench_json):
    # The paper's Table V compares DESQ-DFS on 1 core against the distributed
    # algorithms on 65 cores; we simulate the equivalent 64-worker makespan.
    rows = run_once(benchmark, table5_speedup, sizes=BENCH_SIZES)
    artifact = bench_json(
        "table5",
        {
            "experiment": "table5",
            "workers": TABLE5_WORKERS,
            # Each row: sequential + distributed makespans (with the
            # map_s/reduce_s split per algorithm) and speed-ups, measured
            # wire bytes, and per-task input pickle bytes.
            "rows": rows,
        },
    )
    print()
    if artifact is not None:
        print(f"wrote {artifact}")
    print("Table V (reproduced): speed-up over sequential DESQ-DFS "
          f"({TABLE5_WORKERS} simulated workers)")
    print(format_table(rows))
    # Shape check: the distributed algorithms achieve a speed-up (> 1x) over
    # the sequential baseline on the loose constraints (N4, N5, T3).  At the
    # tiny regression scale the fixed per-job overhead dominates the 80-row
    # datasets, so the shape assertion only applies to meaningful scales.
    speedups = [row["dseq_speedup"] for row in rows if row["dseq_speedup"] != "n/a"]
    assert speedups, "no successful D-SEQ runs"
    if BENCH_SCALE >= 0.4:
        assert max(speedups) > 1.0
