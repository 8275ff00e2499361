"""Table V: speed-up of D-SEQ and D-CAND over sequential DESQ-DFS."""

from __future__ import annotations

from dataclasses import replace

from repro.experiments import format_table, table5_speedup
from repro.experiments.tables import TABLE5_CLUSTER, TABLE5_WORKERS

from benchmarks.conftest import BENCH_SCALE, BENCH_SIZES, run_once


def _timing_rows(label_key: str, labelled: list[tuple[str, list[dict]]]) -> list[dict]:
    """Sequential + distributed makespans (with the map/reduce split) per
    grid engine."""
    return [
        {
            label_key: label,
            "constraint": row["constraint"],
            "dataset": row["dataset"],
            "desq_dfs_s": row["desq_dfs_s"],
            "dseq_s": row["dseq_s"],
            "dcand_s": row["dcand_s"],
            "dseq_map_s": row["dseq_map_s"],
            "dseq_reduce_s": row["dseq_reduce_s"],
            "dcand_map_s": row["dcand_map_s"],
            "dcand_reduce_s": row["dcand_reduce_s"],
        }
        for label, rows in labelled
        for row in rows
    ]


def test_table5_speedup_over_sequential(benchmark, bench_json):
    # The paper's Table V compares DESQ-DFS on 1 core against the distributed
    # algorithms on 65 cores; we simulate the equivalent 64-worker makespan.
    rows = run_once(benchmark, table5_speedup, sizes=BENCH_SIZES)
    # Same experiment on the legacy grid engine: tracks the flat grid's
    # speed-up per PR.
    legacy_grid = table5_speedup(
        sizes=BENCH_SIZES, cluster=replace(TABLE5_CLUSTER, grid="legacy")
    )
    grids = _timing_rows("grid", [("flat", rows), ("legacy", legacy_grid)])
    artifact = bench_json(
        "table5",
        {
            "experiment": "table5",
            "workers": TABLE5_WORKERS,
            # Each row: sequential + distributed makespans (with the
            # map_s/reduce_s split per algorithm) and speed-ups, measured
            # wire bytes, and per-task input pickle bytes.
            "rows": rows,
            # Flat-vs-legacy grid-engine makespans (D-SEQ's map stage is the
            # grid consumer; D-CAND and DESQ-DFS read no grid, so their rows
            # move only with the rest of the run).
            "grids": grids,
        },
    )
    print()
    if artifact is not None:
        print(f"wrote {artifact}")
    flat_map = sum(r["dseq_map_s"] for r in rows)
    legacy_map = sum(r["dseq_map_s"] for r in legacy_grid)
    print(f"dseq map stage: flat grid {flat_map:.3f}s vs legacy {legacy_map:.3f}s")
    assert [r["dseq_wire_bytes"] for r in rows] == [
        r["dseq_wire_bytes"] for r in legacy_grid
    ], "wire bytes must be grid-independent"
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
