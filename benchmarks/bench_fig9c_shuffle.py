"""Fig. 9c: shuffle size of the four algorithms on A1 and A4."""

from __future__ import annotations

from dataclasses import replace

from repro.experiments import figure9c, format_table, human_bytes

from benchmarks.conftest import BENCH_CLUSTER, BENCH_SIZES, BENCH_WORKERS, run_once


def _timing_rows(rows: list[dict], label_key: str, label: str) -> list[dict]:
    """Per-algorithm makespans of one grid engine (timing only; bytes live in
    the main rows, which the differential suite proves knob-independent)."""
    return [
        {
            label_key: label,
            "constraint": row["constraint"],
            "algorithm": row["algorithm"],
            "status": row["status"],
            "total_s": row["total_s"],
            "map_s": row["map_s"],
            "reduce_s": row["reduce_s"],
        }
        for row in rows
    ]


def test_figure9c_shuffle_sizes(benchmark, bench_json):
    rows = run_once(benchmark, figure9c, size=BENCH_SIZES["AMZN"], cluster=BENCH_CLUSTER)
    # Same experiment on the legacy grid engine: tracks the flat grid's
    # speed-up per PR.  Byte counts are grid-independent; only the timings
    # differ.
    legacy_grid = figure9c(
        size=BENCH_SIZES["AMZN"], cluster=replace(BENCH_CLUSTER, grid="legacy")
    )
    grids = _timing_rows(rows, "grid", "flat") + _timing_rows(legacy_grid, "grid", "legacy")
    artifact = bench_json(
        "fig9c",
        {
            "experiment": "fig9c",
            "workers": BENCH_WORKERS,
            "dataset_size": BENCH_SIZES["AMZN"],
            # Each row: makespan (total_s = map_s + reduce_s), modeled
            # shuffle_bytes, measured wire_bytes, and per-task input pickle
            # bytes.
            "rows": rows,
            # Flat-vs-legacy grid-engine makespans (map_s carries the
            # grid-side win; only D-SEQ rows exercise the grid).
            "grids": grids,
        },
    )
    print()
    if artifact is not None:
        print(f"wrote {artifact}")
    flat_dseq = sum(
        r["map_s"] for r in rows if r["algorithm"] == "dseq" and r["status"] == "ok"
    )
    legacy_dseq = sum(
        r["map_s"]
        for r in legacy_grid
        if r["algorithm"] == "dseq" and r["status"] == "ok"
    )
    print(f"dseq map stage: flat grid {flat_dseq:.3f}s vs legacy {legacy_dseq:.3f}s")
    for key in ("shuffle_bytes", "wire_bytes"):
        assert [r[key] for r in rows] == [r[key] for r in legacy_grid], (
            f"{key} must be grid-independent"
        )
    print("Fig. 9c (reproduced): shuffle size per algorithm, AMZN-like dataset")
    print("  (modeled = record_size cost model; wire = measured encoded payloads)")
    for row in rows:
        row = dict(row)
        modeled = human_bytes(row["shuffle_bytes"])
        wire = human_bytes(row["wire_bytes"])
        print(
            f"  {row['constraint']:>8} {row['algorithm']:>10}: "
            f"{modeled} modeled / {wire} wire"
        )
    print(format_table(rows))
    # Shape check: both D-SEQ and D-CAND shuffle far less than the naïve
    # methods (the paper reports up to 100x) — on the modeled cost and on the
    # measured wire bytes alike.
    for key in ("shuffle_bytes", "wire_bytes"):
        by_key = {(r["constraint"], r["algorithm"]): r[key] for r in rows}
        for constraint in {r["constraint"] for r in rows}:
            naive = by_key[(constraint, "naive")]
            assert by_key[(constraint, "dseq")] < naive / 5, key
            assert by_key[(constraint, "dcand")] < naive / 5, key
