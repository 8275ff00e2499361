"""Fig. 9c: shuffle size of the four algorithms on A1 and A4."""

from __future__ import annotations

from repro.experiments import figure9c, format_table, human_bytes

from benchmarks.conftest import BENCH_CLUSTER, BENCH_SIZES, BENCH_WORKERS, run_once


def test_figure9c_shuffle_sizes(benchmark, bench_json):
    rows = run_once(benchmark, figure9c, size=BENCH_SIZES["AMZN"], cluster=BENCH_CLUSTER)
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
        },
    )
    print()
    if artifact is not None:
        print(f"wrote {artifact}")
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
