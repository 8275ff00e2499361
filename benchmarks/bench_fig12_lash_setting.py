"""Fig. 12: generalization overhead of D-SEQ and D-CAND over LASH / MG-FSM."""

from __future__ import annotations

from repro.experiments import figure12_lash_setting, format_table

from benchmarks.conftest import BENCH_CLUSTER, BENCH_SIZES, run_once


def test_figure12_lash_setting(benchmark):
    rows = run_once(
        benchmark, figure12_lash_setting, cluster=BENCH_CLUSTER, sizes=BENCH_SIZES
    )
    print()
    print("Fig. 12 (reproduced): LASH setting — specialist vs general algorithms")
    print(format_table(rows))
    # Correctness: on each constraint all algorithms find the same patterns
    # (the general miners are semantically equivalent to the specialists here).
    by_constraint: dict[tuple, set[int]] = {}
    for row in rows:
        if row["status"] == "ok":
            by_constraint.setdefault((row["constraint"], row["dataset"]), set()).add(
                row["patterns"]
            )
    assert all(len(counts) == 1 for counts in by_constraint.values())

    # Generalization-overhead shape: report the ratio D-SEQ / specialist.
    overhead = []
    for key in by_constraint:
        records = {
            row["algorithm"]: row
            for row in rows
            if (row["constraint"], row["dataset"]) == key
        }
        specialist = records.get("lash") or records.get("mg-fsm")
        dseq = records["dseq"]
        if specialist and specialist["total_s"] > 0 and dseq["status"] == "ok":
            overhead.append(dseq["total_s"] / specialist["total_s"])
    print("D-SEQ generalization overhead over the specialist:",
          [round(x, 2) for x in overhead])
    assert overhead
