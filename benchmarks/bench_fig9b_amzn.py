"""Fig. 9b: run time of NAÏVE / SEMI-NAÏVE / D-SEQ / D-CAND on AMZN constraints."""

from __future__ import annotations

from repro.experiments import figure9b, format_table

from benchmarks.conftest import BENCH_CLUSTER, BENCH_SIZES, run_once


def test_figure9b_flexible_constraints_amzn(benchmark):
    rows = run_once(
        benchmark, figure9b, size=BENCH_SIZES["AMZN"], cluster=BENCH_CLUSTER
    )
    print()
    print("Fig. 9b (reproduced): total time per algorithm, AMZN-like dataset")
    print(format_table(rows))
    by_constraint: dict[str, set[int]] = {}
    for row in rows:
        if row["status"] == "ok":
            by_constraint.setdefault(row["constraint"], set()).add(row["patterns"])
        assert row["algorithm"] not in ("dseq", "dcand") or row["status"] == "ok"
    assert all(len(counts) == 1 for counts in by_constraint.values())
