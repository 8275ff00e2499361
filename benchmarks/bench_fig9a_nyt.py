"""Fig. 9a: run time of NAÏVE / SEMI-NAÏVE / D-SEQ / D-CAND on NYT constraints."""

from __future__ import annotations

from repro.experiments import figure9a, format_table

from benchmarks.conftest import BENCH_CLUSTER, BENCH_SIZES, run_once


def test_figure9a_flexible_constraints_nyt(benchmark):
    rows = run_once(
        benchmark, figure9a, size=BENCH_SIZES["NYT"], cluster=BENCH_CLUSTER
    )
    print()
    print("Fig. 9a (reproduced): total time per algorithm, NYT-like dataset")
    print(format_table(rows))
    # Every algorithm that completes must find the same number of patterns per
    # constraint (correctness), and the distributed algorithms must not fail.
    by_constraint: dict[str, set[int]] = {}
    for row in rows:
        if row["status"] == "ok":
            by_constraint.setdefault(row["constraint"], set()).add(row["patterns"])
        assert row["algorithm"] not in ("dseq", "dcand") or row["status"] == "ok"
    assert all(len(counts) == 1 for counts in by_constraint.values())
