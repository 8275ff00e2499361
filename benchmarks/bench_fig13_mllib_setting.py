"""Fig. 13: MLlib setting — PrefixSpan vs LASH vs D-SEQ vs D-CAND on T1(σ, 5)."""

from __future__ import annotations

from repro.experiments import figure13_mllib_setting, format_table

from benchmarks.conftest import BENCH_CLUSTER, BENCH_SIZES, run_once


def test_figure13_mllib_setting(benchmark):
    rows = run_once(
        benchmark,
        figure13_mllib_setting,
        sigmas=(100, 50, 25),
        max_length=5,
        cluster=BENCH_CLUSTER,
        size=BENCH_SIZES["AMZN"],
    )
    print()
    print("Fig. 13 (reproduced): MLlib setting, T1(sigma, 5) on AMZN-like (no hierarchy use)")
    print(format_table(rows))
    # Correctness: all algorithms that complete agree on the number of patterns
    # for every sigma.
    by_sigma: dict[int, set[int]] = {}
    for row in rows:
        if row["status"] == "ok":
            by_sigma.setdefault(row["sigma"], set()).add(row["patterns"])
    assert all(len(counts) == 1 for counts in by_sigma.values())
    # The T1 setting (arbitrary gaps) is the worst case for D-CAND: it either
    # completes or reports the paper's OOM analogue, never a wrong result.
    assert all(
        row["status"] in ("ok", "oom") for row in rows if row["algorithm"] == "dcand"
    )
