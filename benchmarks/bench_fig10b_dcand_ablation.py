"""Fig. 10b: D-CAND ablation — aggregating and minimizing NFAs."""

from __future__ import annotations

from repro.datasets import constraint as make_constraint
from repro.experiments import SCALED_SIGMA, figure10b, format_table

from benchmarks.conftest import BENCH_CLUSTER, BENCH_SIZES, run_once


def test_figure10b_dcand_ablation(benchmark):
    constraints = [
        ("AMZN", make_constraint("A1", SCALED_SIGMA["A1"])),
        ("NYT", make_constraint("N4", SCALED_SIGMA["N4"])),
        ("AMZN-F", make_constraint("T3", SCALED_SIGMA["T3"], 1, 6)),
    ]
    rows = run_once(
        benchmark,
        figure10b,
        constraints=constraints,
        cluster=BENCH_CLUSTER,
        sizes=BENCH_SIZES,
    )
    print()
    print("Fig. 10b (reproduced): D-CAND component ablation")
    print(format_table(rows))
    # All completing variants agree on the result size.  Across the whole
    # workload the full D-CAND (aggregated + minimized NFAs) shuffles less than
    # the un-minimized, un-aggregated variant, and for at least one constraint
    # the reduction is substantial (the paper's "drastic for some constraints,
    # little overhead for the rest" shape).
    full_bytes = 0
    baseline_bytes = 0
    best_reduction = 0.0
    for constraint in {(row["constraint"], row["dataset"]) for row in rows}:
        variants = {
            row["variant"]: row
            for row in rows
            if (row["constraint"], row["dataset"]) == constraint
        }
        completed = [row for row in variants.values() if row["total_s"] != "oom"]
        assert len({row["patterns"] for row in completed}) <= 1
        full = variants["D-CAND"]
        baseline = variants["tries, no agg"]
        if full["total_s"] != "oom" and baseline["total_s"] != "oom":
            full_bytes += full["shuffle_bytes"]
            baseline_bytes += baseline["shuffle_bytes"]
            best_reduction = max(
                best_reduction, 1.0 - full["shuffle_bytes"] / baseline["shuffle_bytes"]
            )
    assert baseline_bytes > 0
    assert full_bytes <= baseline_bytes
    assert best_reduction >= 0.2
