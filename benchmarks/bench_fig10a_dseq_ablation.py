"""Fig. 10a: D-SEQ ablation — position–state grid, rewrites, early stopping."""

from __future__ import annotations

from repro.datasets import constraint as make_constraint
from repro.experiments import SCALED_SIGMA, figure10a, format_table

from benchmarks.conftest import BENCH_CLUSTER, BENCH_SIZES, run_once


def test_figure10a_dseq_ablation(benchmark):
    constraints = [
        ("AMZN", make_constraint("A1", SCALED_SIGMA["A1"])),
        ("NYT", make_constraint("N5", SCALED_SIGMA["N5"])),
        ("AMZN-F", make_constraint("T3", SCALED_SIGMA["T3"], 1, 6)),
        ("AMZN-F", make_constraint("T3", 10 * SCALED_SIGMA["T3"], 3, 5)),
    ]
    rows = run_once(
        benchmark,
        figure10a,
        constraints=constraints,
        cluster=BENCH_CLUSTER,
        sizes=BENCH_SIZES,
    )
    print()
    print("Fig. 10a (reproduced): D-SEQ component ablation")
    print(format_table(rows))
    # Every variant of D-SEQ must produce the same number of patterns.
    by_constraint: dict[tuple, set[int]] = {}
    for row in rows:
        by_constraint.setdefault((row["constraint"], row["dataset"]), set()).add(
            row["patterns"]
        )
    assert all(len(counts) == 1 for counts in by_constraint.values())
