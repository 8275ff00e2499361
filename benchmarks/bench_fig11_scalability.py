"""Fig. 11: data, strong, and weak scalability of D-SEQ and D-CAND.

Runs on the backend selected by ``REPRO_BACKEND`` (default ``simulated``):
the simulated backend reports modeled makespans, while ``processes`` measures
real wall-clock speed-ups on the local machine.
"""

from __future__ import annotations

from repro.experiments import figure11_scalability, format_table
from repro.mapreduce import ClusterConfig

from benchmarks.conftest import BENCH_BACKEND, BENCH_SIZES, run_once


def test_figure11_scalability(benchmark):
    results = run_once(
        benchmark,
        figure11_scalability,
        base_size=BENCH_SIZES["AMZN-F"],
        fractions=(0.25, 0.5, 0.75, 1.0),
        worker_counts=(2, 4, 8),
        cluster=ClusterConfig(backend=BENCH_BACKEND),
    )
    print()
    print(f"Fig. 11 backend: {BENCH_BACKEND}")
    print("Fig. 11a (reproduced): data scalability (8 workers), T3 on AMZN-F-like")
    print(format_table(results["data"]))
    print("Fig. 11b (reproduced): strong scalability (100% of data)")
    print(format_table(results["strong"]))
    print("Fig. 11c (reproduced): weak scalability")
    print(format_table(results["weak"]))

    # (c) weak scalability rows exist for every worker count (all backends).
    assert len(results["weak"]) == 3
    if BENCH_BACKEND != "simulated":
        # Real backends measure wall-clock on whatever hardware runs the
        # benchmark; the monotonicity shape checks only hold for the model.
        return

    # Shape checks:
    # (a) more data (with proportionally growing sigma) => more or equal time;
    data = results["data"]
    assert data[-1]["dseq_s"] >= data[0]["dseq_s"] * 0.8
    # (b) strong scalability: more workers => less or equal simulated time.
    strong = results["strong"]
    assert strong[-1]["dseq_s"] <= strong[0]["dseq_s"] * 1.2
    assert strong[-1]["dcand_s"] <= strong[0]["dcand_s"] * 1.2
