"""Scalability example: how D-SEQ and D-CAND scale with data and workers.

Reproduces a small version of Fig. 11 of the paper on the AMZN-F-like dataset
with the traditional constraint T3(σ, 1, 5): run time versus dataset size
(data scalability) and versus the number of simulated workers (strong
scalability).

Run with:  python examples/scalability_study.py [num_users] [backend]

``backend`` is one of ``simulated`` (default, modeled makespans),
``processes`` or ``multihost`` (real wall-clock on the local machine).
"""

from __future__ import annotations

import sys

from repro import DCandMiner, DSeqMiner
from repro.datasets import amzn_forest_like, constraint
from repro.mapreduce import ClusterConfig

BACKEND = "simulated"


def run(miner_class, expression, sigma, dictionary, database, workers):
    cluster = ClusterConfig(backend=BACKEND, num_workers=workers)
    miner = miner_class(expression, sigma, dictionary, cluster=cluster)
    result = miner.mine(database)
    return result.metrics.total_seconds, len(result)


def main(num_users: int = 2000) -> None:
    dataset = amzn_forest_like(num_users, seed=11)
    dictionary, database = dataset.preprocess()
    base_sigma = 10

    print("Data scalability (8 simulated workers), T3(sigma, 1, 5):")
    print(f"  {'fraction':>8} {'sigma':>6} {'D-SEQ (s)':>10} {'D-CAND (s)':>11} {'patterns':>9}")
    for fraction in (0.25, 0.5, 0.75, 1.0):
        sample = database.sample(fraction, seed=5) if fraction < 1.0 else database
        sigma = max(2, round(base_sigma * fraction))
        task = constraint("T3", sigma, 1, 5)
        dseq_time, patterns = run(DSeqMiner, task.expression, sigma, dictionary, sample, 8)
        dcand_time, _ = run(DCandMiner, task.expression, sigma, dictionary, sample, 8)
        print(f"  {fraction:>8.2f} {sigma:>6} {dseq_time:>10.2f} {dcand_time:>11.2f} {patterns:>9}")

    print("\nStrong scalability (100% of the data), T3(sigma, 1, 5):")
    task = constraint("T3", base_sigma, 1, 5)
    print(f"  {'workers':>8} {'D-SEQ (s)':>10} {'D-CAND (s)':>11}")
    for workers in (1, 2, 4, 8):
        dseq_time, _ = run(DSeqMiner, task.expression, base_sigma, dictionary, database, workers)
        dcand_time, _ = run(DCandMiner, task.expression, base_sigma, dictionary, database, workers)
        print(f"  {workers:>8} {dseq_time:>10.2f} {dcand_time:>11.2f}")

    if BACKEND == "simulated":
        print("\nTimes are simulated makespans of the BSP cluster model; "
              "see DESIGN.md for the substitution rationale.")
    else:
        print(f"\nTimes are in-worker stage makespans on the {BACKEND!r} backend.")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    if len(sys.argv) > 2:
        BACKEND = sys.argv[2]
    main(size)
