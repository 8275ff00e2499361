"""Partition-balance study: why item-based partitioning scales.

Sec. III-B of the paper argues that ordering items by decreasing document
frequency produces well-balanced partitions: frequent items appear in many
input sequences, but their partitions are responsible for few distinct
subsequences and receive small (rewritten) representations.  This example
measures that claim on the AMZN-like dataset for D-SEQ and D-CAND: it reports
the largest partitions, an imbalance factor (largest / mean partition), the
Gini coefficient of partition sizes, and the share of shuffle data landing on
the most loaded of 8 workers.

Run with:  python examples/partition_balance.py [num_users]
"""

from __future__ import annotations

import sys

from repro.core import dcand_partition_balance, dseq_partition_balance
from repro.datasets import amzn_like, constraint
from repro.experiments import format_table


def study(name, balance, dictionary, workers=8):
    print(f"--- {name} ---")
    summary = balance.as_dict()
    summary["worker_share"] = round(balance.largest_worker_share(workers), 3)
    print(format_table([summary]))
    print("largest partitions (pivot item, bytes, records):")
    for label, size, records in balance.top(5, dictionary):
        print(f"  {label:<30} {size:>10,} bytes   {records:>6} records")
    print("partition-size histogram (bytes -> #partitions):")
    for low, high, count in balance.histogram():
        print(f"  [{low:>8,}, {high:>8,}]  {'#' * min(count, 60)} {count}")
    print()


def main(num_users: int = 2500) -> None:
    dataset = amzn_like(num_users, seed=23)
    dictionary, database = dataset.preprocess()
    task = constraint("A1", 10)
    print(
        f"Dataset: {len(database)} AMZN-like sequences; constraint {task.name} "
        f"({task.description}).\n"
    )

    dseq = dseq_partition_balance(task.expression, task.sigma, dictionary, database)
    dcand = dcand_partition_balance(task.expression, task.sigma, dictionary, database)
    study("D-SEQ (rewritten input sequences)", dseq, dictionary)
    study("D-CAND (aggregated, minimized NFAs)", dcand, dictionary)

    print(
        "Both representations keep the imbalance factor small: no single pivot "
        "partition dominates the shuffle, so adding workers keeps reducing the "
        "makespan (the near-linear scaling of Fig. 11).\n"
    )


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 2500
    main(size)
