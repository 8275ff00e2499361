"""Ablation: partition balance of item-based partitioning (Sec. III-B).

Not a numbered figure in the paper, but the design argument behind item-based
partitioning: with the frequency-descending item order, no pivot partition
dominates the shuffle, which is what makes the near-linear scaling of Fig. 11
possible.  This benchmark measures the per-partition shuffle sizes of D-SEQ
and D-CAND on two constraints and asserts the balance properties.

``test_partition_planning`` additionally runs the skew-aware partition
planner (``partitioner="planned"``) against the reference stable hash and
merges a ``balance`` section into the committed ``BENCH_fig9c.json`` /
``BENCH_table5.json`` regression artifacts, so CI can assert the planner
never models a worse reduce-stage straggler than the hash.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core import dcand_partition_balance, dseq_partition_balance
from repro.datasets import constraint as make_constraint
from repro.experiments import (
    SCALED_SIGMA,
    format_table,
    prepare_dataset,
    run_algorithm,
)

from benchmarks.conftest import (
    BENCH_CLUSTER,
    BENCH_SCALE,
    BENCH_SIZES,
    BENCH_WORKERS,
    run_once,
)


def measure(sizes):
    rows = []
    balances = {}
    workloads = [
        ("AMZN", make_constraint("A1", SCALED_SIGMA["A1"])),
        ("AMZN-F", make_constraint("T3", SCALED_SIGMA["T3"], 1, 5)),
    ]
    for dataset_name, task in workloads:
        prepared = prepare_dataset(dataset_name, (sizes or {}).get(dataset_name))
        for algorithm, measurer in (
            ("dseq", dseq_partition_balance),
            ("dcand", dcand_partition_balance),
        ):
            balance = measurer(
                task.expression, task.sigma, prepared.dictionary, prepared.database
            )
            summary = balance.as_dict()
            summary.update(
                {
                    "constraint": task.name,
                    "dataset": dataset_name,
                    "algorithm": algorithm,
                    "worker_share": round(balance.largest_worker_share(BENCH_WORKERS), 3),
                }
            )
            rows.append(summary)
            balances[(task.name, algorithm)] = balance
    return rows, balances


def test_partition_balance(benchmark):
    rows, balances = run_once(benchmark, measure, BENCH_SIZES)
    print()
    print("Partition balance of item-based partitioning (Sec. III-B)")
    headers = [
        "constraint", "dataset", "algorithm", "partitions", "total_bytes",
        "max_bytes", "imbalance", "gini", "worker_share",
    ]
    print(format_table(rows, headers=headers))

    # At the tiny CI scale the shrunken A1 corpus only surfaces a handful of
    # pivots, so the many-partitions claim is only meaningful at full scale.
    min_partitions = BENCH_WORKERS if BENCH_SCALE >= 1.0 else 4
    for row in rows:
        # Every workload spreads over many partitions, and the most loaded of
        # the 8 simulated workers receives well under half of the shuffle.
        assert row["partitions"] >= min_partitions
        assert row["worker_share"] <= 0.5
    # The balance measurement is internally consistent.
    for balance in balances.values():
        assert balance.total_bytes == sum(balance.bytes_by_partition.values())
        assert 0.0 <= balance.gini() <= 1.0


# ---------------------------------------------------------- partition planning
def measure_planning(sizes):
    """Mine the Fig. 9c workloads under both partitioners and record balance."""
    records = []
    workloads = [
        ("AMZN", make_constraint("A1", SCALED_SIGMA["A1"])),
        ("AMZN-F", make_constraint("T3", SCALED_SIGMA["T3"], 1, 5)),
    ]
    for dataset_name, task in workloads:
        prepared = prepare_dataset(dataset_name, (sizes or {}).get(dataset_name))
        for algorithm in ("dseq", "dcand"):
            for partitioner in ("hash", "planned"):
                record = run_algorithm(
                    algorithm,
                    task,
                    prepared.dictionary,
                    prepared.database,
                    dataset_name=dataset_name,
                    cluster=replace(BENCH_CLUSTER, partitioner=partitioner),
                )
                records.append(record)
    return records


def test_partition_planning(benchmark, bench_json_section):
    records = run_once(benchmark, measure_planning, BENCH_SIZES)
    rows = [record.balance_row() for record in records]
    print()
    print("Skew-aware partition planning: hash vs planned reduce buckets")
    headers = [
        "constraint", "dataset", "algorithm", "partitioner", "shuffle_bytes",
        "partition_max_bytes", "partition_imbalance", "modeled_straggler_s",
    ]
    print(format_table(rows, headers=headers))

    paired = {}
    for record in records:
        key = (record.algorithm, record.constraint)
        paired.setdefault(key, {})[record.metrics.partitioner] = record
    for key, pair in paired.items():
        hashed, planned = pair["hash"], pair["planned"]
        # The plan moves records between buckets but never changes what is
        # mined or how much travels.
        assert planned.num_patterns == hashed.num_patterns, key
        assert planned.metrics.shuffle_bytes == hashed.metrics.shuffle_bytes, key
        assert planned.status == hashed.status == "ok", key
        # The point of the planner: the heaviest bucket never grows, and the
        # modeled reduce-stage straggler never regresses.  (The max/mean
        # imbalance *ratio* is not compared here: the plan also spreads load
        # over more non-empty buckets, which lowers the mean and can raise
        # the ratio even as the actual straggler shrinks.)
        assert planned.metrics.partition_max_bytes <= hashed.metrics.partition_max_bytes, key
        assert (
            planned.metrics.modeled_straggler_seconds
            <= hashed.metrics.modeled_straggler_seconds
        ), key

    payload = {"workers": BENCH_WORKERS, "rows": rows}
    bench_json_section("fig9c", "balance", payload)
    bench_json_section("table5", "balance", payload)
