"""Print every job counter of a fixed set of runs, for one checkout.

    python same_counters.py CHECKOUT > OUT.json

Mines one seeded differential corpus with D-SEQ and D-CAND on ``simulated``
(default budget and a zero spill budget), ``persistent-processes`` (a
200-byte budget) and ``multihost``, and prints each run's counters, bucket
bytes, partitioner and worker count as one sorted JSON document.  Two
checkouts that count the same way print byte-identical documents.  The
counter names are spelled out, not read from the checkout, so the script runs
on checkouts with and without ``Counters``.  Nothing here is imported by the
benchmark or the tests.
"""

from __future__ import annotations

import json
import sys

NAMES = (
    "shuffle_bytes", "shuffle_records", "wire_bytes", "spilled_buckets",
    "spilled_bytes", "blob_put_count", "blob_put_bytes", "blob_get_count",
    "blob_get_bytes", "tasks_failed", "task_retry_count", "blob_retry_count",
    "recovered_host_count", "map_input_pickle_bytes", "map_output_records",
    "combined_records", "input_records", "output_records",
    "reduce_bucket_bytes", "partitioner", "num_workers",
)

RUNS = (
    ("simulated", None),
    ("simulated", 0),
    ("persistent-processes", 200),
    ("multihost", None),
)


def main(checkout: str) -> None:
    sys.path[:0] = [f"{checkout}/src", checkout]
    from repro.core import DCandMiner, DSeqMiner
    from repro.mapreduce import ClusterConfig
    from tests.test_differential import MATRIX_PATEX, make_differential_database

    dictionary, database = make_differential_database(count=60, seed=5)
    document = {}
    for miner in (DSeqMiner, DCandMiner):
        for backend, budget in RUNS:
            config = ClusterConfig(backend=backend, num_workers=2, spill_budget_bytes=budget)
            metrics = miner(MATRIX_PATEX, 2, dictionary, cluster=config).mine(database).metrics
            document[f"{miner.__name__}/{backend}/{budget}"] = {
                name: getattr(metrics, name) for name in NAMES
            }
    print(json.dumps(document, sort_keys=True, default=str))


if __name__ == "__main__":
    main(sys.argv[1])
