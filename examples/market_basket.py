"""Recommendation example: order-aware product patterns (constraints A1–A4).

Mines an AMZN-like review dataset for sequential purchase patterns:

* A1 — up to five electronics items bought with small gaps,
* A3 — what customers buy after a digital camera (generalized to categories),
* A4 — sequences of musical-instrument purchases,

and contrasts the flexible constraints with a traditional gap/length
constraint (T3) mined by both D-SEQ and the specialised LASH-style miner.

Run with:  python examples/market_basket.py [num_users]
"""

from __future__ import annotations

import sys

from repro import mine
from repro.datasets import amzn_like, constraint
from repro.sequential import LashMiner


def main(num_users: int = 2500) -> None:
    print(f"Generating an AMZN-like review dataset with {num_users} users ...")
    dataset = amzn_like(num_users, seed=3)
    dictionary, database = dataset.preprocess()
    stats = database.statistics()
    print(
        f"  {stats.sequence_count} users, {stats.total_items} reviews, "
        f"mean sequence length {stats.mean_length:.1f}\n"
    )

    for key, sigma, description in [
        ("A1", 10, "electronics bought together (gap <= 2, up to 5 items)"),
        ("A3", 5, "categories bought after a digital camera"),
        ("A4", 5, "musical instrument purchase sequences"),
    ]:
        task = constraint(key, sigma)
        result = mine((database, dictionary), task.expression, task.sigma, algorithm="dcand")
        print(f"--- {key}: {description}")
        print(f"    {task.expression}")
        print(f"    {len(result)} frequent patterns; top 5:")
        for pattern, frequency in result.top(5, dictionary):
            print(f"      {' -> '.join(pattern):<60} {frequency}")
        print()

    # Traditional constraint: the specialised LASH-style miner and the general
    # D-SEQ algorithm produce identical results; D-SEQ pays a generalization
    # overhead but supports all of the constraints above as well.
    task = constraint("T3", 10, 1, 5)
    general = mine((database, dictionary), task.expression, task.sigma, algorithm="dseq")
    specialist = LashMiner(task.sigma, dictionary, max_gap=1, max_length=5).mine(database)
    assert dict(general) == dict(specialist)
    print("--- T3(10,1,5): traditional max-gap/max-length constraint")
    print(f"    D-SEQ and LASH agree on {len(general)} patterns")
    print(f"    simulated time: D-SEQ {general.metrics.total_seconds:.2f}s, "
          f"LASH {specialist.metrics.total_seconds:.2f}s "
          f"(generalization overhead "
          f"{general.metrics.total_seconds / max(specialist.metrics.total_seconds, 1e-9):.1f}x)")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 2500
    main(size)
