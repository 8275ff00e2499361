"""Text mining example: relational phrases between entities (constraints N1–N3).

This is the motivating application of the paper's introduction: mine frequent
relational phrases such as "lives in" or "is professor" between named entities
from a text corpus, using flexible subsequence constraints that no scalable
gap/length-only miner can express.

The corpus is the NYT-like synthetic stand-in (entities generalize to
PER/ORG/LOC and ENTITY, words to lemma and part-of-speech tag).

Run with:  python examples/relational_phrases.py [num_sentences]
"""

from __future__ import annotations

import sys

from repro import DCandMiner, DSeqMiner
from repro.datasets import constraint, nyt_like
from repro.mapreduce import ClusterConfig

EIGHT_WORKERS = ClusterConfig(num_workers=8)


def main(num_sentences: int = 1500) -> None:
    print(f"Generating an NYT-like corpus with {num_sentences} sentences ...")
    dataset = nyt_like(num_sentences, seed=7)
    dictionary, database = dataset.preprocess()
    stats = database.statistics()
    print(
        f"  {stats.sequence_count} sentences, {stats.total_items} tokens, "
        f"{stats.unique_items} distinct items, mean length {stats.mean_length:.1f}\n"
    )

    tasks = [
        ("N1", constraint("N1", 5), "untyped relational phrases between entities"),
        ("N2", constraint("N2", 10), "typed relational phrases"),
        ("N3", constraint("N3", 5), "copular relations (ENTITY be ... NOUN)"),
    ]
    for key, task, description in tasks:
        print(f"--- {key}: {description}")
        print(f"    pattern expression: {task.expression}")
        dseq = DSeqMiner(task.expression, task.sigma, dictionary, cluster=EIGHT_WORKERS)
        result = dseq.mine(database)
        print(f"    D-SEQ found {len(result)} frequent phrases "
              f"(map {result.metrics.map_seconds:.2f}s, mine {result.metrics.reduce_seconds:.2f}s)")
        for pattern, frequency in result.top(5, dictionary):
            print(f"      {' '.join(pattern):<40} {frequency}")

        # Cross-check with D-CAND: identical results, different trade-off.
        dcand = DCandMiner(task.expression, task.sigma, dictionary, cluster=EIGHT_WORKERS)
        verification = dcand.mine(database)
        assert dict(verification) == dict(result), "D-SEQ and D-CAND disagree!"
        print(f"    D-CAND agrees ({len(verification)} phrases), "
              f"shuffle {verification.metrics.shuffle_bytes} vs {result.metrics.shuffle_bytes} bytes\n")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 1500
    main(size)
