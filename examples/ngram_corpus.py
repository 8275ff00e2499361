"""Building an n-gram corpus with traditional gap/length constraints.

The construction of the Google Books n-gram corpus is one of the motivating
applications in the paper: counting all n-grams up to a maximum length is
frequent sequence mining with a maximum-length constraint and no gaps (the
MG-FSM setting T2(σ, 0, n)).  This example builds a 1..4-gram corpus from the
ClueWeb-like synthetic dataset three ways — with D-SEQ, with D-CAND, and with
the specialised MG-FSM-style miner — and verifies that all three agree.

It also shows the generalized variant (N4-style): n-grams in which items are
replaced by their part-of-speech class, using the NYT-like dataset and its
word -> lemma -> POS hierarchy.

Run with:  python examples/ngram_corpus.py [num_sentences]
"""

from __future__ import annotations

import sys

from repro import mine
from repro.datasets import constraint, cw_like, nyt_like
from repro.experiments import format_table
from repro.mapreduce import ClusterConfig
from repro.sequential import MgFsmMiner


def plain_ngrams(num_sentences: int) -> None:
    print(f"=== 1..4-gram corpus over {num_sentences} ClueWeb-like sentences ===\n")
    dictionary, database = cw_like(num_sentences, seed=17).preprocess()
    sigma = max(5, num_sentences // 100)
    task = constraint("T2", sigma, 0, 4)  # max gap 0, max length 4

    rows = []
    results = {}
    for algorithm in ("dseq", "dcand"):
        result = mine((database, dictionary), task.expression, sigma=sigma, algorithm=algorithm)
        results[algorithm] = result.patterns()
        rows.append(
            {
                "algorithm": algorithm,
                "ngrams": len(result),
                "map_s": round(result.metrics.map_seconds, 2),
                "reduce_s": round(result.metrics.reduce_seconds, 2),
                "shuffle_bytes": result.metrics.shuffle_bytes,
            }
        )
    specialist = MgFsmMiner(
        sigma, dictionary, max_gap=0, max_length=4, cluster=ClusterConfig(num_workers=8)
    )
    specialist_result = specialist.mine(database)
    rows.append(
        {
            "algorithm": "mg-fsm",
            "ngrams": len(specialist_result),
            "map_s": round(specialist_result.metrics.map_seconds, 2),
            "reduce_s": round(specialist_result.metrics.reduce_seconds, 2),
            "shuffle_bytes": specialist_result.metrics.shuffle_bytes,
        }
    )
    print(format_table(rows))

    assert results["dseq"] == results["dcand"] == specialist_result.patterns()
    print("\nAll three algorithms produce the identical n-gram corpus.\n")

    longest = max(results["dseq"], key=len)
    top = sorted(results["dseq"].items(), key=lambda kv: -kv[1])[:5]
    print("Most frequent n-grams:")
    for pattern, frequency in top:
        print(f"  {' '.join(dictionary.decode(pattern)):<40} {frequency}")
    print(f"Longest frequent n-gram: {' '.join(dictionary.decode(longest))}\n")


def generalized_ngrams(num_sentences: int) -> None:
    print(f"=== Generalized 3-grams (N4 style) over {num_sentences} NYT-like sentences ===\n")
    dictionary, database = nyt_like(num_sentences, seed=17).preprocess()
    sigma = max(10, num_sentences // 20)
    task = constraint("N4", sigma)
    result = mine((database, dictionary), task.expression, sigma=sigma, algorithm="dcand")
    print(f"constraint {task.name}: {len(result)} generalized 3-grams before a noun")
    for pattern, frequency in result.top(5, dictionary):
        print(f"  {' '.join(pattern):<40} {frequency}")
    print()


def main(num_sentences: int = 1500) -> None:
    plain_ngrams(num_sentences)
    generalized_ngrams(max(400, num_sentences // 3))


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 1500
    main(size)
