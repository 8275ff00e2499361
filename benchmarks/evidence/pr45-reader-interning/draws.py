"""Two set-up rewrites sized and left out: per-tag noise tables, a union f-list.

    PYTHONPATH=src python benchmarks/evidence/pr45-reader-interning/draws.py ROUNDS OUT.jsonl

Run from the repo root.  In one process, ``ROUNDS`` interleaved rounds (the
order flips every round) time, after one untimed warm-up each:

* ``nyt_like(18700)`` (``nyt_n1_scan``'s pool) as it stands, and with
  ``NytLikeGenerator._noise`` drawing each noise word straight from its tag's
  ``(population, cumulative, last)`` table instead of a ``ZipfSampler.sample``
  call: the same ``rng.random()`` draws in the same order;
* ``DictionaryBuilder.add_sequences`` over that pool as it stands, and with
  ``add_sequence`` taking ``frozenset().union(*closures)`` of the sequence's
  distinct items instead of ``|=`` into a fresh set.

Each round checks the rewrite's sequences (sha256) and document frequencies
equal the current code's, and appends one JSON line of seconds; the summary
prints each side's median [q1, q3] and how many rounds the rewrite won.
Nothing here is imported by the benchmark or the tests.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from bisect import bisect_left
from collections import Counter

from repro.datasets import nyt
from repro.datasets.nyt import NOISE_CUM_WEIGHTS, NOISE_TAGS, NytLikeGenerator
from repro.dictionary import DictionaryBuilder

POOL = 18_700


def noise_from_tables(rng, samplers, count):
    picks = rng.choices(NOISE_TAGS, cum_weights=NOISE_CUM_WEIGHTS, k=count)
    draw = rng.random
    words = []
    for tag in picks:
        sampler = samplers[tag]
        words.append(
            sampler._population[bisect_left(sampler._cumulative, draw(), 0, sampler._last)]
        )
    return words


def add_sequence_union(self, gids):
    self._sequence_count += 1
    unique = dict.fromkeys(gids)
    closures = self._closures
    for gid in unique:
        if gid not in closures:
            if gid not in self._hierarchy:
                self._hierarchy.add_item(gid)
            closures[gid] = self._hierarchy.ancestors(gid)
    self._document_frequency.update(frozenset().union(*map(closures.__getitem__, unique)))


def generate(rewrite: bool):
    original = NytLikeGenerator.__dict__["_noise"]
    if rewrite:
        NytLikeGenerator._noise = staticmethod(noise_from_tables)
    try:
        started = time.perf_counter()
        dataset = nyt.nyt_like(POOL)
        return time.perf_counter() - started, dataset
    finally:
        NytLikeGenerator._noise = original


def count(rewrite: bool, dataset) -> tuple[float, Counter]:
    original = DictionaryBuilder.add_sequence
    if rewrite:
        DictionaryBuilder.add_sequence = add_sequence_union
    try:
        builder = DictionaryBuilder(dataset.hierarchy)
        started = time.perf_counter()
        builder.add_sequences(dataset.raw_sequences)
        return time.perf_counter() - started, builder._document_frequency
    finally:
        DictionaryBuilder.add_sequence = original


def digest(dataset) -> str:
    return hashlib.sha256(json.dumps(dataset.raw_sequences).encode()).hexdigest()


def main(rounds: int, out: str) -> None:
    _, dataset = generate(False)
    generate(True)
    count(False, dataset)
    count(True, dataset)
    rows = []
    for index in range(rounds):
        row = {"round": index}
        for rewrite in (False, True) if index % 2 == 0 else (True, False):
            side = "rewrite" if rewrite else "current"
            row[f"nyt_like_{side}_s"], generated = generate(rewrite)
            assert digest(generated) == digest(dataset), side
            row[f"add_sequences_{side}_s"], frequencies = count(rewrite, dataset)
            row[f"frequencies_{side}"] = frequencies
        assert row.pop("frequencies_current") == row.pop("frequencies_rewrite")
        rows.append(row)
        with open(out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row) + "\n")
    for step in ("nyt_like", "add_sequences"):
        line = [f"{step:14s}"]
        for side in ("current", "rewrite"):
            values = [row[f"{step}_{side}_s"] for row in rows]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            line.append(f"{side} {median:.3f} [{q1:.3f}, {q3:.3f}]")
        wins = sum(row[f"{step}_rewrite_s"] < row[f"{step}_current_s"] for row in rows)
        line.append(f"rewrite wins {wins}/{rounds}")
        print("  ".join(line))


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
