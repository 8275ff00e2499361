"""Sequential DESQ-COUNT baseline: generate candidates, then count them.

DESQ-COUNT materializes ``G^σ_π(T)`` for every input sequence and counts the
candidates in a hash table.  It is simple and fast for selective constraints
but explodes for loose ones — the sequential analogue of SEMI-NAÏVE.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Sequence

from repro.core.results import MiningResult
from repro.dictionary import Dictionary
from repro.fst import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_RUNS,
    generate_candidates,
    make_kernel,
)
from repro.mapreduce.metrics import JobMetrics
from repro.patex import PatEx
from repro.sequences import SequenceDatabase, as_mining_records, record_parts


class SequentialDesqCount:
    """Generate-and-count mining with flexible constraints (sequential).

    ``dedup`` (default True) generates
    candidates once per *distinct* input sequence and counts them with the
    sequence's multiplicity — results are byte-identical either way.
    """

    algorithm_name = "DESQ-COUNT"

    def __init__(
        self,
        patex: PatEx | str,
        sigma: int,
        dictionary: Dictionary,
        max_candidates_per_sequence: int = DEFAULT_MAX_CANDIDATES,
        max_runs: int = DEFAULT_MAX_RUNS,
        dedup: bool = True,
    ) -> None:
        self.patex = PatEx(patex) if isinstance(patex, str) else patex
        self.sigma = sigma
        self.dictionary = dictionary
        self.max_candidates_per_sequence = max_candidates_per_sequence
        self.max_runs = max_runs
        self.dedup = dedup

    def mine(self, database: SequenceDatabase | Sequence[Sequence[int]]) -> MiningResult:
        """Mine all frequent patterns by candidate counting.

        Raises :class:`~repro.errors.CandidateExplosionError` when a sequence
        generates more candidates than the configured cap.
        """
        fst = self.patex.compile(self.dictionary)
        kernel = make_kernel(fst, self.dictionary)
        started = time.perf_counter()
        counts: Counter[tuple[int, ...]] = Counter()
        total = 0
        for record in as_mining_records(database, dedup=self.dedup):
            sequence, weight = record_parts(record)
            candidates = generate_candidates(
                kernel,
                sequence,
                sigma=self.sigma,
                max_runs=self.max_runs,
                max_candidates=self.max_candidates_per_sequence,
            )
            if weight == 1:
                counts.update(candidates)
            else:
                for candidate in candidates:
                    counts[candidate] += weight
            total += 1
        patterns = {
            pattern: frequency
            for pattern, frequency in counts.items()
            if frequency >= self.sigma
        }
        elapsed = time.perf_counter() - started
        metrics = JobMetrics(
            num_workers=1,
            map_task_seconds=[0.0],
            reduce_task_seconds=[elapsed],
            input_records=total,
            output_records=len(patterns),
        )
        return MiningResult(patterns, metrics, algorithm=self.algorithm_name)
