"""PrefixSpan with a maximum-length constraint (the "MLlib setting").

Apache Spark's MLlib ships a distributed PrefixSpan that supports arbitrary
gaps, no hierarchies, and a maximum pattern length.  Fig. 13 of the paper
compares D-SEQ/D-CAND/LASH against it on constraint ``T1(σ, λ)``.  This module
provides the same mining semantics as a clean pattern-growth implementation;
run time is reported as a single sequential compute measurement.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.core.results import MiningResult
from repro.dictionary import Dictionary
from repro.errors import MiningError, check_int
from repro.mapreduce.metrics import JobMetrics
from repro.sequences import SequenceDatabase


class PrefixSpanMiner:
    """Frequent subsequences with arbitrary gaps and bounded length.

    Parameters
    ----------
    sigma:
        Minimum support.
    max_length:
        Maximum pattern length λ.
    dictionary:
        Used only to restrict the search to frequent items early on.
    """

    algorithm_name = "PrefixSpan"

    def __init__(
        self,
        sigma: int,
        max_length: int,
        dictionary: Dictionary | None = None,
        max_patterns: int = 10_000_000,
    ) -> None:
        check_int(sigma, "sigma")
        if max_length < 1:
            raise MiningError(f"max_length must be >= 1, got {max_length}")
        self.sigma = sigma
        self.max_length = max_length
        self.dictionary = dictionary
        self.max_patterns = max_patterns

    def mine(self, database: SequenceDatabase | Sequence[Sequence[int]]) -> MiningResult:
        """Mine all frequent subsequences of length <= ``max_length``."""
        started = time.perf_counter()
        sequences = [tuple(sequence) for sequence in database]
        max_frequent = (
            self.dictionary.largest_frequent_fid(self.sigma) if self.dictionary else None
        )
        patterns: dict[tuple[int, ...], int] = {}
        # Root projected database: every sequence starting at position 0.
        projected = [(index, 0) for index in range(len(sequences))]
        self._expand((), projected, sequences, max_frequent, patterns)
        elapsed = time.perf_counter() - started
        metrics = JobMetrics(
            num_workers=1,
            map_task_seconds=[0.0],
            reduce_task_seconds=[elapsed],
            input_records=len(sequences),
            output_records=len(patterns),
        )
        return MiningResult(patterns, metrics, algorithm=self.algorithm_name)

    # ----------------------------------------------------------------- search
    def _expand(
        self,
        prefix: tuple[int, ...],
        projected: list[tuple[int, int]],
        sequences: list[tuple[int, ...]],
        max_frequent: int | None,
        patterns: dict[tuple[int, ...], int],
    ) -> None:
        if len(prefix) >= self.max_length:
            return
        # For each item, the first position at which it continues each sequence.
        continuations: dict[int, dict[int, int]] = {}
        for sequence_index, start in projected:
            sequence = sequences[sequence_index]
            seen: set[int] = set()
            for position in range(start, len(sequence)):
                item = sequence[position]
                if item in seen:
                    continue
                if max_frequent is not None and item > max_frequent:
                    continue
                seen.add(item)
                continuations.setdefault(item, {})[sequence_index] = position + 1
        for item in sorted(continuations):
            supporters = continuations[item]
            support = len(supporters)
            if support < self.sigma:
                continue
            child_prefix = prefix + (item,)
            if len(patterns) >= self.max_patterns:
                raise MiningError(
                    f"more than {self.max_patterns} patterns produced; raise sigma"
                )
            patterns[child_prefix] = support
            child_projected = sorted(supporters.items())
            self._expand(child_prefix, child_projected, sequences, max_frequent, patterns)
