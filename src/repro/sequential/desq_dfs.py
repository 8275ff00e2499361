"""Sequential DESQ-DFS baseline (Beedkar & Gemulla, ICDM'16).

This is the single-machine reference miner used in Table V of the paper: the
same pattern-growth search as the distributed local miner, but run over the
whole database on one worker and without any pivot restriction.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.core.local_mining import DesqDfsMiner
from repro.core.results import MiningResult
from repro.dictionary import Dictionary
from repro.fst import make_kernel
from repro.errors import check_int
from repro.mapreduce.metrics import JobMetrics
from repro.patex import PatEx
from repro.sequences import SequenceDatabase, as_mining_records


class SequentialDesqDfs:
    """Sequential frequent sequence mining with flexible constraints.

    Example::

        miner = SequentialDesqDfs(patex, sigma=100, dictionary=dictionary)
        result = miner.mine(database)

    It mines one weighted record per *distinct* input sequence (the
    corpus-level dedup), so the projected databases shrink proportionally to
    duplication.
    """

    algorithm_name = "DESQ-DFS"

    def __init__(
        self,
        patex: PatEx | str,
        sigma: int,
        dictionary: Dictionary,
        max_patterns: int = 10_000_000,
    ) -> None:
        self.patex = PatEx(patex) if isinstance(patex, str) else patex
        self.sigma = check_int(sigma, "sigma")
        self.dictionary = dictionary
        self.max_patterns = max_patterns

    def mine(self, database: SequenceDatabase | Sequence[Sequence[int]]) -> MiningResult:
        """Mine all frequent patterns sequentially."""
        fst = self.patex.compile(self.dictionary)
        kernel = make_kernel(fst, self.dictionary)
        miner = DesqDfsMiner(
            kernel,
            None,
            self.sigma,
            pivot=None,
            max_patterns=self.max_patterns,
        )
        started = time.perf_counter()
        sequences = []
        weights = []
        for sequence, weight in as_mining_records(database):
            sequences.append(sequence)
            weights.append(weight)
        patterns = miner.mine(sequences, weights)
        elapsed = time.perf_counter() - started
        metrics = JobMetrics(
            num_workers=1,
            map_task_seconds=[0.0],
            reduce_task_seconds=[elapsed],
            input_records=len(sequences),
            output_records=len(patterns),
        )
        return MiningResult(patterns, metrics, algorithm=self.algorithm_name)
