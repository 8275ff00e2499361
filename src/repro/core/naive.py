"""NAÏVE and SEMI-NAÏVE baselines: subsequence-based partitioning (Sec. III-A).

Both baselines generate all candidate subsequences in the map phase and count
them in the reduce phase (the distributed analogue of word count).  SEMI-NAÏVE
additionally exploits the restricted support antimonotonicity of subsequence
predicates (``f(w, D) >= f_π(S, D)`` for every ``w ∈ S``) and only emits
candidates consisting entirely of frequent items.

For loose constraints the number of candidates explodes; the paper reports
those runs as out-of-memory failures.  The reproduction surfaces the same
outcome as :class:`~repro.errors.CandidateExplosionError`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.cluster_miner import ClusterMiner
from repro.dictionary import Dictionary
from repro.fst import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_RUNS,
    Fst,
    MiningKernel,
    ensure_kernel,
    generate_candidates,
    make_kernel,
)
from repro.mapreduce import ClusterConfig, MapReduceJob
from repro.patex import PatEx
from repro.sequences import record_parts


class NaiveJob(MapReduceJob):
    """Word-count style job over candidate subsequences."""

    use_combiner = True

    def __init__(
        self,
        fst: Fst | MiningKernel,
        dictionary: Dictionary | None = None,
        sigma: int = 1,
        prune_infrequent_items: bool = False,
        max_candidates_per_sequence: int = DEFAULT_MAX_CANDIDATES,
        max_runs: int = DEFAULT_MAX_RUNS,
    ) -> None:
        kernel = ensure_kernel(fst, dictionary)
        self.kernel = kernel
        self.fst = kernel.fst
        self.dictionary = kernel.dictionary
        self.sigma = sigma
        self.prune_infrequent_items = prune_infrequent_items
        self.max_candidates_per_sequence = max_candidates_per_sequence
        self.max_runs = max_runs

    def map(self, record) -> Iterable[tuple[tuple[int, ...], int]]:
        # With corpus-level dedup, one candidate enumeration serves every
        # duplicate of the sequence: the record's multiplicity becomes the
        # emitted count (plain records carry an implicit weight of 1).
        sequence, weight = record_parts(record)
        candidates = generate_candidates(
            self.kernel,
            sequence,
            sigma=self.sigma if self.prune_infrequent_items else None,
            max_runs=self.max_runs,
            max_candidates=self.max_candidates_per_sequence,
        )
        for candidate in candidates:
            yield candidate, weight

    def combine(
        self, key: tuple[int, ...], values: list[int]
    ) -> Iterable[tuple[tuple[int, ...], int]]:
        yield key, sum(values)

    def reduce(
        self, key: tuple[int, ...], values: list[int]
    ) -> Iterable[tuple[tuple[int, ...], int]]:
        frequency = sum(values)
        if frequency >= self.sigma:
            yield key, frequency

    def record_size(self, key: tuple[int, ...], value: int) -> int:
        return 8 + 4 * len(key)


class _SubsequenceBaselineMiner(ClusterMiner):
    """Shared implementation of the NAÏVE and SEMI-NAÏVE miners.

    :meth:`mine` may raise :class:`~repro.errors.CandidateExplosionError`;
    the substrate is one :class:`~repro.mapreduce.ClusterConfig` passed as
    ``cluster=`` (see :class:`~repro.core.cluster_miner.ClusterMiner`).
    """

    algorithm_name = "baseline"
    prune_infrequent_items = False

    def __init__(
        self,
        patex: PatEx | str,
        sigma: int,
        dictionary: Dictionary,
        max_candidates_per_sequence: int = DEFAULT_MAX_CANDIDATES,
        max_runs: int = DEFAULT_MAX_RUNS,
        dedup: bool = True,
        cluster: ClusterConfig | None = None,
    ) -> None:
        super().__init__(sigma, dictionary, dedup=dedup, cluster=cluster)
        self.patex = PatEx(patex) if isinstance(patex, str) else patex
        self.max_candidates_per_sequence = max_candidates_per_sequence
        self.max_runs = max_runs

    def job(self) -> NaiveJob:
        return NaiveJob(
            make_kernel(self.patex.compile(self.dictionary), self.dictionary),
            sigma=self.sigma,
            prune_infrequent_items=self.prune_infrequent_items,
            max_candidates_per_sequence=self.max_candidates_per_sequence,
            max_runs=self.max_runs,
        )


class NaiveMiner(_SubsequenceBaselineMiner):
    """The NAÏVE baseline: emit and count every candidate subsequence."""

    algorithm_name = "NAIVE"
    prune_infrequent_items = False


class SemiNaiveMiner(_SubsequenceBaselineMiner):
    """The SEMI-NAÏVE baseline: emit only candidates made of frequent items."""

    algorithm_name = "SEMI-NAIVE"
    prune_infrequent_items = True
