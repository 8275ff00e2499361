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

from collections.abc import Iterable, Sequence

from repro.core.results import MiningResult
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
from repro.mapreduce import Cluster, ClusterConfig, MapReduceJob
from repro.patex import PatEx
from repro.sequences import SequenceDatabase, as_mining_records, record_parts


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


class _SubsequenceBaselineMiner:
    """Shared implementation of the NAÏVE and SEMI-NAÏVE miners."""

    algorithm_name = "baseline"
    prune_infrequent_items = False

    def __init__(
        self,
        patex: PatEx | str,
        sigma: int,
        dictionary: Dictionary,
        num_workers: int = 4,
        max_candidates_per_sequence: int = DEFAULT_MAX_CANDIDATES,
        max_runs: int = DEFAULT_MAX_RUNS,
        grid: str | None = None,
        partitioner: str | None = None,
        dedup: bool = True,
        cluster: ClusterConfig | str | Cluster | None = None,
    ) -> None:
        self.patex = PatEx(patex) if isinstance(patex, str) else patex
        self.sigma = sigma
        self.dictionary = dictionary
        self.max_candidates_per_sequence = max_candidates_per_sequence
        self.max_runs = max_runs
        self.dedup = dedup
        self.cluster = ClusterConfig.resolve(
            cluster,
            num_workers=num_workers,
            grid=grid,
            partitioner=partitioner,
        )

    def mine(self, database: SequenceDatabase | Sequence[Sequence[int]]) -> MiningResult:
        """Mine all frequent patterns; may raise ``CandidateExplosionError``."""
        fst = self.patex.compile(self.dictionary)
        kernel = make_kernel(fst, self.dictionary)
        job = NaiveJob(
            kernel,
            sigma=self.sigma,
            prune_infrequent_items=self.prune_infrequent_items,
            max_candidates_per_sequence=self.max_candidates_per_sequence,
            max_runs=self.max_runs,
        )
        records = as_mining_records(database, dedup=self.dedup)
        cluster = self.cluster.build()
        if self.cluster.partitioner_name == "planned":
            # Only a planned run loads the planner (which imports the core jobs).
            from repro.core.balance import attach_partition_plan

            attach_partition_plan(self, job, records, cluster)
        result = cluster.run(job, records)
        return MiningResult(dict(result.outputs), result.metrics, self.algorithm_name)


class NaiveMiner(_SubsequenceBaselineMiner):
    """The NAÏVE baseline: emit and count every candidate subsequence."""

    algorithm_name = "NAIVE"
    prune_infrequent_items = False


class SemiNaiveMiner(_SubsequenceBaselineMiner):
    """The SEMI-NAÏVE baseline: emit only candidates made of frequent items."""

    algorithm_name = "SEMI-NAIVE"
    prune_infrequent_items = True
