"""D-CAND: distributed FSM with candidate representation (Sec. VI).

D-CAND enumerates the accepting runs of every input sequence in the map phase,
splits each run's candidate subsequences by pivot item, compresses the
per-pivot candidate sets into minimized NFAs, and ships the serialized NFAs to
the partitions.  Identical NFAs are aggregated into weighted NFAs by a
combiner.  Local mining simply counts on the weighted NFAs.

With corpus-level dedup (``dedup=True``, the default) the run enumeration —
the dominant map cost — executes once per *distinct* input sequence: the map
input is the database's
:meth:`~repro.sequences.store.EncodedSequenceStore.unique_view` and each
record's multiplicity rides along with its serialized NFAs.

The two enhancements evaluated in Fig. 10b are switchable:

* ``minimize_nfas``  -- minimize the per-pivot tries before serializing;
* ``aggregate_nfas`` -- aggregate identical serialized NFAs with a combiner.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.cluster_miner import ClusterMiner
from repro.core.nfa_mining import NfaLocalMiner
from repro.core.pivot_search import pivots_of_sorted_sets
from repro.dictionary import Dictionary
from repro.fst import (
    DEFAULT_MAX_RUNS,
    Fst,
    MiningKernel,
    accepting_output_sets,
    ensure_kernel,
    make_kernel,
)
from repro.mapreduce import ClusterConfig, MapReduceJob
from repro.nfa import TrieBuilder, deserialize, serialize_trie
from repro.patex import PatEx
from repro.sequences import fold_weighted_values, record_parts, weighted_value_parts


class DCandJob(MapReduceJob):
    """The MapReduce job run by :class:`DCandMiner`."""

    def __init__(
        self,
        fst: Fst | MiningKernel,
        dictionary: Dictionary | None = None,
        sigma: int = 1,
        minimize_nfas: bool = True,
        aggregate_nfas: bool = True,
        max_runs: int = DEFAULT_MAX_RUNS,
    ) -> None:
        kernel = ensure_kernel(fst, dictionary)
        self.kernel = kernel
        self.fst = kernel.fst
        self.dictionary = kernel.dictionary
        self.sigma = sigma
        self.minimize_nfas = minimize_nfas
        self.aggregate_nfas = aggregate_nfas
        self.max_runs = max_runs
        self.max_frequent_fid = self.dictionary.largest_frequent_fid(sigma)
        self.use_combiner = aggregate_nfas

    # ------------------------------------------------------------------- map
    def map(self, record) -> Iterable[tuple[int, bytes | tuple[bytes, int]]]:
        """Build one NFA per pivot item of ``record`` and emit it serialized.

        Plain records ship their NFAs bare (weight 1);
        :class:`~repro.sequences.store.WeightedSequence` records (corpus-level
        dedup) ship ``(payload, weight)`` pairs, so one run enumeration serves
        every duplicate of the sequence.
        """
        sequence, weight = record_parts(record)
        builders: dict[int, TrieBuilder] = {}
        seen: set[tuple] = set()
        for output_sets in accepting_output_sets(
            self.kernel, sequence, self.max_frequent_fid, self.max_runs
        ):
            # Runs that differ only in ε steps spell the same sets; inserting
            # them again would change no trie.
            key = tuple(output_sets)
            if key in seen:
                continue
            seen.add(key)
            for pivot in pivots_of_sorted_sets(output_sets):
                builder = builders.get(pivot)
                if builder is None:
                    builder = builders[pivot] = TrieBuilder()
                # Keep only items <= pivot (Sec. VI-A): a prefix of each
                # ascending set, never empty because the pivot is at least
                # every set's minimum.
                builder.add_run(output_sets, pivot)
        for pivot in sorted(builders):
            payload = serialize_trie(builders[pivot], self.minimize_nfas)
            yield pivot, payload if weight == 1 else (payload, weight)

    # --------------------------------------------------------------- combine
    def combine(
        self, key: int, values: list
    ) -> Iterable[tuple[int, tuple[bytes, int]]]:
        """Aggregate identical serialized NFAs into (NFA, weight) pairs.

        Values are bare payloads (weight 1) or ``(payload, weight)`` pairs
        from deduplicated input; totals keep first-occurrence order, exactly
        like the pre-dedup ``Counter`` fold.
        """
        for payload, weight in fold_weighted_values(values).items():
            yield key, (payload, weight)

    # ---------------------------------------------------------------- reduce
    def reduce(self, key: int, values: list) -> Iterable[tuple[tuple[int, ...], int]]:
        """Count candidate occurrences directly on the received NFAs."""
        nfas = []
        weights = []
        for value in values:
            payload, weight = weighted_value_parts(value)
            nfas.append(deserialize(payload))
            weights.append(weight)
        miner = NfaLocalMiner(self.sigma, pivot=key)
        yield from miner.mine(nfas, weights).items()

    # ------------------------------------------------------------ accounting
    def record_size(self, key: int, value) -> int:
        """Bytes charged per shuffled record: pivot (+weight) + NFA payload."""
        if isinstance(value, tuple):
            payload, _weight = value
            return 12 + len(payload)
        return 8 + len(value)


class DCandMiner(ClusterMiner):
    """Public interface of the D-CAND algorithm.

    Example::

        miner = DCandMiner(patex, sigma=2, dictionary=dictionary)
        result = miner.mine(database)

    The switches are Fig. 10b's ablation; the execution substrate is one
    :class:`~repro.mapreduce.ClusterConfig` passed as ``cluster=`` (see
    :class:`~repro.core.cluster_miner.ClusterMiner`).
    """

    algorithm_name = "D-CAND"

    def __init__(
        self,
        patex: PatEx | str,
        sigma: int,
        dictionary: Dictionary,
        minimize_nfas: bool = True,
        aggregate_nfas: bool = True,
        max_runs: int = DEFAULT_MAX_RUNS,
        dedup: bool = True,
        cluster: ClusterConfig | None = None,
    ) -> None:
        super().__init__(sigma, dictionary, dedup=dedup, cluster=cluster)
        self.patex = PatEx(patex) if isinstance(patex, str) else patex
        self.minimize_nfas = minimize_nfas
        self.aggregate_nfas = aggregate_nfas
        self.max_runs = max_runs

    def job(self) -> DCandJob:
        return DCandJob(
            make_kernel(self.patex.compile(self.dictionary), self.dictionary),
            sigma=self.sigma,
            minimize_nfas=self.minimize_nfas,
            aggregate_nfas=self.aggregate_nfas,
            max_runs=self.max_runs,
        )
