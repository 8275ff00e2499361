"""D-CAND: distributed FSM with candidate representation (Sec. VI).

D-CAND enumerates the accepting runs of every input sequence in the map phase,
splits each run's candidate subsequences by pivot item, compresses the
per-pivot candidate sets into minimized NFAs, and ships the serialized NFAs to
the partitions.  Identical NFAs are aggregated into weighted NFAs by a
combiner.  Local mining simply counts on the weighted NFAs.

With corpus-level dedup the run enumeration — the dominant map cost — executes
once per *distinct* input sequence: the map input is the database's
:meth:`~repro.sequences.store.EncodedSequenceStore.unique_view` and each
record's multiplicity rides along with its serialized NFAs.

The two enhancements evaluated in Fig. 10b are switchable, each a keyword
argument of :class:`DCandJob` (and so of :class:`DCandMiner`, which forwards
its options to the job):

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
)
from repro.mapreduce import MapReduceJob
from repro.nfa import TrieBuilder, decode_tables, serialize_pivot_tries
from repro.sequences import fold_weighted_values


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

        ``record`` is a :class:`~repro.sequences.store.WeightedSequence`
        (corpus-level dedup): weight 1 ships its NFAs bare, a larger weight
        ships ``(payload, weight)`` pairs, so one run enumeration serves every
        duplicate of the sequence.
        """
        sequence, weight = record
        tries = TrieBuilder()
        seen: set[tuple] = set()
        for output_sets in accepting_output_sets(
            self.kernel, sequence, self.max_frequent_fid, self.max_runs
        ):
            # Runs that differ only in ε steps spell the same sets; inserting
            # them again would change no trie.
            run = tuple(output_sets)
            if run not in seen:
                seen.add(run)
                # One call puts the run into every one of its pivots' tries;
                # each keeps only items <= its pivot (Sec. VI-A): a prefix of
                # each ascending set, never empty because the pivot is at
                # least every set's minimum.
                tries.add_run(run, pivots_of_sorted_sets(run))
        for pivot, payload in serialize_pivot_tries(tries, self.minimize_nfas):
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
        """Count candidate occurrences directly on the received NFAs.

        Identical payloads are folded first, and each distinct one is read
        once, straight into the tables the search counts on.
        """
        folded = fold_weighted_values(values)
        if sum(folded.values()) < self.sigma:
            return  # fewer than sigma sequences support no pattern
        miner = NfaLocalMiner(self.sigma, pivot=key)
        tables = [decode_tables(payload) for payload in folded]
        yield from miner.mine_tables(tables, list(folded.values())).items()

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

    Its options are :class:`DCandJob`'s keyword arguments: Fig. 10b's
    ablation switches and the ``max_runs`` cap.  The execution substrate is
    one :class:`~repro.mapreduce.ClusterConfig` passed as ``cluster=`` (see
    :class:`~repro.core.cluster_miner.ClusterMiner`).
    """

    algorithm_name = "D-CAND"
    job_class = DCandJob
