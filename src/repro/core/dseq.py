"""D-SEQ: distributed FSM with sequence representation (Sec. V).

D-SEQ partitions the output space by pivot item and communicates *input
sequences* (rewritten to drop irrelevant borders) to the partitions of their
pivot items.  Each partition then runs the pivot-aware DESQ-DFS local miner.

The three enhancements evaluated in Fig. 10a are individually switchable,
each a keyword argument of :class:`DSeqJob` (and so of :class:`DSeqMiner`,
which forwards its options to the job):

* ``use_grid``       -- pivot search via the position–state grid instead of
                        enumerating accepting runs;
* ``use_rewriting``  -- trim leading/trailing irrelevant positions;
* ``use_early_stopping`` -- drop sequences from projected databases once they
                        can no longer produce the pivot item.

The grid is computed, not built: per record the map asks the kernel for its
:meth:`~repro.fst.compiled.MiningKernel.reachability_table` and, for an
accepted sequence only, one forward
:meth:`~repro.fst.compiled.MiningKernel.pivot_table` pass that returns the
pivot set and one relevance threshold per position; each pivot's
representation is then a slice (:func:`~repro.core.rewriting.rewrite`).  No
grid object and no per-record memo entry exist on the map path: records of
the corpus's unique view never repeat within a job.  The tests hold this
map against a job that reads the literal position–state grid
(``tests/reference/grid.py``).  The reduce side builds no grid: a rewritten
sequence landing in several partitions builds its
:class:`~repro.core.local_mining.MiningTables` once per worker, in the memo
of :mod:`repro.core.grid_engine`.

The map input is the corpus's
:meth:`~repro.sequences.store.EncodedSequenceStore.unique_view`: one weighted
record per distinct input sequence, so map work drops proportionally to
duplication instead of only deduplicating post-shuffle in the combiner.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import partial

from repro.core.cluster_miner import ClusterMiner
from repro.core.local_mining import DesqDfsMiner
from repro.core.pivot_search import pivots_by_run_enumeration
from repro.core.rewriting import rewrite
from repro.dictionary import Dictionary
from repro.errors import CandidateExplosionError
from repro.fst import DEFAULT_MAX_RUNS, Fst, MiningKernel, ensure_kernel
from repro.mapreduce import MapReduceJob
from repro.sequences import fold_weighted_values


class DSeqJob(MapReduceJob):
    """The MapReduce job run by :class:`DSeqMiner`."""

    use_combiner = True

    #: The map's one grid engine.  Only the frozen end-to-end replay reads
    #: it, passing it on as ``cached_grid(..., grid=job.grid)``.
    grid = "flat"

    def __init__(
        self,
        fst: Fst | MiningKernel,
        dictionary: Dictionary | None = None,
        sigma: int = 1,
        use_grid: bool = True,
        use_rewriting: bool = True,
        use_early_stopping: bool = True,
        max_runs: int = DEFAULT_MAX_RUNS,
    ) -> None:
        kernel = ensure_kernel(fst, dictionary)
        self.kernel = kernel
        self.fst = kernel.fst
        self.dictionary = kernel.dictionary
        self.sigma = sigma
        self.use_grid = use_grid
        self.use_rewriting = use_rewriting
        self.use_early_stopping = use_early_stopping
        self.max_runs = max_runs
        self.max_frequent_fid = self.dictionary.largest_frequent_fid(sigma)

    def _grid_answers(self, sequence: tuple[int, ...]):
        """``(K(T), rewrite)`` of the position–state grid's dynamic program,
        where ``rewrite(pivot)`` is ρ_pivot(T)."""
        kernel = self.kernel
        alive = kernel.reachability_table(sequence)
        if not (alive[0] >> kernel.initial_state) & 1:
            return set(), None  # rejected: no pivot, nothing to rewrite
        pivots, relevance = kernel.pivot_table(sequence, alive, self.max_frequent_fid)
        return pivots, partial(rewrite, sequence, relevance)

    # ------------------------------------------------------------------- map
    def map(self, record) -> Iterable[tuple[int, tuple]]:
        """Send (rewritten) ``record`` to the partitions of its pivot items.

        ``record`` is a :class:`~repro.sequences.store.WeightedSequence` (the
        corpus-level dedup); a weight above 1 rides along with the rewritten
        representation so the combiner and reducer count it correctly.
        Pivots are emitted in the pivot set's iteration order: the combiner's
        first-occurrence order, and with it the wire layout, follows it.
        """
        sequence, weight = record
        answers = None
        if self.use_grid or self.use_rewriting:
            answers = self._grid_answers(sequence)
        if self.use_grid:
            pivots = answers[0]
        else:
            try:
                pivots = pivots_by_run_enumeration(
                    self.kernel,
                    sequence,
                    max_frequent_fid=self.max_frequent_fid,
                    max_runs=self.max_runs,
                )
            except CandidateExplosionError:
                # Without the grid, run enumeration can explode; D-SEQ then
                # falls back to the grid for this sequence (the ablation in
                # Fig. 10a measures the cost of reaching this point).
                pivots = (answers or self._grid_answers(sequence))[0]
        rewriter = answers[1] if self.use_rewriting else None
        for pivot in pivots:
            representation = sequence if rewriter is None else rewriter(pivot)
            if weight == 1:
                yield pivot, representation
            else:
                yield pivot, (representation, weight)

    # --------------------------------------------------------------- combine
    def combine(
        self, key: int, values: list
    ) -> Iterable[tuple[int, tuple[tuple[int, ...], int]]]:
        """Aggregate identical (rewritten) sequences into weighted records.

        Values are bare representations (weight 1) or ``(representation,
        weight)`` pairs from deduplicated input; totals are emitted in
        first-occurrence order, exactly like the pre-dedup ``Counter`` fold.
        """
        for representation, weight in fold_weighted_values(values).items():
            yield key, (representation, weight)

    # ---------------------------------------------------------------- reduce
    def reduce(
        self, key: int, values: list[tuple[tuple[int, ...], int]]
    ) -> Iterable[tuple[tuple[int, ...], int]]:
        """Mine partition ``key`` with the pivot-aware DESQ-DFS miner."""
        weights = [weight for _sequence, weight in values]
        if sum(weights) < self.sigma:
            return  # fewer than sigma sequences support no pattern
        sequences = [sequence for sequence, _weight in values]
        miner = DesqDfsMiner(
            self.kernel,
            None,
            self.sigma,
            pivot=key,
            use_early_stopping=self.use_early_stopping,
            max_frequent_fid=self.max_frequent_fid,
        )
        patterns = miner.mine(sequences, weights)
        yield from patterns.items()

    # ------------------------------------------------------------ accounting
    def record_size(self, key: int, value) -> int:
        """Bytes charged per shuffled record: pivot + weight + one int per item."""
        sequence, _weight = value
        return 8 + 4 * len(sequence)


class DSeqMiner(ClusterMiner):
    """Public interface of the D-SEQ algorithm.

    Example::

        miner = DSeqMiner(patex, sigma=2, dictionary=dictionary)
        result = miner.mine(database)

    Its options are :class:`DSeqJob`'s keyword arguments: Fig. 10a's
    ablation switches and the ``max_runs`` cap.  The execution substrate is
    one :class:`~repro.mapreduce.ClusterConfig` passed as ``cluster=`` (see
    :class:`~repro.core.cluster_miner.ClusterMiner`).
    """

    algorithm_name = "D-SEQ"
    job_class = DSeqJob
