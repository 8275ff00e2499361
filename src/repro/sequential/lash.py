"""LASH / MG-FSM style specialised miner (maximum gap, maximum length, hierarchy).

LASH (SIGMOD'15) and MG-FSM (SIGMOD'13) are distributed FSM algorithms limited
to maximum-gap and maximum-length constraints (LASH additionally supports item
hierarchies).  They use item-based partitioning with sequence representation,
like D-SEQ, but their rewriting and local mining are specialised to the
gap/length setting and avoid FST machinery entirely — which is exactly why the
paper uses them as the "specialist" reference points in Fig. 12 and Fig. 13.

:class:`GapConstrainedMiner` reproduces that behaviour by running
:class:`GapConstrainedJob`, which alone holds the gap/length parameters.  Its
mining semantics match the pattern expressions ``T2(σ, γ, λ)`` and
``T3(σ, γ, λ)`` of Table III (with implicit ``.*`` context), so results can be
cross-checked against D-SEQ and D-CAND.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.cluster_miner import ClusterMiner
from repro.dictionary import Dictionary
from repro.errors import MiningError
from repro.mapreduce import ClusterConfig, MapReduceJob
from repro.sequences import fold_weighted_values


class GapConstrainedJob(MapReduceJob):
    """Item-based partitioning job for gap/length(/hierarchy) constraints."""

    use_combiner = True

    def __init__(
        self,
        dictionary: Dictionary,
        sigma: int,
        max_gap: int | None,
        max_length: int,
        min_length: int = 2,
        use_hierarchy: bool = True,
    ) -> None:
        if max_length < min_length:
            raise MiningError("max_length must be >= min_length")
        self.dictionary = dictionary
        self.sigma = sigma
        self.max_gap = max_gap
        self.max_length = max_length
        self.min_length = min_length
        self.use_hierarchy = use_hierarchy
        self.max_frequent_fid = dictionary.largest_frequent_fid(sigma)

    # ------------------------------------------------------------------ items
    def _outputs_for(self, item: int) -> tuple[int, ...]:
        """Frequent output items producible from an input item."""
        if self.use_hierarchy:
            ancestors = self.dictionary.ancestors(item)
        else:
            ancestors = (item,)
        return tuple(sorted(a for a in ancestors if a <= self.max_frequent_fid))

    # ------------------------------------------------------------------- map
    def map(self, record) -> Iterable[tuple[int, tuple]]:
        # Weighted records (corpus-level dedup) carry a multiplicity above 1
        # along with the windowed representation; weight 1 ships bare.
        sequence, weight = record
        if len(sequence) < self.min_length:
            return
        producible: list[tuple[int, ...]] = [self._outputs_for(item) for item in sequence]
        pivots: set[int] = set()
        for outputs in producible:
            pivots.update(outputs)
        if self.max_gap is None:
            window = len(sequence)
        else:
            window = (self.max_gap + 1) * (self.max_length - 1)
        for pivot in pivots:
            positions = [
                index for index, outputs in enumerate(producible) if pivot in outputs
            ]
            first = max(0, positions[0] - window)
            last = min(len(sequence), positions[-1] + window + 1)
            representation = sequence[first:last]
            yield pivot, representation if weight == 1 else (representation, weight)

    # --------------------------------------------------------------- combine
    def combine(
        self, key: int, values: list
    ) -> Iterable[tuple[int, tuple[tuple[int, ...], int]]]:
        """Aggregate identical windowed representations into weighted records.

        Values are bare representations (weight 1) or ``(representation,
        weight)`` pairs from deduplicated input; totals keep first-occurrence
        order, exactly like the pre-dedup ``Counter`` fold.
        """
        for representation, weight in fold_weighted_values(values).items():
            yield key, (representation, weight)

    # ---------------------------------------------------------------- reduce
    def reduce(
        self, key: int, values: list[tuple[tuple[int, ...], int]]
    ) -> Iterable[tuple[tuple[int, ...], int]]:
        sequences = [sequence for sequence, _weight in values]
        weights = [weight for _sequence, weight in values]
        miner = _PivotGapMiner(
            self,
            pivot=key,
        )
        yield from miner.mine(sequences, weights).items()

    # ------------------------------------------------------------ accounting
    def record_size(self, key: int, value) -> int:
        sequence, _weight = value
        return 8 + 4 * len(sequence)


class _PivotGapMiner:
    """Pattern-growth search for gap/length(/hierarchy) constrained sequences."""

    def __init__(self, job: GapConstrainedJob, pivot: int | None) -> None:
        self.job = job
        self.pivot = pivot

    def mine(
        self,
        sequences: Sequence[tuple[int, ...]],
        weights: Sequence[int] | None = None,
    ) -> dict[tuple[int, ...], int]:
        if weights is None:
            weights = [1] * len(sequences)
        patterns: dict[tuple[int, ...], int] = {}
        producible = [
            [self._outputs(item) for item in sequence] for sequence in sequences
        ]
        root = [(index, (-1,)) for index in range(len(sequences))]
        self._expand((), root, sequences, producible, weights, patterns)
        return patterns

    def _outputs(self, item: int) -> tuple[int, ...]:
        outputs = self.job._outputs_for(item)
        if self.pivot is None:
            return outputs
        return tuple(o for o in outputs if o <= self.pivot)

    def _expand(
        self,
        prefix: tuple[int, ...],
        projected: list[tuple[int, tuple[int, ...]]],
        sequences: Sequence[tuple[int, ...]],
        producible: list[list[tuple[int, ...]]],
        weights: Sequence[int],
        patterns: dict[tuple[int, ...], int],
    ) -> None:
        job = self.job
        if len(prefix) >= job.max_length:
            return
        children: dict[int, dict[int, set[int]]] = {}
        for sequence_index, last_positions in projected:
            outputs_by_position = producible[sequence_index]
            length = len(outputs_by_position)
            for last in last_positions:
                if last < 0:
                    window = range(0, length)
                elif job.max_gap is None:
                    window = range(last + 1, length)
                else:
                    window = range(last + 1, min(length, last + 2 + job.max_gap))
                for position in window:
                    for item in outputs_by_position[position]:
                        children.setdefault(item, {}).setdefault(
                            sequence_index, set()
                        ).add(position)

        for item in sorted(children):
            supporters = children[item]
            support = sum(weights[index] for index in supporters)
            if support < job.sigma:
                continue
            child_prefix = prefix + (item,)
            if self._should_output(child_prefix):
                patterns[child_prefix] = support
            child_projected = [
                (index, tuple(sorted(positions)))
                for index, positions in sorted(supporters.items())
            ]
            self._expand(
                child_prefix, child_projected, sequences, producible, weights, patterns
            )

    def _should_output(self, prefix: tuple[int, ...]) -> bool:
        if len(prefix) < self.job.min_length:
            return False
        if self.pivot is None:
            return True
        return max(prefix) == self.pivot


class GapConstrainedMiner(ClusterMiner):
    """Public interface of the specialised LASH/MG-FSM-style miner.

    Parameters mirror the traditional constraints of Table III: maximum gap γ
    (``None`` for unbounded gaps, the MLlib/PrefixSpan setting), maximum length
    λ, minimum length (2 for T2/T3, 1 for PrefixSpan-style T1), and whether
    hierarchy generalizations are allowed (LASH yes, MG-FSM no).  They are
    :class:`GapConstrainedJob`'s keyword arguments, forwarded to the job as
    they are and kept only there; the job refuses a ``max_length`` below
    ``min_length``.  The substrate is one
    :class:`~repro.mapreduce.ClusterConfig` passed as ``cluster=`` (see
    :class:`~repro.core.cluster_miner.ClusterMiner`): the specialist builds no
    FST and no grid, while it maps the corpus-level dedup like every cluster
    miner (its shuffle is item-partitioned like D-SEQ's).
    """

    algorithm_name = "LASH"
    job_class = GapConstrainedJob

    def __init__(
        self,
        sigma: int,
        dictionary: Dictionary,
        max_gap: int | None,
        max_length: int,
        min_length: int = 2,
        use_hierarchy: bool = True,
        cluster: ClusterConfig | None = None,
    ) -> None:
        super().__init__(
            None,
            sigma,
            dictionary,
            cluster,
            max_gap=max_gap,
            max_length=max_length,
            min_length=min_length,
            use_hierarchy=use_hierarchy,
        )
        if not use_hierarchy:
            self.algorithm_name = "MG-FSM"


class LashMiner(GapConstrainedMiner):
    """LASH: gap/length constraints with item hierarchies."""

    algorithm_name = "LASH"

    def __init__(self, sigma, dictionary, max_gap, max_length, **kwargs):
        kwargs.setdefault("use_hierarchy", True)
        super().__init__(sigma, dictionary, max_gap, max_length, **kwargs)


class MgFsmMiner(GapConstrainedMiner):
    """MG-FSM: gap/length constraints without hierarchies."""

    algorithm_name = "MG-FSM"

    def __init__(self, sigma, dictionary, max_gap, max_length, **kwargs):
        kwargs.setdefault("use_hierarchy", False)
        super().__init__(sigma, dictionary, max_gap, max_length, **kwargs)
