"""The position–state grid as written (Sec. V-A, Fig. 5b), and a D-SEQ job on it.

The product computes the grid's answers without a grid object: D-SEQ's map
asks the kernel for :meth:`~repro.fst.compiled.MiningKernel.reachability_table`
and :meth:`~repro.fst.compiled.MiningKernel.pivot_table`, and
:class:`~repro.core.grid_engine.FlatPivotGrid` wraps the same two passes.
This module keeps the literal grid they are checked against:

* :func:`pivot_merge` -- the ⊕ operator of Theorem 1 over sets;
* :class:`PositionStateGrid` -- one :class:`GridEdge` per live edge and a
  ``set`` of pivots ``K(i, q)`` per coordinate, with per-pivot edge re-walks
  for the rewrite bounds and the early-stopping oracle;
* :class:`ReferenceGridJob` -- :class:`~repro.core.dseq.DSeqJob` whose map
  reads that grid, so whole jobs on every backend can be held against the
  product's map.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import partial

from repro.core.dseq import DSeqJob
from repro.core.rewriting import rewrite_for_pivot
from repro.dictionary import EPSILON_FID, Dictionary
from repro.fst import Fst, MiningKernel, ensure_kernel
from repro.fst.fst import Transition
from tests.reference.kernel import filtered_outputs


# ----------------------------------------------------------------- pivot merge
def pivot_merge(left: set[int], right: Iterable[int]) -> set[int]:
    """The ⊕ operator: pivot items of the concatenation of two output sets.

    ``U ⊕ Q = {ω ∈ U | ω ≥ min(Q)} ∪ {ω ∈ Q | ω ≥ min(U)}`` with ε (fid 0)
    smaller than every item.  An empty operand annihilates the merge: no
    candidate can pass through an output set that lost all its items to the
    frequency filter.
    """
    right_items = (
        right if isinstance(right, (set, frozenset, tuple, list)) else tuple(right)
    )
    if not left or not right_items:
        return set()
    min_left = min(left)
    min_right = min(right_items)
    merged = {item for item in left if item >= min_right}
    merged.update(item for item in right_items if item >= min_left)
    return merged


# ------------------------------------------------------------------------ grid
@dataclass(frozen=True)
class GridEdge:
    """One live edge of the position–state grid.

    The edge consumes the input item at ``position`` (1-based), moving the FST
    from ``source`` to ``target`` via ``transition`` and producing
    ``outputs`` (already frequency-filtered; ``(0,)`` denotes ε).
    """

    position: int
    source: int
    target: int
    transition: Transition
    outputs: tuple[int, ...]

    @property
    def changes_state(self) -> bool:
        return self.source != self.target

    @property
    def produces_items(self) -> bool:
        return self.outputs != (EPSILON_FID,) and bool(self.outputs)


class PositionStateGrid:
    """The position–state grid of one input sequence (Fig. 5b).

    The grid records, for every (position, state) coordinate on an accepting
    run, the live incoming edges and the pivot set ``K(i, q)`` of the partial
    runs ending there.  Pivot search and sequence rewriting read it.
    """

    def __init__(
        self,
        fst: Fst | MiningKernel,
        sequence: Sequence[int],
        dictionary: Dictionary | None = None,
        max_frequent_fid: int | None = None,
    ) -> None:
        kernel = ensure_kernel(fst, dictionary)
        self.kernel = kernel
        self.fst = kernel.fst
        self.sequence = tuple(sequence)
        self.dictionary = kernel.dictionary
        self.max_frequent_fid = max_frequent_fid
        self._alive = kernel.reachability_table(self.sequence)
        self._edges: list[list[GridEdge]] = [[] for _ in range(len(self.sequence) + 1)]
        self._pivot_sets: list[dict[int, set[int]]] = [
            {} for _ in range(len(self.sequence) + 1)
        ]
        # Also right for the empty sequence: its one row is the final states.
        self._has_accepting_run = bool((self._alive[0] >> kernel.initial_state) & 1)
        if self._has_accepting_run and self.sequence:
            self._build()

    # ------------------------------------------------------------ construction
    def _build(self) -> None:
        kernel = self.kernel
        sequence = self.sequence
        max_frequent_fid = self.max_frequent_fid
        n = len(sequence)
        reachable = [set() for _ in range(n + 1)]
        reachable[0].add(kernel.initial_state)
        self._pivot_sets[0][kernel.initial_state] = {EPSILON_FID}

        for position in range(1, n + 1):
            item = sequence[position - 1]
            alive_row = self._alive[position]
            for source in reachable[position - 1]:
                source_pivots = self._pivot_sets[position - 1].get(source)
                if source_pivots is None or not source_pivots:
                    continue
                for tid in kernel.matching(source, item):
                    target = kernel.target(tid)
                    if not (alive_row >> target) & 1:
                        continue
                    outputs = filtered_outputs(kernel, tid, item, max_frequent_fid)
                    edge = GridEdge(
                        position=position,
                        source=source,
                        target=target,
                        transition=kernel.transition(tid),
                        outputs=outputs,
                    )
                    self._edges[position].append(edge)
                    reachable[position].add(target)
                    contribution = pivot_merge(source_pivots, outputs)
                    if contribution:
                        bucket = self._pivot_sets[position].setdefault(target, set())
                        bucket.update(contribution)
                    else:
                        # Keep the coordinate reachable even if no frequent
                        # candidate passes through this particular edge.
                        self._pivot_sets[position].setdefault(target, set())

    # ------------------------------------------------------------------ access
    @property
    def has_accepting_run(self) -> bool:
        """True iff the FST accepts the sequence at all."""
        return self._has_accepting_run

    @property
    def alive(self) -> list[int]:
        """The kernel's reachability table, one state bitmask per position
        (shared, read-only by convention)."""
        return self._alive

    def edges_at(self, position: int) -> list[GridEdge]:
        """Live edges consuming the item at 1-based ``position``."""
        return self._edges[position]

    def live_edges(self) -> Iterable[GridEdge]:
        """All live edges in position order."""
        for position in range(1, len(self.sequence) + 1):
            yield from self._edges[position]

    def pivot_set(self, position: int, state: int) -> set[int]:
        """``K(i, q)``: pivots of the partial runs ending at (position, state)."""
        return set(self._pivot_sets[position].get(state, set()))

    def pivot_items(self) -> set[int]:
        """``K(T)``: the pivot items of the whole input sequence."""
        if not self._has_accepting_run:
            return set()
        n = len(self.sequence)
        pivots: set[int] = set()
        for state in self.fst.final_states:
            pivots.update(self._pivot_sets[n].get(state, set()))
        pivots.discard(EPSILON_FID)
        return pivots

    # ------------------------------------------------ rewriting & early stopping
    def relevant_range(self, pivot: int) -> tuple[int, int]:
        """First and last relevant 1-based positions for ``pivot`` (Sec. V-B).

        A position is relevant if some live edge at that position changes the
        FST state or can produce an output item ``<= pivot``.  Positions
        outside the returned range can be dropped from the representation sent
        to partition ``pivot`` without changing its pivot sequences.
        """
        n = len(self.sequence)
        first = None
        last = 0
        for position in range(1, n + 1):
            if self._position_relevant(position, pivot):
                if first is None:
                    first = position
                last = position
        if first is None:
            return 1, n
        return first, last

    def _position_relevant(self, position: int, pivot: int) -> bool:
        for edge in self._edges[position]:
            if edge.changes_state:
                return True
            if edge.produces_items and any(
                output <= pivot for output in edge.outputs if output != EPSILON_FID
            ):
                return True
        return False

    def last_pivot_producing_position(self, pivot: int) -> int:
        """The last 1-based position whose live edges can output ``pivot``.

        The early-stopping cut of the pivot-aware local miner: an input
        sequence cannot contribute ``pivot`` to a prefix any more once mining
        has consumed items beyond this position.  Returns 0 when no position
        can produce the pivot.  The miner computes the same value without a
        grid (:meth:`~repro.fst.compiled.MiningKernel.last_producing_table`);
        this scan is the reference its tests compare against.
        """
        for position in range(len(self.sequence), 0, -1):
            for edge in self._edges[position]:
                if pivot in edge.outputs:
                    return position
        return 0


# ------------------------------------------------------------------------- job
class ReferenceGridJob(DSeqJob):
    """D-SEQ's job with its map reading :class:`PositionStateGrid`.

    Everything but the map's pivot search and rewriting is the product's
    :class:`~repro.core.dseq.DSeqJob`, so its patterns, shuffle records and
    wire bytes must equal the product job's on every backend.
    """

    def _grid_answers(self, sequence: tuple[int, ...]):
        grid = PositionStateGrid(
            self.kernel, sequence, max_frequent_fid=self.max_frequent_fid
        )
        return grid.pivot_items(), partial(rewrite_for_pivot, grid)
