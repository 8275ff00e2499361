"""Pivot-aware DESQ-DFS local mining (Sec. V-C).

The local miner receives the (possibly rewritten) input sequences of one
partition and mines the frequent pivot sequences for that partition's pivot
item with a pattern-growth search: the current prefix is expanded one output
item at a time, and each search-tree node keeps a projected database of
``(sequence, position, state)`` snapshots that can still produce the prefix
(Fig. 6).

With ``pivot=None`` the same code is the *sequential* DESQ-DFS baseline used
in Table V: it mines all frequent patterns of the given sequences.

The work is split by what it depends on.  *Per sequence* — a function of
``(kernel, sequence, frequency filter)`` only — are the reachability and
finishable tables and the step index of :class:`MiningTables`; under a pivot
they ride on the sequence's memoized grid (:func:`tables_of`), so a rewritten
sequence that lands in many partitions, and is met at every search-tree node
of each, computes them once per worker.  *Per partition* are a weight, the
last pivot-producing position and the search itself, which only filters the
shared step pairs by the pivot and the early-stopping cut.

All FST probes go through a :class:`~repro.fst.compiled.MiningKernel`; a raw
``(fst, dictionary)`` pair is wrapped in the default (compiled) kernel, whose
memoized matching/output indexes are shared by every sequence of a worker.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.dictionary import Dictionary
from repro.errors import MiningError
from repro.fst import Fst, MiningKernel, ensure_kernel
from repro.core.grid_engine import cached_grid, normalize_grid
from repro.core.prefix_batch import batched_grids, normalize_map_batching


class MiningTables:
    """Everything local mining needs that depends on the sequence alone.

    A pure function of ``(kernel, sequence, max_frequent_fid)``: the
    reachability table ``alive`` (one state bitmask per position), the
    ``finishable`` table (one flat ``bytes`` of ``(len(sequence) + 1) *
    num_states`` flags, built on first request) and
    the *step index*.  A snapshot ``(position, state)`` is coded as the int
    ``position * num_states + state``; :meth:`steps` maps a snapshot to the
    ascending tuple of ``(output item, next snapshot)`` pairs reachable through
    uncaptured live edges followed by one captured live edge, with outputs
    filtered by ``max_frequent_fid`` only.  The pivot and the early-stopping
    cut of a partition merely *filter* these pairs, so one instance serves
    every partition and every search-tree node that meets the sequence.

    Instances ride on the grid they were derived from (:func:`tables_of`) and
    live and die with its memo entry.  Lazily filled values are published with
    one assignment each: concurrent readers may duplicate a fill, but can
    never observe a half-built or disagreeing one.
    """

    __slots__ = ("kernel", "sequence", "max_frequent_fid", "alive", "_finishable", "_steps")

    def __init__(
        self,
        kernel: MiningKernel,
        sequence: tuple[int, ...],
        max_frequent_fid: int | None,
        alive: list[int] | None = None,
    ) -> None:
        self.kernel = kernel
        self.sequence = sequence
        self.max_frequent_fid = max_frequent_fid
        self.alive = kernel.reachability_table(sequence) if alive is None else alive
        self._finishable: bytes | None = None
        self._steps: dict[int, tuple[tuple[int, int], ...]] = {}

    def finishes(self, snapshots: Iterable[int]) -> bool:
        """True iff some snapshot reaches acceptance producing only ε outputs."""
        table = self._finishable
        if table is None:
            table = b"".join(map(bytes, self.kernel.finishable_table(self.sequence)))
            self._finishable = table
        for snapshot in snapshots:
            if table[snapshot]:
                return True
        return False

    def steps(self, snapshot: int) -> tuple[tuple[int, int], ...]:
        """The one-item expansions of ``snapshot``, ascending by output item."""
        entries = self._steps.get(snapshot)
        if entries is not None:
            return entries
        kernel = self.kernel
        sequence = self.sequence
        alive = self.alive
        max_frequent_fid = self.max_frequent_fid
        num_states = kernel.num_states
        n = len(sequence)
        found: set[tuple[int, int]] = set()
        visited = {snapshot}
        stack = [snapshot]
        while stack:
            position, fst_state = divmod(stack.pop(), num_states)
            if position >= n:
                continue
            item = sequence[position]
            next_alive = alive[position + 1]
            base = (position + 1) * num_states
            for tid in kernel.matching(fst_state, item):
                target = kernel.target(tid)
                if not (next_alive >> target) & 1:
                    continue
                if kernel.is_captured(tid):
                    for output in kernel.filtered_outputs(tid, item, max_frequent_fid):
                        found.add((output, base + target))
                elif base + target not in visited:
                    visited.add(base + target)
                    stack.append(base + target)
        entries = tuple(sorted(found))
        self._steps[snapshot] = entries
        return entries


def tables_of(grid) -> MiningTables:
    """The :class:`MiningTables` riding on ``grid``, created on first request.

    Reduce-only: the map side never asks, so grid construction stays as cheap
    as before and the tables share the grid's ``alive`` table.
    """
    tables = grid.reduce_tables
    if tables is None:
        tables = MiningTables(grid.kernel, grid.sequence, grid.max_frequent_fid, grid.alive)
        grid.reduce_tables = tables
    return tables


#: "No early-stopping cut": compares above every snapshot code.
_NO_LIMIT = float("inf")


class _SequenceState:
    """One partition's view of a sequence: shared tables, weight and cut.

    ``limit`` codes the early-stopping cut: while the pivot is missing from
    the prefix, expansions into snapshots ``>= limit`` (positions beyond
    ``last_pivot_position``, the last one able to produce the pivot) are
    dropped.  This is the cut "stop walking at ``position >=
    last_pivot_position``": every position walked on the way to a captured
    edge is smaller than the edge's own.  ``len(sequence)`` means no cut.
    """

    __slots__ = ("tables", "weight", "limit")

    def __init__(self, tables: MiningTables, weight: int, last_pivot_position: int) -> None:
        self.tables = tables
        self.weight = weight
        self.limit = (last_pivot_position + 1) * tables.kernel.num_states


class DesqDfsMiner:
    """Pattern-growth miner over FST snapshots.

    Parameters
    ----------
    fst, dictionary, sigma:
        The compiled constraint (an :class:`~repro.fst.fst.Fst` or a
        ready-made :class:`~repro.fst.compiled.MiningKernel`), the item
        dictionary (may be None when a kernel is given) and the minimum
        support.
    pivot:
        When given, only pivot sequences for this item are output and the
        search never expands prefixes with items larger than the pivot.
    use_early_stopping:
        Enable the heuristic of Sec. V-C that drops input sequences from a
        projected database once they can no longer contribute the pivot item.
    max_patterns:
        Safety cap on the number of emitted patterns.
    grid:
        The position–state grid engine serving the early-stopping oracle
        (``"flat"``, the default, or ``"legacy"``; see
        :mod:`repro.core.grid_engine`).
    map_batching:
        With ``"trie"`` (and the flat grid engine), the early-stopping grids
        of a partition's sequences are built in one trie-batched pass
        (:func:`~repro.core.prefix_batch.batched_grids`) instead of one
        forward simulation per sequence — rewritten sequences of one pivot
        share long prefixes, so this is where batching pays off twice.
        ``"off"`` (the default) keeps the per-sequence memoized path.
    """

    def __init__(
        self,
        fst: Fst | MiningKernel,
        dictionary: Dictionary | None,
        sigma: int,
        pivot: int | None = None,
        use_early_stopping: bool = True,
        max_patterns: int = 10_000_000,
        grid: str | None = None,
        map_batching: str | None = None,
    ) -> None:
        if sigma < 1:
            raise MiningError(f"sigma must be >= 1, got {sigma}")
        kernel = ensure_kernel(fst, dictionary)
        self.kernel = kernel
        self.fst = kernel.fst
        self.dictionary = kernel.dictionary
        self.sigma = sigma
        self.pivot = pivot
        self.use_early_stopping = use_early_stopping
        self.max_patterns = max_patterns
        self.grid = normalize_grid(grid)
        self.map_batching = normalize_map_batching(map_batching)
        self.max_frequent_fid = self.dictionary.largest_frequent_fid(sigma)

    # --------------------------------------------------------------------- API
    def mine(
        self,
        sequences: Sequence[Sequence[int]],
        weights: Sequence[int] | None = None,
    ) -> dict[tuple[int, ...], int]:
        """Mine the frequent (pivot) sequences of ``sequences``.

        ``weights`` gives the multiplicity of each input sequence (identical
        rewritten sequences may be aggregated upstream); defaults to 1 each.
        """
        if weights is None:
            weights = [1] * len(sequences)
        if len(weights) != len(sequences):
            raise MiningError("weights must align with sequences")

        kernel = self.kernel
        max_frequent_fid = self.max_frequent_fid
        cutting = self.pivot is not None and self.use_early_stopping
        built_grids: dict[tuple[int, ...], object] = {}
        if cutting and self.map_batching == "trie" and self.grid == "flat":
            # One trie-batched forward pass builds every early-stopping grid
            # of the partition; duplicates and shared prefixes are simulated
            # once (counters are map-side metrics, not threaded here).
            built_grids = batched_grids(
                kernel,
                (tuple(sequence) for sequence in sequences),
                max_frequent_fid=max_frequent_fid,
            )
        states: list[_SequenceState] = []
        for sequence, weight in zip(sequences, weights):
            sequence = tuple(sequence)
            if cutting:
                # The early-stopping oracle reads the position-state grid, and
                # the tables ride on it: through the per-worker memo a
                # rewritten sequence that lands in several partitions builds
                # both once per worker.  A trie-batched caller's prebuilt
                # grids carry their tables for this partition only.
                grid = built_grids.get(sequence)
                if grid is None:
                    grid = cached_grid(
                        kernel, sequence, max_frequent_fid=max_frequent_fid, grid=self.grid
                    )
                tables = tables_of(grid)
                last_pivot_position = grid.last_pivot_producing_position(self.pivot)
            else:
                tables = MiningTables(kernel, sequence, max_frequent_fid)
                last_pivot_position = len(sequence)
            if (tables.alive[0] >> kernel.initial_state) & 1:
                states.append(_SequenceState(tables, weight, last_pivot_position))
        return self._expand(states)

    # --------------------------------------------------------------- expansion
    def _expand(self, states: list[_SequenceState]) -> dict[tuple[int, ...], int]:
        """Depth-first pattern growth over the accepted sequences.

        A projected database maps a sequence index to the snapshots that can
        still produce the prefix; the root's holds ``(0, initial state)`` for
        every sequence.  The search keeps an explicit stack (a pattern may be
        as long as the longest input sequence) and visits children in
        ascending item order, so ``patterns`` fills in the order of a
        pre-order walk.
        """
        root = self.kernel.initial_state  # snapshot code of (0, initial state)
        root_projected = {index: {root} for index in range(len(states))}
        patterns: dict[tuple[int, ...], int] = {}
        sigma = self.sigma
        pivot = self.pivot
        # Step pairs ascend by item, so the scan of a snapshot stops at the
        # first item beyond the pivot; without a pivot nothing is beyond the
        # frequency filter the index already applied.
        bound = self.max_frequent_fid if pivot is None else pivot
        # (prefix, projected database, support, prefix contains the pivot)
        stack = [((), root_projected, 0, pivot is None)]
        while stack:
            prefix, projected, support, has_pivot = stack.pop()
            if support >= sigma and has_pivot:
                if len(patterns) >= self.max_patterns:
                    raise MiningError(
                        f"more than {self.max_patterns} patterns produced; "
                        "lower sigma or tighten the constraint"
                    )
                patterns[prefix] = support
            children: dict[int, dict[int, set[int]]] = {}
            for sequence_index, snapshots in projected.items():
                state = states[sequence_index]
                steps = state.tables.steps
                # While the pivot is missing, a sequence contributes only
                # through positions that can still produce it.
                limit = _NO_LIMIT if has_pivot else state.limit
                for snapshot in snapshots:
                    for item, successor in steps(snapshot):
                        if item > bound:
                            break
                        if successor >= limit:
                            continue
                        children.setdefault(item, {}).setdefault(sequence_index, set()).add(
                            successor
                        )
            for item in sorted(children, reverse=True):
                child = children[item]
                if sum(states[index].weight for index in child) < sigma:
                    continue
                support = sum(
                    states[index].weight
                    for index, snapshots in child.items()
                    if states[index].tables.finishes(snapshots)
                )
                stack.append((prefix + (item,), child, support, has_pivot or item == pivot))
        return patterns
