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
``(kernel, sequence, frequency filter)`` only — are the reachability,
finishable and last-producing tables and the step index of
:class:`MiningTables`, each a pass over state sets along the kernel's per-item
edge list; no position–state grid is built.  Under a pivot they are kept in
the per-worker memo (:func:`~repro.core.grid_engine.memoized`), so a
rewritten sequence that lands in many partitions, and is met at every
search-tree node of each, computes them once per worker.  *Per partition* are a weight, one lookup of the last
pivot-producing position and the search itself, which only filters the shared
step pairs by the pivot and the early-stopping cut.

All FST probes go through a :class:`~repro.fst.compiled.MiningKernel`; a raw
``(fst, dictionary)`` pair is wrapped in a compiled kernel, whose
memoized matching/output indexes are shared by every sequence of a worker.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.dictionary import Dictionary
from repro.errors import MiningError, check_int
from repro.fst import Fst, MiningKernel, ensure_kernel
from repro.core.grid_engine import _memo_key, memoized


#: "No early-stopping cut" / "no frequency filter": compares above every
#: snapshot code and every fid.
_NO_LIMIT = float("inf")


class MiningTables:
    """Everything local mining needs that depends on the sequence alone.

    A pure function of ``(kernel, sequence, max_frequent_fid)``: the
    reachability table ``alive`` (one state bitmask per position) and, each
    built on first request, the ``finishable`` flags (one int, bit
    ``position * num_states + state``), the last producing position of every
    output item (the early-stopping oracle) and the *step index*.  A snapshot
    ``(position, state)`` is coded as the int ``position * num_states +
    state``; :meth:`steps` maps a snapshot to the
    ascending tuple of ``(output item, next snapshot)`` pairs reachable through
    uncaptured live edges followed by one captured live edge, with outputs
    filtered by ``max_frequent_fid`` only.  The pivot and the early-stopping
    cut of a partition merely *filter* these pairs, so one instance serves
    every partition and every search-tree node that meets the sequence.

    Lazily filled values are published with one assignment each: concurrent
    readers may duplicate a fill, but can never observe a half-built or
    disagreeing one.
    """

    __slots__ = (
        "kernel", "sequence", "max_frequent_fid", "alive",
        "_finishable", "_last_producing", "_steps",
    )

    def __init__(
        self, kernel: MiningKernel, sequence: tuple[int, ...], max_frequent_fid: int | None
    ) -> None:
        self.kernel = kernel
        self.sequence = sequence
        self.max_frequent_fid = max_frequent_fid
        self.alive = kernel.reachability_table(sequence)
        self._finishable: int | None = None
        self._last_producing: dict[int, int] | None = None
        self._steps: dict[int, tuple[tuple[int, int], ...]] = {}

    def finishes(self, snapshots: Iterable[int]) -> bool:
        """True iff some snapshot reaches acceptance producing only ε outputs."""
        flags = self._finishable
        if flags is None:
            flags = 0
            num_states = self.kernel.num_states
            for mask in reversed(self.kernel.finishable_table(self.sequence)):
                flags = flags << num_states | mask
            self._finishable = flags
        for snapshot in snapshots:
            if (flags >> snapshot) & 1:
                return True
        return False

    def last_producing_position(self, pivot: int) -> int:
        """The last 1-based position whose live edges can output ``pivot``
        (0 when none can): where Sec. V-C's early stopping cuts."""
        table = self._last_producing
        if table is None:
            table = self._last_producing = self.kernel.last_producing_table(
                self.sequence, self.alive, self.max_frequent_fid
            )
        return table.get(pivot, 0)

    def steps(self, snapshot: int) -> tuple[tuple[int, int], ...]:
        """The one-item expansions of ``snapshot``, ascending by output item."""
        entries = self._steps.get(snapshot)
        if entries is not None:
            return entries
        edge_rows = self.kernel.edge_rows
        sequence = self.sequence
        alive = self.alive
        limit = _NO_LIMIT if self.max_frequent_fid is None else self.max_frequent_fid
        num_states = self.kernel.num_states
        n = len(sequence)
        found: set[tuple[int, int]] = set()
        visited = {snapshot}
        stack = [snapshot]
        while stack:
            position, fst_state = divmod(stack.pop(), num_states)
            if position >= n:
                continue
            next_alive = alive[position + 1]
            base = (position + 1) * num_states
            for target, outputs in edge_rows(sequence[position])[fst_state]:
                if not (next_alive >> target) & 1:
                    continue
                if outputs is not None:
                    for output in outputs:
                        if output > limit:
                            break
                        found.add((output, base + target))
                elif base + target not in visited:
                    visited.add(base + target)
                    stack.append(base + target)
        entries = tuple(sorted(found))
        self._steps[snapshot] = entries
        return entries


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
    max_frequent_fid:
        The dictionary's largest frequent fid at ``sigma`` when the caller
        already holds it (D-SEQ's job does, once for all its partitions);
        scanned from the dictionary when omitted.
    """

    def __init__(
        self,
        fst: Fst | MiningKernel,
        dictionary: Dictionary | None,
        sigma: int,
        pivot: int | None = None,
        use_early_stopping: bool = True,
        max_patterns: int = 10_000_000,
        max_frequent_fid: int | None = None,
    ) -> None:
        check_int(sigma, "sigma")
        kernel = ensure_kernel(fst, dictionary)
        self.kernel = kernel
        self.fst = kernel.fst
        self.dictionary = kernel.dictionary
        self.sigma = sigma
        self.pivot = pivot
        self.use_early_stopping = use_early_stopping
        self.max_patterns = max_patterns
        if max_frequent_fid is None:
            max_frequent_fid = self.dictionary.largest_frequent_fid(sigma)
        self.max_frequent_fid = max_frequent_fid

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
        states: list[_SequenceState] = []
        for sequence, weight in zip(sequences, weights):
            sequence = tuple(sequence)
            if cutting:
                # Through the per-worker memo a rewritten sequence that lands
                # in several partitions builds its tables once per worker.
                tables = memoized(
                    _memo_key(kernel, sequence, max_frequent_fid, "tables"),
                    lambda: MiningTables(kernel, sequence, max_frequent_fid),
                )
                last_pivot_position = tables.last_producing_position(self.pivot)
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
