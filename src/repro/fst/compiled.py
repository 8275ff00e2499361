"""The compiled mining kernel: flat transition tables and interval matchers.

Every miner in this library ultimately simulates an FST over input sequences:
the reachability table, run enumeration, the position–state grid, and the
pattern-growth local miner all ask the same two questions for every
(position × state × transition) triple — *does this transition match the item
at this position?* and *what does it output?*  Asking the labels
(:meth:`~repro.fst.labels.Label.matches` / :meth:`~repro.fst.labels.Label.outputs`)
on every probe walks the dictionary's hierarchy closures each time.

This module compiles an ``(Fst, Dictionary)`` pair into a
:class:`CompiledFst`: per-state transition ids in a flat CSR layout
(``array`` columns), one precompiled matcher per transition label
(equality test, match-all, or an interval probe over the dictionary's
DFS-interval descendant encoding — see :mod:`repro.dictionary.intervals`),
and memoized item → matching-transitions / output-set indexes that are shared
by every sequence a worker processes.  All consumers are written against
:class:`MiningKernel`, whose un-memoised table passes are the reference the
test suite checks the compiled kernel's memoised ones against.

A compiled kernel is cheaply picklable (the hot tables are ``array``/``bytes``
columns) and *interns* itself per process by a content fingerprint, the one
cache between a pattern expression and a warm kernel: compiling or unpickling
a content-equal ``(Fst, Dictionary)`` pair returns the already-warm kernel
object instead of re-deriving tables and memos.  A process pool hands the job,
and with it the kernel, to each worker once; tasks carry a job reference.
"""

from __future__ import annotations

import hashlib
import pickle
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence

from repro.dictionary import EPSILON_FID, Dictionary
from repro.errors import FstError
from repro.fst.fst import Fst, Transition
from repro.fst.labels import EPSILON_OUTPUT, Label

#: Matcher opcodes of compiled labels.
_MATCH_ALL, _MATCH_EQ, _MATCH_DESC = 0, 1, 2

#: Relevance threshold of a position no pivot finds relevant: no live edge
#: there changes state or produces an item (larger than any fid).
_NEVER_RELEVANT = (1 << 64) - 1


# ------------------------------------------------------------ sorted-run merge
def merge_sorted_runs(
    left: Sequence[int], right: Sequence[int]
) -> tuple[int, ...]:
    """The ⊕ operator of Theorem 1 over two *sorted* runs of distinct items.

    ``U ⊕ Q = {ω ∈ U | ω ≥ min(Q)} ∪ {ω ∈ Q | ω ≥ min(U)}`` — with sorted
    runs both operand restrictions are suffixes found by one bisect each, and
    the union is a linear merge.  Returns a sorted tuple; an empty operand
    annihilates the merge, exactly like the set-based ⊕ it is checked
    against (``tests/reference/grid.py``).
    """
    if not left or not right:
        return ()
    min_left = left[0]
    min_right = right[0]
    i = 0 if min_left >= min_right else bisect_left(left, min_right)
    j = 0 if min_right >= min_left else bisect_left(right, min_left)
    left_size = len(left)
    right_size = len(right)
    merged: list[int] = []
    append = merged.append
    while i < left_size and j < right_size:
        a = left[i]
        b = right[j]
        if a < b:
            append(a)
            i += 1
        elif b < a:
            append(b)
            j += 1
        else:
            append(a)
            i += 1
            j += 1
    if i < left_size:
        merged.extend(left[i:])
    elif j < right_size:
        merged.extend(right[j:])
    return tuple(merged)


def union_sorted_runs(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """Union of two sorted runs of distinct items, as a sorted run."""
    if not left:
        return right
    if not right:
        return left
    if left[-1] < right[0]:
        return left + right
    if right[-1] < left[0]:
        return right + left
    merged: list[int] = []
    append = merged.append
    i = j = 0
    left_size = len(left)
    right_size = len(right)
    while i < left_size and j < right_size:
        a = left[i]
        b = right[j]
        if a < b:
            append(a)
            i += 1
        elif b < a:
            append(b)
            j += 1
        else:
            append(a)
            i += 1
            j += 1
    merged.extend(left[i:] if i < left_size else right[j:])
    return tuple(merged)


class MiningKernel:
    """Common API of FST kernels; :class:`CompiledFst` is the product's one.

    A kernel owns an :class:`~repro.fst.fst.Fst` and a
    :class:`~repro.dictionary.Dictionary` and answers the hot-loop queries of
    every consumer: matching transition ids per (state, item), transition
    targets/capture flags, (filtered) output sets, the per-item edge list
    (:meth:`edge_rows`), the three per-sequence tables derived from state
    sets — reachability, finishable and last producing position — and the
    forward pivot pass of D-SEQ's map (:meth:`pivot_table`).
    """

    def __init__(self, fst: Fst, dictionary: Dictionary) -> None:
        self.fst = fst
        self.dictionary = dictionary
        self.num_states = fst.num_states
        self.initial_state = fst.initial_state
        self.final_states = frozenset(fst.final_states)
        self.transitions: tuple[Transition, ...] = fst.transitions
        self._targets = array("q", (t.target for t in self.transitions))
        self._captured = bytes(1 if t.label.captured else 0 for t in self.transitions)

    # ----------------------------------------------------------------- access
    def is_final(self, state: int) -> bool:
        return state in self.final_states

    def transition(self, tid: int) -> Transition:
        return self.transitions[tid]

    def target(self, tid: int) -> int:
        return self._targets[tid]

    def is_captured(self, tid: int) -> bool:
        return bool(self._captured[tid])

    # ------------------------------------------------------------ hot queries
    def matching(self, state: int, item: int) -> tuple[int, ...]:
        """Transition ids leaving ``state`` that match ``item`` (stable order)."""
        raise NotImplementedError

    def outputs(self, tid: int, item: int) -> tuple[int, ...]:
        """``out_δ(item)`` of transition ``tid`` (sorted; ``(0,)`` is ε)."""
        raise NotImplementedError

    def edge_rows(self, item: int) -> tuple[tuple[tuple, ...], ...]:
        """Per source state, the ``(target, outputs)`` edge of every
        transition matching ``item`` (in :meth:`matching` order).

        ``outputs`` is ``None`` for an uncaptured transition, else ``out_δ(item)``
        ascending and *unfiltered*: a consumer applies its frequency filter by
        stopping at the first output beyond it.
        """
        edge = self._edge
        return tuple(
            tuple(edge(tid, item) for tid in self.matching(state, item))
            for state in range(self.num_states)
        )

    def _edge(self, tid: int, item: int) -> tuple:
        return (self._targets[tid], self.outputs(tid, item) if self._captured[tid] else None)

    # ------------------------------------------------------------- DP tables
    def final_mask(self) -> int:
        """The final states as a bitmask (bit ``q`` set iff ``q`` is final)."""
        mask = 0
        for state in self.final_states:
            mask |= 1 << state
        return mask

    def backward_step(self, item: int, mask: int) -> int:
        """States with a transition matching ``item`` into a state of ``mask``.

        One step of the reverse automaton over state sets: the row of the
        reachability table before ``item`` from the row after it.
        """
        targets = self._targets
        stepped = 0
        for state in range(self.num_states):
            for tid in self.matching(state, item):
                if (mask >> targets[tid]) & 1:
                    stepped |= 1 << state
                    break
        return stepped

    def reachability_table(self, sequence: Sequence[int]) -> list[int]:
        """One bitmask per position: bit ``q`` of ``alive[i]`` is set iff an
        accepting run exists from position ``i`` (``i`` items consumed), state
        ``q`` — test it with ``(alive[i] >> q) & 1``.

        The table has ``len(sequence) + 1`` rows and ``alive[-1]`` is
        :meth:`final_mask`.  Masks are plain Python ints, never fixed-width
        words: an FST may have more than 64 states.
        """
        mask = self.final_mask()
        alive = [mask] * (len(sequence) + 1)
        for i in range(len(sequence) - 1, -1, -1):
            alive[i] = mask = self.backward_step(sequence[i], mask)
        return alive

    def finishable_step(self, item: int, mask: int) -> int:
        """States with an *uncaptured* transition matching ``item`` into a
        state of ``mask``: :meth:`backward_step` over ε-producing edges only."""
        stepped = 0
        for state, row in enumerate(self.edge_rows(item)):
            for target, outputs in row:
                if outputs is None and (mask >> target) & 1:
                    stepped |= 1 << state
                    break
        return stepped

    def finishable_table(self, sequence: Sequence[int]) -> list[int]:
        """One bitmask per position, like :meth:`reachability_table`: bit ``q``
        of ``finishable[i]`` is set iff acceptance is reachable from position
        ``i``, state ``q`` producing only ε outputs."""
        mask = self.final_mask()
        table = [mask] * (len(sequence) + 1)
        for i in range(len(sequence) - 1, -1, -1):
            table[i] = mask = self.finishable_step(sequence[i], mask)
        return table

    def last_producing_table(
        self, sequence: Sequence[int], alive: list[int], max_frequent_fid: int | None
    ) -> dict[int, int]:
        """Per output item, the last 1-based position whose live edges can
        output it (Sec. V-C's early-stopping cut; absent items never can).

        One forward pass over state sets: from the initial state along edges
        into ``alive`` states whose frequency-filtered output set is not
        empty — exactly the coordinates to which the position–state grid
        gives a non-empty ``K``, since ``U ⊕ Q`` is empty iff an operand is.
        ``alive`` is the sequence's :meth:`reachability_table`.
        """
        limit = float("inf") if max_frequent_fid is None else max_frequent_fid
        last: dict[int, int] = {}
        states = {self.initial_state}
        position = 0
        for item in sequence:
            position += 1
            mask = alive[position]
            rows = self.edge_rows(item)
            reached = set()
            for source in states:
                for target, outputs in rows[source]:
                    if not (mask >> target) & 1:
                        continue
                    if outputs is None:
                        reached.add(target)
                    elif outputs and outputs[0] <= limit:
                        reached.add(target)
                        for output in outputs:
                            if output > limit:
                                break
                            last[output] = position
            states = reached
        return last

    def pivot_table(
        self, sequence: Sequence[int], alive: list[int], max_frequent_fid: int | None
    ) -> tuple[set[int], list[int]]:
        """``K(T)`` and per-position relevance thresholds (Sec. V-A/V-B).

        The position–state grid's dynamic program as one forward pass over
        :meth:`edge_rows` that stores nothing per edge.  Pivot sets ``K(i, q)``
        are sorted runs merged with :func:`merge_sorted_runs` (⊕) and
        :func:`union_sorted_runs`; an ε output shares the source run; a
        coordinate is kept even when its run is empty, and a source with an
        empty run is skipped.  Only the previous and the current row exist.
        The frequency filter takes the prefix of each ascending output set.

        ``relevance[i]`` is the smallest pivot for which position ``i`` is
        relevant — ``0`` when a live edge there changes state, else the
        smallest output item of its live edges, else a sentinel above every fid
        (``relevance[0]`` is unused).  ``alive`` is the sequence's
        :meth:`reachability_table`, which must accept it.  The pivot set is
        built over :attr:`final_states` in their iteration order, so its own
        iteration order is a function of the final row alone.
        """
        limit = float("inf") if max_frequent_fid is None else max_frequent_fid
        edge_rows = self.edge_rows
        relevance = [_NEVER_RELEVANT] * (len(sequence) + 1)
        row: dict[int, tuple[int, ...]] = {self.initial_state: EPSILON_OUTPUT}
        position = 0
        for item in sequence:
            position += 1
            rows = edge_rows(item)
            mask = alive[position]
            current: dict[int, tuple[int, ...]] = {}
            threshold = _NEVER_RELEVANT
            for source, source_pivots in row.items():
                if not source_pivots:
                    continue
                for target, outputs in rows[source]:
                    if not (mask >> target) & 1:
                        continue
                    if source != target:
                        threshold = 0
                    if outputs is None:
                        # U ⊕ {ε} = U: share the source run, no allocation.
                        contribution = source_pivots
                    else:
                        if outputs[-1] > limit:
                            outputs = outputs[: bisect_right(outputs, limit)]
                        contribution = merge_sorted_runs(source_pivots, outputs)
                        if outputs and outputs[0] < threshold:
                            threshold = outputs[0]
                    bucket = current.get(target)
                    if bucket is None:
                        current[target] = contribution
                    elif contribution and bucket is not contribution:
                        current[target] = union_sorted_runs(bucket, contribution)
            relevance[position] = threshold
            row = current
        pivots: set[int] = set()
        for state in self.final_states:
            run = row.get(state)
            if run:
                pivots.update(run)
        pivots.discard(EPSILON_FID)
        return pivots, relevance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(states={self.num_states}, "
            f"transitions={len(self.transitions)})"
        )


#: Per-process intern cache of compiled kernels, keyed by content fingerprint.
#: Bounded FIFO: mining sessions cycle through a handful of (pattern,
#: dictionary) pairs, and eviction only costs a rebuild on the next unpickle.
_KERNEL_CACHE: dict[str, "CompiledFst"] = {}
_KERNEL_CACHE_LIMIT = 16

#: Warm per-kernel memo fields, rebuilt empty after an unpickle cache miss.
_MEMO_FIELDS = (
    "_match_memo",
    "_edge_memo",
    "_uncaptured_edges",
    "_finishable_memo",
    "_output_memo",
    "_backward_memo",
)

#: Bound on a kernel's backward-step memo — items and item classes it knows,
#: and state sets per step table; see :meth:`CompiledFst.reachability_table` —
#: and on its edge-row and finishable-step memos.
_BACKWARD_MEMO_LIMIT = 1 << 15


def _intern_kernel(kernel: "CompiledFst") -> "CompiledFst":
    cached = _KERNEL_CACHE.get(kernel.fingerprint)
    if cached is not None:
        return cached
    while len(_KERNEL_CACHE) >= _KERNEL_CACHE_LIMIT:
        _KERNEL_CACHE.pop(next(iter(_KERNEL_CACHE)))
    _KERNEL_CACHE[kernel.fingerprint] = kernel
    return kernel


def _restore_compiled(state: dict) -> "CompiledFst":
    """Unpickle hook: return the interned kernel when the worker has it."""
    cached = _KERNEL_CACHE.get(state["fingerprint"])
    if cached is not None:
        return cached
    kernel = CompiledFst.__new__(CompiledFst)
    kernel.__dict__.update(state)
    for field in _MEMO_FIELDS:
        kernel.__dict__[field] = {}
    return _intern_kernel(kernel)


def kernel_fingerprint(fst: Fst, dictionary: Dictionary) -> str:
    """Content digest of a kernel: FST structure plus dictionary content."""
    structure = (
        fst.num_states,
        fst.initial_state,
        tuple(sorted(fst.final_states)),
        tuple(
            (t.source, t.target, t.label.fid, t.label.exact, t.label.generalize,
             t.label.captured)
            for t in fst.transitions
        ),
    )
    digest = hashlib.sha1(pickle.dumps(structure, protocol=pickle.HIGHEST_PROTOCOL))
    digest.update(dictionary.content_fingerprint())
    return digest.hexdigest()


class CompiledFst(MiningKernel):
    """Flat-table FST kernel with memoized matching and output indexes.

    Construction freezes the FST into CSR transition columns and compiles one
    matcher per label: wildcards become match-all, exact item labels an
    integer comparison, and hierarchy labels an interval probe over the
    dictionary's DFS-interval descendant encoding.  The first time an item is
    seen, its matching transitions for *all* states are resolved once and
    memoized — every later (position, state) probe on any sequence is a dict
    hit plus integer reads.
    """

    def __init__(
        self, fst: Fst, dictionary: Dictionary, fingerprint: str | None = None
    ) -> None:
        super().__init__(fst, dictionary)
        index = dictionary.descendant_index()
        self._positions = index.positions
        out_start = array("q", [0])
        out_tids = array("q")
        for state in range(self.num_states):
            for transition in fst.outgoing(state):
                out_tids.append(transition.tid)
            out_start.append(len(out_tids))
        self._out_start = out_start
        self._out_tids = out_tids
        kinds = bytearray()
        fids = []
        intervals = []
        for transition in self.transitions:
            label = transition.label
            if label.fid is None:
                kinds.append(_MATCH_ALL)
                fids.append(0)
                intervals.append(None)
            elif label.exact and not label.generalize:
                kinds.append(_MATCH_EQ)
                fids.append(label.fid)
                intervals.append(None)
            else:
                kinds.append(_MATCH_DESC)
                fids.append(label.fid)
                intervals.append(index.descendant_intervals(label.fid))
        self._match_kind = bytes(kinds)
        self._match_fid = tuple(fids)
        self._match_interval = tuple(intervals)
        self._labels = tuple(t.label for t in self.transitions)
        self.fingerprint = fingerprint or kernel_fingerprint(fst, dictionary)
        self._match_memo: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._edge_memo: dict[int, tuple[tuple[tuple, ...], ...]] = {}
        self._uncaptured_edges: dict[int, tuple[int, None]] = {}
        self._finishable_memo: dict[tuple[int, int], int] = {}
        self._output_memo: dict[tuple[Label, int], tuple[int, ...]] = {}
        self._backward_memo: dict[int | tuple, dict[int, int]] = {}

    # ---------------------------------------------------------------- pickling
    def __reduce__(self):
        state = {
            key: value
            for key, value in self.__dict__.items()
            if key not in _MEMO_FIELDS
        }
        return (_restore_compiled, (state,))

    # ------------------------------------------------------------ hot queries
    def _match_rows(self, item: int) -> tuple[tuple[int, ...], ...]:
        rows = self._match_memo.get(item)
        if rows is None:
            position = self._positions.get(item)
            kind = self._match_kind
            fid_of = self._match_fid
            interval_of = self._match_interval
            out_start = self._out_start
            out_tids = self._out_tids
            built = []
            for state in range(self.num_states):
                matched = []
                for tid in out_tids[out_start[state] : out_start[state + 1]]:
                    opcode = kind[tid]
                    if opcode == _MATCH_ALL:
                        ok = True
                    elif opcode == _MATCH_EQ:
                        ok = item == fid_of[tid]
                    else:
                        ok = position is not None and position in interval_of[tid]
                    if ok:
                        matched.append(tid)
                built.append(tuple(matched))
            rows = tuple(built)
            self._match_memo[item] = rows
        return rows

    def edge_rows(self, item: int) -> tuple[tuple[tuple, ...], ...]:
        """The edge list of ``item``, memoised by the item alone.

        Keyed without the frequency filter so that one kernel mined at many σ
        holds one copy, and the ``(target, None)`` edge of an uncaptured
        transition is one tuple shared by every item it matches.
        """
        rows = self._edge_memo.get(item)
        if rows is None:
            if len(self._edge_memo) >= _BACKWARD_MEMO_LIMIT:
                self._edge_memo.clear()
            rows = self._edge_memo[item] = super().edge_rows(item)
        return rows

    def _edge(self, tid: int, item: int) -> tuple:
        if self._captured[tid]:
            return (self._targets[tid], self.outputs(tid, item))
        return self._uncaptured_edges.setdefault(tid, (self._targets[tid], None))

    def matching(self, state: int, item: int) -> tuple[int, ...]:
        return self._match_rows(item)[state]

    def outputs(self, tid: int, item: int) -> tuple[int, ...]:
        # Keyed by the label, not the transition: the repetitions of a pattern
        # compile to many transitions with one label, which share one tuple.
        key = (self._labels[tid], item)
        cached = self._output_memo.get(key)
        if cached is None:
            cached = self._labels[tid].outputs(item, self.dictionary)
            self._output_memo[key] = cached
        return cached

    # ------------------------------------------------------------- DP tables
    def reachability_table(self, sequence: Sequence[int]) -> list[int]:
        """The base table through memoised backward steps.

        ``_backward_memo`` maps an item to its step table ``{mask after: mask
        before}`` — the reverse automaton determinised lazily, one entry per
        (item class, state set) pair actually met — so a position costs two
        dict probes and a sequence one list.  Warm state like ``_match_memo``:
        never pickled, rebuilt empty on unpickle, and cleared wholesale when
        it outgrows :data:`_BACKWARD_MEMO_LIMIT`.  Threads share it without a
        lock: a value is a pure function of its key, so a duplicated fill — or
        one lost to a concurrent clear — only costs the step again.
        """
        memo = self._backward_memo
        mask = self.final_mask()
        alive = [mask] * (len(sequence) + 1)
        i = len(sequence)
        for item in reversed(sequence):
            table = memo.get(item)
            if table is None:
                table = self._step_table(item)
            stepped = table.get(mask)
            if stepped is None:
                if len(table) >= _BACKWARD_MEMO_LIMIT:
                    table.clear()
                stepped = table[mask] = self.backward_step(item, mask)
            i -= 1
            alive[i] = mask = stepped
        return alive

    def _step_table(self, item: int) -> dict[int, int]:
        """The (shared) backward-step table of an item first met.

        Items with equal match rows step alike, so they share one table: the
        memo holds it under the rows and again under every such item.
        """
        memo = self._backward_memo
        if len(memo) >= _BACKWARD_MEMO_LIMIT:
            memo.clear()
        table = memo[item] = memo.setdefault(self._match_rows(item), {})
        return table

    def finishable_step(self, item: int, mask: int) -> int:
        """The base step, memoised per ``(item, state set)`` like the
        reachability pass's (same bound, same lock-free sharing)."""
        memo = self._finishable_memo
        stepped = memo.get((item, mask))
        if stepped is None:
            if len(memo) >= _BACKWARD_MEMO_LIMIT:
                memo.clear()
            stepped = memo[item, mask] = super().finishable_step(item, mask)
        return stepped


def make_kernel(fst: Fst, dictionary: Dictionary) -> CompiledFst:
    """Compile a mining kernel for an ``(Fst, Dictionary)`` pair.

    Kernels are interned per process by content fingerprint, so compiling
    the same (pattern, dictionary) pair twice returns the same warm kernel
    object.
    """
    fingerprint = kernel_fingerprint(fst, dictionary)
    cached = _KERNEL_CACHE.get(fingerprint)
    if cached is not None:
        return cached
    return _intern_kernel(CompiledFst(fst, dictionary, fingerprint))


def ensure_kernel(
    subject: Fst | MiningKernel, dictionary: Dictionary | None = None
) -> MiningKernel:
    """Normalize an ``Fst`` or ready-made kernel to a :class:`MiningKernel`.

    A kernel passes through; a raw FST is handed to :func:`make_kernel`,
    whose content-keyed intern returns the warm kernel of an equal pair.
    """
    if isinstance(subject, MiningKernel):
        return subject
    if dictionary is None:
        raise FstError("a dictionary is required to build a kernel from a raw Fst")
    return make_kernel(subject, dictionary)
