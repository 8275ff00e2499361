"""Flat pivot-grid engine: columnar position–state grid plus per-worker memos.

The position–state grid (Sec. V-A/V-B) is the dominant map-side computation of
D-SEQ and the early-stopping oracle of the pivot-aware local miner.  The
reference implementation in :mod:`repro.core.pivot_search` is deliberately
literal — one :class:`~repro.core.pivot_search.GridEdge` dataclass per live
edge and a ``dict[state] -> set`` pivot table per position.  This module is the
performance engine built on the same theory:

* :class:`FlatPivotGrid` stores the live edges in an arena of parallel
  ``array`` columns (source/target/tid plus a per-position offsets index and a
  flat output-item column) instead of per-edge objects; pivot sets are carried
  as **sorted runs** (tuples ordered ascending) and the ⊕ merge of Theorem 1 is
  evaluated over the sorted runs directly, with an O(1) fast path for ε output
  sets.  One fused backward pass over the columns precomputes everything
  :func:`~repro.core.rewriting.rewrite_for_pivot` and
  ``last_pivot_producing_position`` ask later, so the per-pivot queries of
  D-SEQ's map loop are array scans and dict lookups instead of re-walks of the
  edge lists.
* :func:`cached_grid` is a bounded per-worker memo of built grids, keyed by
  ``(grid engine, kernel fingerprint, encoded sequence, frequency filter)``:
  repeated sequences across chunks — and the same rewritten sequence arriving
  in several reduce partitions — build their grid once per worker process.
  On the reduce side a memoized grid also carries the sequence's local-mining
  tables (``reduce_tables``: finishable table and step index, see
  :class:`~repro.core.local_mining.MiningTables`).  They are filled lazily and
  only by the local miner — the map side never pays for them — and live and
  die with their memo entry.
  :class:`GridMemoWarmup` ships the sizing (and the mining kernel) through the
  persistent pool initializer.

``grid="legacy"`` selects the reference engine everywhere the knob is exposed
(miners, :class:`~repro.mapreduce.ClusterConfig`, ``--grid``); the
differential suite proves the two engines equivalent, mirroring the
compiled/interpreted kernel pair.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from collections.abc import Sequence

from repro.core.pivot_search import GridEdge, PositionStateGrid
from repro.dictionary import EPSILON_FID, Dictionary
from repro.errors import MiningError
from repro.fst import Fst, MiningKernel, ensure_kernel
from repro.fst.labels import EPSILON_OUTPUT

#: Grid-engine names accepted by miners, ``ClusterConfig``, and ``--grid``.
GRIDS = ("flat", "legacy")

#: Grid engine used when none is requested explicitly.
DEFAULT_GRID = "flat"

#: Sentinel "no non-ε output at this position" (larger than any fid).
_NO_OUTPUT = (1 << 64) - 1


def normalize_grid(grid: str | None) -> str:
    """Map a user-provided grid-engine name to a canonical one (None → default)."""
    if grid is None:
        return DEFAULT_GRID
    name = str(grid).strip().lower()
    if name not in GRIDS:
        raise MiningError(
            f"unknown grid engine {grid!r}; choose one of {', '.join(GRIDS)}"
        )
    return name


# ------------------------------------------------------------ sorted-run merge
def merge_sorted_runs(
    left: Sequence[int], right: Sequence[int]
) -> tuple[int, ...]:
    """The ⊕ operator of Theorem 1 over two *sorted* runs of distinct items.

    ``U ⊕ Q = {ω ∈ U | ω ≥ min(Q)} ∪ {ω ∈ Q | ω ≥ min(U)}`` — with sorted
    runs both operand restrictions are suffixes found by one bisect each, and
    the union is a linear merge.  Returns a sorted tuple; an empty operand
    annihilates the merge, exactly like :func:`~repro.core.pivot_search.pivot_merge`.
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


# ------------------------------------------------------------------- the grid
class FlatPivotGrid:
    """Columnar position–state grid (the ``grid="flat"`` engine).

    Construction runs the same forward dynamic program as
    :class:`~repro.core.pivot_search.PositionStateGrid` — every recorded edge,
    reachable coordinate, and pivot set is identical, which is what the
    differential suite checks — but the representation is flat:

    * live edges live in parallel ``array('q')`` columns
      (source/target/transition id) addressed by a per-position offsets index,
      with their frequency-filtered output items in one flat column;
    * pivot sets ``K(i, q)`` are sorted tuples merged with
      :func:`merge_sorted_runs` (⊕) and :func:`union_sorted_runs`, with ε
      output sets short-circuiting to the unchanged source run;
    * one backward pass fuses the queries: per-position change-state flags and
      minimum producible output item (which answer
      :meth:`relevant_range` for *any* pivot with an array scan) and the
      last producing position of every output item (which answers
      :meth:`last_pivot_producing_position` with a dict lookup).

    The interface mirrors the legacy grid, so
    :func:`~repro.core.rewriting.rewrite_for_pivot` and the miners accept
    either engine.
    """

    kind = "flat"

    #: Reduce-only slot: the sequence's local-mining tables, filled on first
    #: request by :func:`repro.core.local_mining.tables_of` (one assignment of
    #: a pure function of the memo key); the map side never touches it.
    reduce_tables = None

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
        n = len(self.sequence)
        self._alive = kernel.reachability_table(self.sequence)
        self._has_accepting_run = (
            self._alive[0][kernel.initial_state]
            if self.sequence
            else kernel.is_final(kernel.initial_state)
        )
        # Edge arena: parallel columns, addressed per position through
        # ``_edge_bounds`` (edges consuming position p occupy
        # ``[_edge_bounds[p - 1], _edge_bounds[p])``).
        self._edge_source = array("q")
        self._edge_target = array("q")
        self._edge_tid = array("q")
        self._edge_bounds = array("q", bytes(8 * (n + 1)))
        self._out_items = array("Q")
        self._out_start = array("q", (0,))
        # K(i, q) as sorted runs, one dict per position.
        self._pivots: list[dict[int, tuple[int, ...]]] = [{} for _ in range(n + 1)]
        # Fused backward summary (see _summarize).
        self._pos_changes_state = bytearray(n + 1)
        self._pos_min_output = array("Q", (_NO_OUTPUT,) * (n + 1))
        self._last_producing: dict[int, int] = {}
        if self._has_accepting_run and self.sequence:
            self._build()
            self._summarize()

    # ------------------------------------------------------------ construction
    def _build(self) -> None:
        kernel = self.kernel
        sequence = self.sequence
        max_frequent_fid = self.max_frequent_fid
        alive = self._alive
        edge_source = self._edge_source
        edge_target = self._edge_target
        edge_tid = self._edge_tid
        bounds = self._edge_bounds
        out_items = self._out_items
        out_start = self._out_start
        matching = kernel.matching
        target_of = kernel.target
        filtered_outputs = kernel.filtered_outputs
        previous: dict[int, tuple[int, ...]] = {kernel.initial_state: EPSILON_OUTPUT}
        self._pivots[0] = previous
        for position in range(1, len(sequence) + 1):
            item = sequence[position - 1]
            alive_row = alive[position]
            current: dict[int, tuple[int, ...]] = {}
            for source, source_pivots in previous.items():
                if not source_pivots:
                    continue
                for tid in matching(source, item):
                    target = target_of(tid)
                    if not alive_row[target]:
                        continue
                    outputs = filtered_outputs(tid, item, max_frequent_fid)
                    edge_source.append(source)
                    edge_target.append(target)
                    edge_tid.append(tid)
                    out_items.extend(outputs)
                    out_start.append(len(out_items))
                    if outputs == EPSILON_OUTPUT:
                        # U ⊕ {ε} = U: share the source run, no allocation.
                        contribution = source_pivots
                    else:
                        contribution = merge_sorted_runs(source_pivots, outputs)
                    bucket = current.get(target)
                    if bucket is None:
                        # Record the coordinate even when no frequent candidate
                        # passes through this particular edge (empty run).
                        current[target] = contribution
                    elif contribution and bucket is not contribution:
                        current[target] = union_sorted_runs(bucket, contribution)
            bounds[position] = len(edge_source)
            self._pivots[position] = current
            previous = current

    def _summarize(self) -> None:
        """One backward pass fusing every per-pivot query the grid serves.

        Fills the per-position change-state flags and minimum non-ε output
        item (the :meth:`relevant_range` oracle) and the last position able to
        produce each output item (the :meth:`last_pivot_producing_position`
        oracle; walking backward means the first sighting of an item *is* its
        last producing position).
        """
        bounds = self._edge_bounds
        sources = self._edge_source
        targets = self._edge_target
        out_items = self._out_items
        out_start = self._out_start
        changes = self._pos_changes_state
        minima = self._pos_min_output
        last = self._last_producing
        for position in range(len(self.sequence), 0, -1):
            minimum = _NO_OUTPUT
            for edge in range(bounds[position - 1], bounds[position]):
                if sources[edge] != targets[edge]:
                    changes[position] = 1
                for index in range(out_start[edge], out_start[edge + 1]):
                    item = out_items[index]
                    if item == EPSILON_FID:
                        continue
                    if item not in last:
                        last[item] = position
                    if item < minimum:
                        minimum = item
            minima[position] = minimum

    # ------------------------------------------------------------------ access
    @property
    def has_accepting_run(self) -> bool:
        """True iff the FST accepts the sequence at all."""
        return self._has_accepting_run

    @property
    def alive(self) -> list[list[bool]]:
        """The kernel's reachability table (shared, read-only by convention)."""
        return self._alive

    def edges_at(self, position: int) -> list[GridEdge]:
        """Live edges consuming the item at 1-based ``position`` (materialized)."""
        kernel = self.kernel
        out_start = self._out_start
        edges = []
        for index in range(self._edge_bounds[position - 1], self._edge_bounds[position]):
            tid = self._edge_tid[index]
            edges.append(
                GridEdge(
                    position=position,
                    source=self._edge_source[index],
                    target=self._edge_target[index],
                    transition=kernel.transition(tid),
                    outputs=tuple(self._out_items[out_start[index] : out_start[index + 1]]),
                )
            )
        return edges

    def live_edges(self):
        """All live edges in position order (materialized for inspection)."""
        for position in range(1, len(self.sequence) + 1):
            yield from self.edges_at(position)

    def pivot_set(self, position: int, state: int) -> set[int]:
        """``K(i, q)``: pivots of the partial runs ending at (position, state)."""
        return set(self._pivots[position].get(state, ()))

    def pivot_items(self) -> set[int]:
        """``K(T)``: the pivot items of the whole input sequence."""
        if not self._has_accepting_run:
            return set()
        row = self._pivots[len(self.sequence)]
        pivots: set[int] = set()
        for state in self.kernel.final_states:
            run = row.get(state)
            if run:
                pivots.update(run)
        pivots.discard(EPSILON_FID)
        return pivots

    # ------------------------------------------------ rewriting & early stopping
    def relevant_range(self, pivot: int) -> tuple[int, int]:
        """First and last relevant 1-based positions for ``pivot`` (Sec. V-B).

        A position is relevant when a live edge there changes the FST state or
        can produce a non-ε output item ``<= pivot`` — precomputed per
        position, so each query is two early-exiting array scans.
        """
        n = len(self.sequence)
        changes = self._pos_changes_state
        minima = self._pos_min_output
        first = 0
        for position in range(1, n + 1):
            if changes[position] or minima[position] <= pivot:
                first = position
                break
        if not first:
            return 1, n
        for position in range(n, first - 1, -1):
            if changes[position] or minima[position] <= pivot:
                return first, position
        return first, first  # pragma: no cover - first always qualifies

    def last_pivot_producing_position(self, pivot: int) -> int:
        """The last 1-based position whose live edges can output ``pivot``."""
        return self._last_producing.get(pivot, 0)


# ------------------------------------------------- incremental trie extension
class GrowableFlatGrid:
    """Shared forward state for trie-batched :class:`FlatPivotGrid` builds.

    The batch-map layer (:mod:`repro.core.prefix_batch`) walks a trie over the
    unique encoded sequences of a chunk and drives the kernel once per trie
    *node*: :meth:`extend` appends one position's arena columns and pivot row,
    :meth:`mark`/:meth:`rewind` make sibling branches share the prefix columns
    without copying, and :meth:`snapshot` freezes the current path into a real
    :class:`FlatPivotGrid`.

    The forward step here is *unfiltered*: it keeps the "skip empty pivot
    runs" rule but drops the per-target reachability check, because the
    reachability table depends on the whole sequence (it looks ahead to the
    suffix) and the suffix differs per trie branch.  :meth:`snapshot` restores
    exactly the filtered grid: it computes the leaf's reachability table and
    keeps only the arena columns and row entries whose coordinates are alive.
    Dead sources can only produce dead targets (a source with a live edge into
    an alive target is itself alive one position earlier), so filtering the
    unfiltered arena by target liveness reproduces the per-sequence build
    edge for edge — which is what the equivalence suite checks.
    """

    __slots__ = (
        "kernel",
        "max_frequent_fid",
        "_sequence",
        "_rows",
        "_edge_source",
        "_edge_target",
        "_edge_tid",
        "_out_items",
        "_out_start",
        "_bounds",
    )

    def __init__(
        self,
        fst: Fst | MiningKernel,
        dictionary: Dictionary | None = None,
        max_frequent_fid: int | None = None,
    ) -> None:
        kernel = ensure_kernel(fst, dictionary)
        self.kernel = kernel
        self.max_frequent_fid = max_frequent_fid
        self._sequence: list[int] = []
        self._rows: list[dict[int, tuple[int, ...]]] = [
            {kernel.initial_state: EPSILON_OUTPUT}
        ]
        # Plain lists, not arrays: the growable arena is append/truncate-heavy
        # and list ops are cheaper; :meth:`snapshot` converts the kept columns
        # to the arrays :class:`FlatPivotGrid` stores in one C pass.
        self._edge_source: list[int] = []
        self._edge_target: list[int] = []
        self._edge_tid: list[int] = []
        self._out_items: list[int] = []
        self._out_start: list[int] = [0]
        self._bounds = [0]

    def __len__(self) -> int:
        return len(self._sequence)

    def extend(self, item: int) -> None:
        """Append one position: the forward DP step consuming ``item``."""
        kernel = self.kernel
        max_frequent_fid = self.max_frequent_fid
        edge_source = self._edge_source
        edge_target = self._edge_target
        edge_tid = self._edge_tid
        out_items = self._out_items
        out_start = self._out_start
        matching = kernel.matching
        target_of = kernel.target
        filtered_outputs = kernel.filtered_outputs
        current: dict[int, tuple[int, ...]] = {}
        for source, source_pivots in self._rows[-1].items():
            if not source_pivots:
                continue
            for tid in matching(source, item):
                target = target_of(tid)
                outputs = filtered_outputs(tid, item, max_frequent_fid)
                edge_source.append(source)
                edge_target.append(target)
                edge_tid.append(tid)
                out_items.extend(outputs)
                out_start.append(len(out_items))
                if outputs == EPSILON_OUTPUT:
                    contribution = source_pivots
                else:
                    contribution = merge_sorted_runs(source_pivots, outputs)
                bucket = current.get(target)
                if bucket is None:
                    current[target] = contribution
                elif contribution and bucket is not contribution:
                    current[target] = union_sorted_runs(bucket, contribution)
        self._sequence.append(item)
        self._rows.append(current)
        self._bounds.append(len(edge_source))

    def mark(self) -> tuple[int, int, int]:
        """Opaque restore point for :meth:`rewind` (taken before a branch)."""
        return (len(self._sequence), len(self._edge_source), len(self._out_items))

    def rewind(self, mark: tuple[int, int, int]) -> None:
        """Truncate back to ``mark``, dropping every position added since."""
        positions, edges, outputs = mark
        del self._sequence[positions:]
        del self._rows[positions + 1 :]
        del self._bounds[positions + 1 :]
        del self._edge_source[edges:]
        del self._edge_target[edges:]
        del self._edge_tid[edges:]
        del self._out_start[edges + 1 :]
        del self._out_items[outputs:]

    def snapshot(self) -> FlatPivotGrid:
        """Freeze the current path into a standalone :class:`FlatPivotGrid`.

        Computes the leaf sequence's reachability table, copies the shared
        arena columns and pivot rows restricted to alive coordinates, and runs
        the stock fused backward pass — the result is indistinguishable from
        ``FlatPivotGrid(kernel, sequence)``.
        """
        kernel = self.kernel
        sequence = tuple(self._sequence)
        n = len(sequence)
        grid = FlatPivotGrid.__new__(FlatPivotGrid)
        grid.kernel = kernel
        grid.fst = kernel.fst
        grid.sequence = sequence
        grid.dictionary = kernel.dictionary
        grid.max_frequent_fid = self.max_frequent_fid
        alive = kernel.reachability_table(sequence)
        grid._alive = alive
        grid._has_accepting_run = (
            alive[0][kernel.initial_state]
            if sequence
            else kernel.is_final(kernel.initial_state)
        )
        grid._edge_source = array("q")
        grid._edge_target = array("q")
        grid._edge_tid = array("q")
        grid._edge_bounds = array("q", bytes(8 * (n + 1)))
        grid._out_items = array("Q")
        grid._out_start = array("q", (0,))
        grid._pivots = [{} for _ in range(n + 1)]
        grid._pos_changes_state = bytearray(n + 1)
        grid._pos_min_output = array("Q", (_NO_OUTPUT,) * (n + 1))
        grid._last_producing = {}
        if not (grid._has_accepting_run and sequence):
            return grid
        sources = self._edge_source
        targets = self._edge_target
        tids = self._edge_tid
        out_items = self._out_items
        out_start = self._out_start
        bounds = self._bounds
        kept_source: list[int] = []
        kept_target: list[int] = []
        kept_tid: list[int] = []
        kept_out: list[int] = []
        kept_start: list[int] = [0]
        grid._pivots[0] = dict(self._rows[0])
        for position in range(1, n + 1):
            alive_row = alive[position]
            row = self._rows[position]
            begin = bounds[position - 1]
            end = bounds[position]
            # Every edge target at this position is a key of ``row`` — when
            # none of them is dead, the whole block survives the filter and
            # copies as C-level array slices instead of edge by edge.
            clean = True
            for state in row:
                if not alive_row[state]:
                    clean = False
                    break
            if clean:
                kept_source.extend(sources[begin:end])
                kept_target.extend(targets[begin:end])
                kept_tid.extend(tids[begin:end])
                kept_out.extend(out_items[out_start[begin] : out_start[end]])
                shift = out_start[begin] - kept_start[-1]
                if shift:
                    kept_start.extend(
                        offset - shift for offset in out_start[begin + 1 : end + 1]
                    )
                else:
                    kept_start.extend(out_start[begin + 1 : end + 1])
                grid._pivots[position] = dict(row)
            else:
                for source, target, tid, out_lo, out_hi in zip(
                    sources[begin:end],
                    targets[begin:end],
                    tids[begin:end],
                    out_start[begin : end + 1],
                    out_start[begin + 1 : end + 1],
                ):
                    if not alive_row[target]:
                        continue
                    kept_source.append(source)
                    kept_target.append(target)
                    kept_tid.append(tid)
                    kept_out.extend(out_items[out_lo:out_hi])
                    kept_start.append(len(kept_out))
                grid._pivots[position] = {
                    state: run for state, run in row.items() if alive_row[state]
                }
            grid._edge_bounds[position] = len(kept_source)
        grid._edge_source = array("q", kept_source)
        grid._edge_target = array("q", kept_target)
        grid._edge_tid = array("q", kept_tid)
        grid._out_items = array("Q", kept_out)
        grid._out_start = array("q", kept_start)
        grid._summarize()
        return grid


#: Engine name -> grid class.
_GRID_CLASSES = {"flat": FlatPivotGrid, "legacy": PositionStateGrid}


def make_grid(
    fst: Fst | MiningKernel,
    sequence: Sequence[int],
    dictionary: Dictionary | None = None,
    max_frequent_fid: int | None = None,
    grid: str | None = None,
) -> FlatPivotGrid | PositionStateGrid:
    """Build a position–state grid with the requested engine (None → flat)."""
    grid_class = _GRID_CLASSES[normalize_grid(grid)]
    return grid_class(fst, sequence, dictionary, max_frequent_fid=max_frequent_fid)


# ------------------------------------------------------------ per-worker memo
#: Default bound on memoized grids per worker process.  Entries are small
#: (columns of one input sequence), so the bound is about cycling gracefully
#: on long jobs, not about tight memory pressure.  Pool workers die with
#: their job; on in-process backends the (bounded) memo deliberately
#: outlives the job so repeated mining over the same corpus stays warm —
#: call :func:`clear_grid_memo` or ``set_grid_memo_limit(0)`` to reclaim.
DEFAULT_GRID_MEMO_LIMIT = 1024

_memo_limit = DEFAULT_GRID_MEMO_LIMIT
_GRID_MEMO: dict = {}
_memo_lock = threading.Lock()
_memo_hits = 0
_memo_misses = 0


def set_grid_memo_limit(limit: int) -> None:
    """Resize (or, with 0, disable) this process's grid memo."""
    global _memo_limit
    if limit < 0:
        raise MiningError(f"grid memo limit must be >= 0, got {limit}")
    with _memo_lock:
        _memo_limit = limit
        while len(_GRID_MEMO) > limit:
            _GRID_MEMO.pop(next(iter(_GRID_MEMO)), None)


def clear_grid_memo() -> None:
    """Drop every memoized grid and reset the hit/miss counters (tests)."""
    global _memo_hits, _memo_misses
    with _memo_lock:
        _GRID_MEMO.clear()
        _memo_hits = 0
        _memo_misses = 0


def grid_memo_info() -> dict[str, int]:
    """Size, limit, and hit/miss counters of this process's grid memo."""
    return {
        "size": len(_GRID_MEMO),
        "limit": _memo_limit,
        "hits": _memo_hits,
        "misses": _memo_misses,
    }


class _SpanKey:
    """Memo-key component that reuses a precomputed span hash.

    Records produced by the dedup store's ``unique_view()`` carry the hash of
    their already-encoded span; wrapping the item tuple with that hash skips
    re-encoding and re-hashing the sequence bytes on every memo lookup.
    Equality still compares the items themselves, so a hash collision can only
    cost a probe, never return the wrong grid.  A ``_SpanKey`` never compares
    equal to the plain ``bytes`` encoding, so mixing hashed and raw records
    can at worst duplicate a memo entry.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: tuple, span_hash: int) -> None:
        self._items = items
        self._hash = span_hash

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, _SpanKey):
            return self._items == other._items
        return NotImplemented


def _memo_key(kernel: MiningKernel, sequence, max_frequent_fid, name, span_hash=None):
    # Compiled kernels carry a content fingerprint; interpreted kernels fall
    # back to object identity, which is safe because every memoized grid holds
    # a reference to its kernel (an id cannot be recycled while entries for it
    # remain alive).
    fingerprint = getattr(kernel, "fingerprint", None) or id(kernel)
    if span_hash is not None:
        return (name, fingerprint, _SpanKey(tuple(sequence), span_hash), max_frequent_fid)
    try:
        encoded = array("q", sequence).tobytes()
    except OverflowError:  # fids beyond 2**63 fall back to the tuple itself
        encoded = tuple(sequence)
    return (name, fingerprint, encoded, max_frequent_fid)


def cached_grid(
    fst: Fst | MiningKernel,
    sequence: Sequence[int],
    dictionary: Dictionary | None = None,
    max_frequent_fid: int | None = None,
    grid: str | None = None,
    span_hash: int | None = None,
) -> FlatPivotGrid | PositionStateGrid:
    """A built grid from this worker's memo, building (and caching) on a miss.

    The memo is keyed by ``(grid engine, kernel fingerprint, encoded sequence,
    frequency filter)``, so repeated input sequences across map chunks — and
    the same rewritten sequence landing in several reduce partitions — build
    their grid once per worker process.  Grids are *observably* immutable
    after construction, which is what makes sharing them safe: the one thing
    that changes later is the lazily filled ``reduce_tables`` slot, whose
    values are pure functions of the memo key published with one assignment
    each — threads sharing the memo may duplicate a fill but can never see a
    half-built or disagreeing one.  Pass ``span_hash``
    when the record already carries the dedup store's span hash to skip
    re-encoding the sequence for the key (see :class:`_SpanKey`).
    """
    global _memo_hits, _memo_misses
    kernel = ensure_kernel(fst, dictionary)
    name = normalize_grid(grid)
    key = _memo_key(kernel, sequence, max_frequent_fid, name, span_hash)
    with _memo_lock:
        hit = _GRID_MEMO.get(key)
        if hit is not None:
            _memo_hits += 1
            return hit
        _memo_misses += 1
    built = make_grid(kernel, sequence, max_frequent_fid=max_frequent_fid, grid=name)
    if _memo_limit:
        with _memo_lock:
            while len(_GRID_MEMO) >= _memo_limit:
                _GRID_MEMO.pop(next(iter(_GRID_MEMO)), None)
            _GRID_MEMO[key] = built
    return built


class GridMemoWarmup:
    """Worker-warmup payload: the mining kernel plus the grid-memo sizing.

    Shipped once per worker through the persistent pool initializer
    (:meth:`~repro.mapreduce.job.MapReduceJob.worker_warmup`): unpickling it
    interns the compiled kernel by content fingerprint *and* sizes the
    worker's grid memo, so later task unpickles find both caches warm.
    """

    __slots__ = ("kernel", "limit")

    def __init__(self, kernel, limit: int = DEFAULT_GRID_MEMO_LIMIT) -> None:
        self.kernel = kernel
        self.limit = limit

    def __reduce__(self):
        return (_restore_warmup, (self.kernel, self.limit))


def _restore_warmup(kernel, limit: int) -> GridMemoWarmup:
    set_grid_memo_limit(limit)
    return GridMemoWarmup(kernel, limit)
