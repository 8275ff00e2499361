"""Flat pivot-grid engine: one-pass position–state grid plus the per-worker memo.

The position–state grid (Sec. V-A/V-B) is the dominant map-side computation of
D-SEQ.  The pivot-aware local miner reads no grid: its early-stopping oracle
is :meth:`~repro.fst.compiled.MiningKernel.last_producing_table`, and a grid's
``last_pivot_producing_position`` is the reference the tests hold that table
against.  The reference implementation in :mod:`repro.core.pivot_search` is
deliberately literal — one :class:`~repro.core.pivot_search.GridEdge`
dataclass per live edge and a ``dict[state] -> set`` pivot table per position.
This module is the performance engine built on the same theory:

* :class:`FlatPivotGrid` is the kernel's backward reachability table (one
  state bitmask per position) and, for accepted sequences only, **one forward
  pass** that stores nothing per edge: pivot sets are carried as **sorted
  runs** (tuples ordered ascending), the ⊕ merge of Theorem 1 is evaluated
  over the sorted runs directly with an O(1) fast path for ε output sets, and
  only the previous, the current and the final row exist.  Inside the same
  loop the pass records what :func:`~repro.core.rewriting.rewrite_for_pivot`
  and ``last_pivot_producing_position`` ask later — a relevance threshold per
  position and the last producing position per output item — so the per-pivot
  queries of D-SEQ's map loop are list scans and dict lookups.  A rejected
  sequence costs its reachability table and nothing else.
* :func:`memoized` is one bounded per-worker memo of per-sequence values,
  keyed by ``(kind, kernel fingerprint, encoded sequence, frequency filter)``.
  :func:`cached_grid` keeps the map side's grids in it — a sequence repeating
  across chunks builds its grid once per worker process — and the reduce side
  keeps its :class:`~repro.core.local_mining.MiningTables` there (kind
  ``"tables"``; a reducer never builds a grid), so both compete for the same
  limit and evict each other first-in, first-out.  A forked pool worker
  starts with the memo its driver had (usually empty) and the driver's limit;
  the job — and with it the kernel the keys fingerprint — reaches it once,
  through the pool initializer, so the memo serves every task the worker runs.

``grid="legacy"`` selects the reference engine wherever the knob is exposed
(:class:`~repro.mapreduce.ClusterConfig`, ``--grid``, :class:`~repro.core.dseq.DSeqJob`);
the differential suite proves the two engines equivalent.
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
# The engine names live beside the job model, where ClusterConfig checks them.
from repro.mapreduce.job import DEFAULT_GRID as DEFAULT_GRID
from repro.mapreduce.job import GRIDS as GRIDS
from repro.mapreduce.job import normalize_grid

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
    """One-pass position–state grid (the ``grid="flat"`` engine).

    Construction is the kernel's reachability table (one state bitmask per
    position) followed — only when the sequence has an accepting run — by one
    forward pass running the same dynamic program as
    :class:`~repro.core.pivot_search.PositionStateGrid`: every live edge,
    reachable coordinate and pivot set it meets is identical, which is what
    the differential suite checks.  The pass keeps what the mining path asks
    for and nothing per edge:

    * pivot sets ``K(i, q)`` are sorted tuples merged with
      :func:`merge_sorted_runs` (⊕) and :func:`union_sorted_runs`, with ε
      output sets short-circuiting to the unchanged source run; only the
      previous and the current row are alive, and the final row is kept
      (:meth:`pivot_items`);
    * per position, the smallest pivot for which the position is relevant —
      ``0`` when a live edge changes the FST state, else the minimum output
      item of its live edges — which answers :meth:`relevant_range` for *any*
      pivot with two early-exiting scans;
    * the last producing position of every output item (walking forward, the
      last write wins), which answers :meth:`last_pivot_producing_position`
      with a dict lookup (read by the equivalence suites only: reducers ask
      :class:`~repro.core.local_mining.MiningTables`).

    A sequence without an accepting run holds its reachability table and
    nothing else.  :meth:`edges_at`, :meth:`live_edges` and :meth:`pivot_set`
    are inspection API for the equivalence suites: each call re-runs the
    forward pass with a recorder.

    The interface mirrors the legacy grid, so
    :func:`~repro.core.rewriting.rewrite_for_pivot` and the miners accept
    either engine.
    """

    kind = "flat"

    def __init__(
        self,
        fst: Fst | MiningKernel,
        sequence: Sequence[int],
        dictionary: Dictionary | None = None,
        max_frequent_fid: int | None = None,
    ) -> None:
        kernel = ensure_kernel(fst, dictionary)
        sequence = tuple(sequence)
        self.kernel = kernel
        self.fst = kernel.fst
        self.sequence = sequence
        self.dictionary = kernel.dictionary
        self.max_frequent_fid = max_frequent_fid
        self._alive = kernel.reachability_table(sequence)
        # Also right for the empty sequence: its one row is the final states.
        self._has_accepting_run = bool((self._alive[0] >> kernel.initial_state) & 1)
        # K(n, q) as sorted runs; per-position relevance thresholds; last
        # producing position per output item.  Filled by the forward pass.
        self._final_row: dict[int, tuple[int, ...]] | None = None
        self._relevance: list[int] | None = None
        self._last_producing: dict[int, int] | None = None
        if self._has_accepting_run and sequence:
            self._final_row, self._relevance, self._last_producing = self._forward()

    # ------------------------------------------------------------ construction
    def _forward(self, trace: list | None = None):
        """The forward pass: ``(final K row, relevance, last producing)``.

        A pure function of the grid's kernel, sequence, reachability table and
        frequency filter.  Output sets are ε or ε-free ascending runs (see
        :meth:`~repro.fst.labels.Label.outputs`), so a set's minimum is its
        first item.  With a ``trace`` list (inspection only), the K row and
        the ``(source, target, tid, outputs)`` live edges of every position
        from 1 on are appended to it.
        """
        kernel = self.kernel
        sequence = self.sequence
        max_frequent_fid = self.max_frequent_fid
        alive = self._alive
        matching = kernel.matching
        target_of = kernel.target
        filtered_outputs = kernel.filtered_outputs
        relevance = [_NEVER_RELEVANT] * (len(sequence) + 1)
        last_producing: dict[int, int] = {}
        edges = None
        row: dict[int, tuple[int, ...]] = {kernel.initial_state: EPSILON_OUTPUT}
        position = 0
        for item in sequence:
            position += 1
            mask = alive[position]
            current: dict[int, tuple[int, ...]] = {}
            threshold = _NEVER_RELEVANT
            if trace is not None:
                edges = []
                trace.append((current, edges))
            for source, source_pivots in row.items():
                if not source_pivots:
                    continue
                for tid in matching(source, item):
                    target = target_of(tid)
                    if not (mask >> target) & 1:
                        continue
                    outputs = filtered_outputs(tid, item, max_frequent_fid)
                    if edges is not None:
                        edges.append((source, target, tid, outputs))
                    if source != target:
                        threshold = 0
                    if outputs == EPSILON_OUTPUT:
                        # U ⊕ {ε} = U: share the source run, no allocation.
                        contribution = source_pivots
                    else:
                        contribution = merge_sorted_runs(source_pivots, outputs)
                        if outputs:
                            if outputs[0] < threshold:
                                threshold = outputs[0]
                            for output in outputs:
                                last_producing[output] = position
                    bucket = current.get(target)
                    if bucket is None:
                        # Record the coordinate even when no frequent candidate
                        # passes through this particular edge (empty run).
                        current[target] = contribution
                    elif contribution and bucket is not contribution:
                        current[target] = union_sorted_runs(bucket, contribution)
            relevance[position] = threshold
            row = current
        return row, relevance, last_producing

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

    def _replay(self) -> list:
        """``(K row, live edges)`` per position 0..n, re-walked on demand."""
        if self._final_row is None:  # no forward pass was made: nothing is live
            return [({}, [])] * (len(self.sequence) + 1)
        trace: list = [({self.kernel.initial_state: EPSILON_OUTPUT}, [])]
        self._forward(trace)
        return trace

    def edges_at(self, position: int) -> list[GridEdge]:
        """Live edges consuming the item at 1-based ``position`` (inspection)."""
        transition = self.kernel.transition
        return [
            GridEdge(position, source, target, transition(tid), outputs)
            for source, target, tid, outputs in self._replay()[position][1]
        ]

    def live_edges(self):
        """All live edges in position order (inspection)."""
        transition = self.kernel.transition
        for position, (_row, edges) in enumerate(self._replay()):
            for source, target, tid, outputs in edges:
                yield GridEdge(position, source, target, transition(tid), outputs)

    def pivot_set(self, position: int, state: int) -> set[int]:
        """``K(i, q)``: pivots of the partial runs ending at (position, state)
        (inspection; :meth:`pivot_items` reads the kept final row)."""
        return set(self._replay()[position][0].get(state, ()))

    def pivot_items(self) -> set[int]:
        """``K(T)``: the pivot items of the whole input sequence."""
        row = self._final_row
        if not row:
            return set()
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
        can produce a non-ε output item ``<= pivot`` — one threshold per
        position, so each query is two early-exiting scans.
        """
        n = len(self.sequence)
        relevance = self._relevance
        if relevance is None:
            return 1, n
        first = 0
        for position in range(1, n + 1):
            if relevance[position] <= pivot:
                first = position
                break
        if not first:
            return 1, n
        for position in range(n, first - 1, -1):
            if relevance[position] <= pivot:
                return first, position
        return first, first  # pragma: no cover - first always qualifies

    def last_pivot_producing_position(self, pivot: int) -> int:
        """The last 1-based position whose live edges can output ``pivot``."""
        last_producing = self._last_producing
        return last_producing.get(pivot, 0) if last_producing else 0


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
#: Default bound on memoized grids and mining tables per worker process.
#: Entries are small (tables of one sequence), so the bound is about cycling
#: gracefully on long jobs, not about tight memory pressure.  Pool workers die with
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
    """Resize (or, with 0, disable) this process's memo of grids and tables."""
    global _memo_limit
    if limit < 0:
        raise MiningError(f"grid memo limit must be >= 0, got {limit}")
    with _memo_lock:
        _memo_limit = limit
        while len(_GRID_MEMO) > limit:
            _GRID_MEMO.pop(next(iter(_GRID_MEMO)), None)


def clear_grid_memo() -> None:
    """Drop every memoized grid and table and reset the hit/miss counters (tests)."""
    global _memo_hits, _memo_misses
    with _memo_lock:
        _GRID_MEMO.clear()
        _memo_hits = 0
        _memo_misses = 0


def grid_memo_info() -> dict[str, int]:
    """Size, limit, and hit/miss counters of this process's memo (grids and tables)."""
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
    """The :func:`memoized` key of ``name``'s value for a sequence."""
    # Compiled kernels carry a content fingerprint; other kernels fall back to
    # object identity, which is safe because every memoized value holds
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


def memoized(key, build):
    """The value under ``key`` in this worker's memo, built by ``build()``
    (and kept, within the limit) on a miss.

    Values are *observably* immutable after construction, which is what makes
    sharing them safe: what a value fills in later is a pure function of its
    key published with one assignment — threads sharing the memo may duplicate
    a build or a fill but can never see a half-built or disagreeing one.
    """
    global _memo_hits, _memo_misses
    with _memo_lock:
        hit = _GRID_MEMO.get(key)
        if hit is not None:
            _memo_hits += 1
            return hit
        _memo_misses += 1
    built = build()
    if _memo_limit:
        with _memo_lock:
            while len(_GRID_MEMO) >= _memo_limit:
                _GRID_MEMO.pop(next(iter(_GRID_MEMO)), None)
            _GRID_MEMO[key] = built
    return built


def cached_grid(
    fst: Fst | MiningKernel,
    sequence: Sequence[int],
    dictionary: Dictionary | None = None,
    max_frequent_fid: int | None = None,
    grid: str | None = None,
    span_hash: int | None = None,
) -> FlatPivotGrid | PositionStateGrid:
    """A built grid from this worker's memo, building (and caching) on a miss.

    Keyed by ``(grid engine, kernel fingerprint, encoded sequence, frequency
    filter)``, so repeated input sequences across map chunks build their grid
    once per worker process.  Pass ``span_hash`` when the record already
    carries the dedup store's span hash to skip re-encoding the sequence for
    the key (see :class:`_SpanKey`).
    """
    kernel = ensure_kernel(fst, dictionary)
    name = normalize_grid(grid)
    return memoized(
        _memo_key(kernel, sequence, max_frequent_fid, name, span_hash),
        lambda: make_grid(kernel, sequence, max_frequent_fid=max_frequent_fid, grid=name),
    )
