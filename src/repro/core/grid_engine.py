"""The flat pivot grid (kept for the replay and the tests) plus the per-worker memo.

The position–state grid (Sec. V-A/V-B) is what D-SEQ's map computes, but the
product builds no grid object for it: :class:`~repro.core.dseq.DSeqJob`
asks the kernel two passes per record —
:meth:`~repro.fst.compiled.MiningKernel.reachability_table` and, for an accepted
sequence only, :meth:`~repro.fst.compiled.MiningKernel.pivot_table` — and
rewrites with :func:`~repro.core.rewriting.rewrite`.  The reduce side builds no
grid either (its early-stopping oracle is
:meth:`~repro.fst.compiled.MiningKernel.last_producing_table`).

* :class:`FlatPivotGrid` wraps the same two passes in the grid interface
  (``pivot_items``, ``relevant_range``, ``last_pivot_producing_position``).
  The equivalence suites hold it against the literal position–state grid in
  ``tests/reference/grid.py``, and the end-to-end replay
  (``benchmarks/e2e/replay.py``) calls it through :func:`cached_grid`.
* :func:`memoized` is one bounded per-worker memo of per-sequence values,
  keyed by ``(kind, kernel fingerprint, encoded sequence, frequency filter)``.
  The reduce side keeps its :class:`~repro.core.local_mining.MiningTables`
  there (kind ``"tables"``): a rewritten sequence landing in several
  partitions builds its tables once per worker.  :func:`cached_grid` keeps
  grids in the same memo.  A forked pool worker starts with the memo its
  driver had (usually empty) and the driver's limit.
"""

from __future__ import annotations

import threading
from array import array
from collections.abc import Sequence

from repro.core.rewriting import relevant_range
from repro.dictionary import Dictionary
from repro.errors import MiningError
from repro.fst import Fst, MiningKernel, ensure_kernel


# ------------------------------------------------------------------- the grid
class FlatPivotGrid:
    """The kernel's two passes behind the grid interface.

    Construction is :meth:`~repro.fst.compiled.MiningKernel.reachability_table`
    and — only when the sequence is non-empty and has an accepting run —
    :meth:`~repro.fst.compiled.MiningKernel.pivot_table`, which runs the
    position–state grid's dynamic program and keeps its answers: the pivot
    set and one relevance threshold per position.
    :meth:`last_pivot_producing_position` reads
    :meth:`~repro.fst.compiled.MiningKernel.last_producing_table` on first
    use.  A sequence without an accepting run holds its reachability table
    and nothing else.
    """

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
        self._pivots: set[int] | None = None
        self._relevance: list[int] | None = None
        self._last_producing: dict[int, int] | None = None
        if self._has_accepting_run and sequence:
            self._pivots, self._relevance = kernel.pivot_table(
                sequence, self._alive, max_frequent_fid
            )

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

    def pivot_items(self) -> set[int]:
        """``K(T)``: the pivot items of the whole input sequence (shared,
        read-only by convention: its iteration order is D-SEQ's emission
        order)."""
        return set() if self._pivots is None else self._pivots

    # ------------------------------------------------ rewriting & early stopping
    def relevant_range(self, pivot: int) -> tuple[int, int]:
        """First and last relevant 1-based positions for ``pivot`` (Sec. V-B;
        see :func:`~repro.core.rewriting.relevant_range`)."""
        if self._relevance is None:
            return 1, len(self.sequence)
        return relevant_range(self._relevance, pivot)

    def last_pivot_producing_position(self, pivot: int) -> int:
        """The last 1-based position whose live edges can output ``pivot``."""
        if self._pivots is None:
            return 0
        last_producing = self._last_producing
        if last_producing is None:
            last_producing = self._last_producing = self.kernel.last_producing_table(
                self.sequence, self._alive, self.max_frequent_fid
            )
        return last_producing.get(pivot, 0)


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


def _memo_key(kernel: MiningKernel, sequence, max_frequent_fid, name):
    """The :func:`memoized` key of ``name``'s value for a sequence."""
    # Compiled kernels carry a content fingerprint; other kernels fall back to
    # object identity, which is safe because every memoized value holds
    # a reference to its kernel (an id cannot be recycled while entries for it
    # remain alive).
    fingerprint = getattr(kernel, "fingerprint", None) or id(kernel)
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
) -> FlatPivotGrid:
    """A built :class:`FlatPivotGrid` from this worker's memo, building (and
    caching) on a miss.

    Keyed by ``("flat", kernel fingerprint, encoded sequence, frequency
    filter)``.  ``grid`` may only be ``None`` or ``"flat"``, the one engine;
    the end-to-end replay passes the job's :attr:`~repro.core.dseq.DSeqJob.grid`.
    ``span_hash`` is accepted and ignored (an older caller passes one).
    """
    if grid not in (None, "flat"):
        raise MiningError(f"unknown grid engine {grid!r}; the only one is 'flat'")
    kernel = ensure_kernel(fst, dictionary)
    return memoized(
        _memo_key(kernel, sequence, max_frequent_fid, "flat"),
        lambda: FlatPivotGrid(kernel, sequence, max_frequent_fid=max_frequent_fid),
    )
