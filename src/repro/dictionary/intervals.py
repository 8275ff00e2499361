"""Interval-encoded descendant sets for O(log k) hierarchy matching.

:meth:`~repro.dictionary.dictionary.Dictionary.generalizes_to` — the inner
predicate of every item-label FST transition — walks the cached ancestor
closure of the input item.  The compiled mining kernel replaces that per-call
set membership with a *positional* test: every dictionary item is assigned a
DFS position over a spanning forest of the hierarchy, and the descendant set
``desc(w)`` of each item is frozen into a sorted list of ``[start, end]``
position runs.  ``v ∈ desc(w)`` then becomes a bisect probe into two flat
``array`` columns — O(log k) in the number of runs, with no per-item closure
materialization on the hot path.

For forest-shaped hierarchies every descendant set is a single contiguous DFS
interval (the classic Euler-tour encoding).  Items reachable through multiple
parents (a hierarchy DAG, e.g. a product in two categories) fragment the
encoding; their descendant sets coalesce into several runs, which the same
bisect probe handles without a special case.  Positions are dense small
integers regardless of fid magnitude, so fids ≥ 2^63 cost nothing extra.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterable


class IntervalSet:
    """An immutable set of integers stored as sorted, coalesced runs.

    Membership is a binary search over the run starts: find the last run
    starting at or before the probe, then check the probe against that run's
    end.  Runs are stored in two parallel signed 64-bit ``array`` columns,
    which pickle as flat bytes.
    """

    __slots__ = ("_starts", "_ends", "_size")

    def __init__(self, starts: array, ends: array, size: int) -> None:
        self._starts = starts
        self._ends = ends
        self._size = size

    @classmethod
    def from_positions(cls, positions: Iterable[int]) -> "IntervalSet":
        """Build an interval set from arbitrary integer positions."""
        ordered = sorted(set(positions))
        starts = array("q")
        ends = array("q")
        for position in ordered:
            if ends and position == ends[-1] + 1:
                ends[-1] = position
            else:
                starts.append(position)
                ends.append(position)
        return cls(starts, ends, len(ordered))

    def __contains__(self, position: int) -> bool:
        index = bisect_right(self._starts, position) - 1
        return index >= 0 and position <= self._ends[index]

    def __len__(self) -> int:
        return self._size

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """The coalesced ``(start, end)`` runs (inclusive), for inspection."""
        return tuple(zip(self._starts, self._ends))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __hash__(self) -> int:
        return hash((bytes(self._starts), bytes(self._ends)))

    def __getstate__(self):
        return (self._starts, self._ends, self._size)

    def __setstate__(self, state) -> None:
        self._starts, self._ends, self._size = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalSet(runs={self.runs!r})"


class DescendantIndex:
    """DFS positions plus per-item interval-encoded descendant sets.

    The index is built once per dictionary (and cached there): a deterministic
    DFS over the spanning forest rooted at the parent-less items assigns every
    fid a dense position; :meth:`descendant_intervals` freezes ``desc(w)`` of
    any item into an :class:`IntervalSet` over those positions on first use.
    """

    def __init__(self, dictionary) -> None:
        self._dictionary = dictionary
        self._position_of: dict[int, int] = {}
        self._intervals: dict[int, IntervalSet] = {}
        self._assign_positions()

    def _assign_positions(self) -> None:
        dictionary = self._dictionary
        position_of = self._position_of
        # Deterministic spanning-forest DFS: roots and children in fid order;
        # an item reachable through several parents is positioned at its
        # first visit, which keeps single-parent subtrees contiguous.
        stack = sorted(dictionary.roots(), reverse=True)
        while stack:
            fid = stack.pop()
            if fid in position_of:
                continue
            position_of[fid] = len(position_of)
            stack.extend(sorted(dictionary.children(fid), reverse=True))
        # Items on parent cycles (unreachable from any root) still need
        # positions so that wildcard-free matchers stay total.
        for fid in dictionary.fids():
            if fid not in position_of:
                position_of[fid] = len(position_of)

    @property
    def positions(self) -> dict[int, int]:
        """The full fid → position mapping (read-only use)."""
        return self._position_of

    def descendant_intervals(self, fid: int) -> IntervalSet:
        """The interval-encoded descendant set ``desc(fid)`` (cached)."""
        cached = self._intervals.get(fid)
        if cached is None:
            position_of = self._position_of
            cached = IntervalSet.from_positions(
                position_of[d] for d in self._dictionary.descendants(fid)
            )
            self._intervals[fid] = cached
        return cached

    def is_descendant(self, item_fid: int, ancestor_fid: int) -> bool:
        """Interval probe for ``item_fid ∈ desc(ancestor_fid)`` (reflexive).

        Unknown items are simply not descendants (the compiled kernel treats
        out-of-vocabulary fids as matching nothing rather than raising).
        """
        position = self._position_of.get(item_fid)
        if position is None:
            return False
        return position in self.descendant_intervals(ancestor_fid)
