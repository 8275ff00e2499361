"""Input sequence rewriting for sequence representation (Sec. V-B).

Before an input sequence is sent to the partition of a pivot item, leading and
trailing positions that are irrelevant for that pivot are dropped.  A position
is relevant when a live edge at that position changes the FST state or can
produce an output item that may participate in a pivot sequence for the
pivot.  The check is deliberately conservative (over-approximating relevance
only reduces trimming).

The forward pass :meth:`~repro.fst.compiled.MiningKernel.pivot_table` sums a
position up as one *relevance threshold* — the smallest pivot for which it is
relevant — so :func:`relevant_range` and :func:`rewrite` answer any pivot with
two early-exiting scans.  D-SEQ's map and
:meth:`~repro.core.grid_engine.FlatPivotGrid.relevant_range` both read them;
:func:`rewrite_for_pivot` asks a grid object instead (the end-to-end replay
and the reference grid's job call it).
"""

from __future__ import annotations

from collections.abc import Sequence


def relevant_range(relevance: Sequence[int], pivot: int) -> tuple[int, int]:
    """First and last relevant 1-based positions for ``pivot``.

    ``relevance`` holds one threshold per position (index 0 unused); a
    position is relevant iff its threshold is ``<= pivot``.  Without a
    relevant position, the whole sequence is the range.
    """
    n = len(relevance) - 1
    for first in range(1, n + 1):
        if relevance[first] <= pivot:
            break
    else:
        return 1, n
    for last in range(n, first - 1, -1):
        if relevance[last] <= pivot:
            return first, last
    return first, first  # pragma: no cover - first always qualifies


def rewrite(
    sequence: tuple[int, ...], relevance: Sequence[int], pivot: int
) -> tuple[int, ...]:
    """The representation ρ_pivot(T) from ``sequence``'s relevance thresholds.

    The contiguous slice between the first and the last relevant position
    for ``pivot``: it always contains every position that can contribute to
    a pivot sequence for ``pivot``.
    """
    return _trimmed(sequence, *relevant_range(relevance, pivot))


def rewrite_for_pivot(grid, pivot: int) -> tuple[int, ...]:
    """ρ_pivot(T) read off a grid object: anything with ``sequence`` and
    ``relevant_range(pivot)``."""
    return _trimmed(grid.sequence, *grid.relevant_range(pivot))


def _trimmed(sequence: tuple[int, ...], first: int, last: int) -> tuple[int, ...]:
    if first <= 1 and last >= len(sequence):
        return sequence
    return sequence[first - 1 : last]
