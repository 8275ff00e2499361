"""Input sequence rewriting for sequence representation (Sec. V-B).

Before an input sequence is sent to the partition of a pivot item, leading and
trailing positions that are irrelevant for that pivot are dropped.  Relevance
is decided on the position–state grid: a position is relevant when a live edge
at that position changes the FST state or can produce an output item that may
participate in a pivot sequence for the pivot.  The check is deliberately
conservative (over-approximating relevance only reduces trimming).
"""

from __future__ import annotations

from repro.core.pivot_search import PositionStateGrid


def rewrite_for_pivot(grid: PositionStateGrid, pivot: int) -> tuple[int, ...]:
    """The representation ρ_pivot(T): ``T`` with irrelevant borders removed.

    Returns the contiguous slice of the grid's sequence between the first and
    the last relevant position for ``pivot``; the slice always contains every
    position that can contribute to a pivot sequence for ``pivot``.
    """
    sequence = grid.sequence
    if not sequence:
        return sequence
    first, last = grid.relevant_range(pivot)
    if first <= 1 and last >= len(sequence):
        return sequence
    return sequence[first - 1 : last]

