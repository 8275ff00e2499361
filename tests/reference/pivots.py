"""Theorem 1 as written: the pivot items of one run by folding ⊕.

The product uses the closed form
:func:`~repro.core.pivot_search.pivots_of_sorted_sets` on the ε-free
ascending sets its run walk yields; :func:`pivots_of_output_sets` folds
:func:`~tests.reference.grid.pivot_merge`'s rule over any sets, ε and
empty ones included, and is what that closed form and the grid are checked
against.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.dictionary import EPSILON_FID


def pivots_of_output_sets(output_sets: Iterable[Iterable[int]]) -> set[int]:
    """Pivot items ``K(r)`` of one run, given its (filtered) output sets.

    Implements Theorem 1 by folding ⊕ over the output sets; ε is stripped from
    the final result.  Returns the empty set if any output set is empty.

    The fold filters the accumulator *in place* instead of allocating a fresh
    set per ⊕ step: the merge of two non-empty operands is never empty (it
    always contains the larger of the two maxima), so the only early exit is
    an empty output set.
    """
    accumulator: set[int] = {EPSILON_FID}
    for outputs in output_sets:
        outputs = (
            outputs
            if isinstance(outputs, (set, frozenset, tuple, list))
            else tuple(outputs)
        )
        if not outputs:
            return set()
        min_left = min(accumulator)
        min_right = min(outputs)
        if min_left < min_right:
            accumulator.difference_update(
                [item for item in accumulator if item < min_right]
            )
        for item in outputs:
            if item >= min_left:
                accumulator.add(item)
    accumulator.discard(EPSILON_FID)
    return accumulator
