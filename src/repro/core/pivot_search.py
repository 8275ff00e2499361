"""Pivot search over enumerated runs (Sec. V-A, Theorem 1).

Determining the set of partitions ``K(T)`` for which an input sequence ``T``
is relevant is the key map-side computation of item-based partitioning.  The
paper merges the output sets of one accepting run with the commutative,
associative ⊕ operator (Theorem 1); over the ε-free ascending sets the run
walk yields, the fold has the closed form :func:`pivots_of_sorted_sets`.
:func:`pivots_by_run_enumeration` unions it over every accepting run, which is
D-SEQ's "no grid" ablation.  The position–state grid that shares work across
the runs is the kernel's
:meth:`~repro.fst.compiled.MiningKernel.pivot_table` pass; the set-based ⊕
and the literal grid it is checked against live in ``tests/reference/``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

from repro.dictionary import Dictionary
from repro.fst import Fst, MiningKernel, accepting_output_sets, ensure_kernel


def pivots_of_sorted_sets(output_sets: Sequence[tuple[int, ...]]) -> list[int]:
    """``K(r)`` in closed form, ascending, for ε-free ascending output sets.

    Folding ⊕ (Theorem 1) over non-empty sets of items collapses to: every
    candidate of the run contains one item of each set, so its maximum is at
    least ``m = max(min(O_i))``; and every item ``ω ≥ m`` of any set is the
    maximum of the candidate that takes ``ω`` there and each other set's
    minimum.  The pivots are therefore exactly the items ``≥ m``.  This is
    the shape :func:`~repro.fst.accepting_output_sets` yields.  The tests
    check it against the ⊕ fold itself, which also takes ε and empty sets.
    """
    if not output_sets:
        return []
    floor = max(outputs[0] for outputs in output_sets)
    pivots = {floor}
    for outputs in output_sets:
        if outputs[-1] > floor:
            pivots.update(outputs[bisect_left(outputs, floor) :])
    return sorted(pivots)


def pivots_by_run_enumeration(
    fst: Fst | MiningKernel,
    sequence: Sequence[int],
    dictionary: Dictionary | None = None,
    max_frequent_fid: int | None = None,
    max_runs: int = 100_000,
) -> set[int]:
    """Pivot search without the grid: enumerate runs and merge their pivots.

    Used by the D-SEQ "no grid" ablation and by D-CAND (which needs the runs
    anyway to build its NFAs).  Raises
    :class:`~repro.errors.CandidateExplosionError` when ``max_runs`` is hit.
    """
    kernel = ensure_kernel(fst, dictionary)
    pivots: set[int] = set()
    for output_sets in accepting_output_sets(
        kernel, sequence, max_frequent_fid, max_runs
    ):
        pivots.update(pivots_of_sorted_sets(output_sets))
    return pivots
