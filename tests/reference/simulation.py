"""Run-by-run FST semantics (Sec. IV) the product's one-pass walks are checked against.

* :func:`run_output_sets` -- the output sets one accepting run produces, from
  the FST's labels or a kernel's memoized index; the product's
  :func:`~repro.fst.simulation.accepting_output_sets` fuses it with the run
  walk;
* :func:`generates` -- ``S ∈ G_π(T)`` decided without materializing
  ``G_π(T)``, the membership side of
  :func:`~repro.fst.simulation.generate_candidates`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.dictionary import EPSILON_FID, Dictionary
from repro.fst.compiled import MiningKernel, ensure_kernel
from repro.fst.fst import Fst, Transition
from tests.reference.kernel import filtered_outputs


def run_output_sets(
    run: Sequence[Transition],
    sequence: Sequence[int],
    dictionary: Dictionary | MiningKernel,
    max_frequent_fid: int | None = None,
) -> list[tuple[int, ...]]:
    """The output sets produced by ``run`` on ``sequence``.

    Each element is a sorted tuple of fids; ``(0,)`` denotes an ε output.
    If ``max_frequent_fid`` is given, items with a larger fid (i.e. infrequent
    items, because fids are frequency ordered) are removed; a captured set may
    then become empty, which callers treat as "no frequent candidate passes
    through this run".  Passing a kernel instead of a dictionary reads the
    kernel's memoized (filtered) output index.
    """
    if isinstance(dictionary, MiningKernel):
        kernel = dictionary
        return [
            filtered_outputs(kernel, transition.tid, item, max_frequent_fid)
            for transition, item in zip(run, sequence)
        ]
    sets: list[tuple[int, ...]] = []
    for transition, item in zip(run, sequence):
        outputs = transition.label.outputs(item, dictionary)
        if max_frequent_fid is not None and outputs != (EPSILON_FID,):
            outputs = tuple(fid for fid in outputs if fid <= max_frequent_fid)
        sets.append(outputs)
    return sets


def generates(
    fst: Fst | MiningKernel,
    candidate: Sequence[int],
    sequence: Sequence[int],
    dictionary: Dictionary | None = None,
) -> bool:
    """True iff ``candidate`` is π-generated by ``sequence`` (``S ∈ G_π(T)``).

    Decided by a joint dynamic program over (input position, FST state,
    candidate position) without materializing ``G_π(T)``.
    """
    kernel = ensure_kernel(fst, dictionary)
    candidate = tuple(candidate)
    n = len(sequence)
    m = len(candidate)
    # states of the DP: frozenset of (fst state, matched prefix length)
    current: set[tuple[int, int]] = {(kernel.initial_state, 0)}
    for position in range(n):
        item = sequence[position]
        following: set[tuple[int, int]] = set()
        for state, matched in current:
            for tid in kernel.matching(state, item):
                target = kernel.target(tid)
                for output in kernel.outputs(tid, item):
                    if output == EPSILON_FID:
                        following.add((target, matched))
                    elif matched < m and candidate[matched] == output:
                        following.add((target, matched + 1))
        current = following
        if not current:
            return False
    return any(kernel.is_final(state) and matched == m for state, matched in current)
