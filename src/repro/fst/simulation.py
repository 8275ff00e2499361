"""FST simulation: accepting runs and candidate generation (Sec. IV).

The functions in this module implement the (non-distributed) semantics of
the DESQ computational model:

* :func:`accepting_runs` -- enumerate accepting runs (Fig. 5a);
* :func:`accepting_output_sets` -- the non-ε output sets of every accepting
  run, in one pass;
* :func:`generate_candidates` -- the candidate set ``G_π(T)`` (or ``G^σ_π(T)``).

The run-by-run output sets and the membership test ``S ∈ G_π(T)`` they are
checked against live with the other reference implementations in
``tests/reference/``.

All entry points accept either a raw :class:`~repro.fst.fst.Fst` (plus a
dictionary, as before) or a ready-made
:class:`~repro.fst.compiled.MiningKernel`; raw FSTs are compiled on first
use, so every kernel shares one implementation of the simulation semantics.

Run enumeration and candidate expansion can be exponential for loose
constraints; both carry explicit caps that raise
:class:`~repro.errors.CandidateExplosionError` when exceeded.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence

from repro.dictionary import EPSILON_FID, Dictionary
from repro.errors import CandidateExplosionError
from repro.fst.compiled import MiningKernel, ensure_kernel
from repro.fst.fst import Fst, Transition

#: Default safety cap for enumerated accepting runs per input sequence.
DEFAULT_MAX_RUNS = 100_000
#: Default safety cap for generated candidate subsequences per input sequence.
DEFAULT_MAX_CANDIDATES = 1_000_000


def _walk_runs(kernel: MiningKernel, sequence, alive, max_runs: int, rows_of):
    """Iterative depth-first enumeration shared by the two run iterators.

    Yields the *live* per-position path once per accepting run.
    ``rows_of(item)`` is read once per position and holds, per source state,
    the ``(target, entry)`` pair of every transition matching ``item`` — the
    shape of :meth:`~repro.fst.compiled.MiningKernel.edge_rows`; a step
    leaves its ``entry`` on the path.  An explicit stack of row iterators
    replaces recursion, so sequence length is not bounded by the
    interpreter's recursion limit.
    """
    n = len(sequence)
    if alive is None:
        alive = kernel.reachability_table(sequence)
    if n == 0 or not (alive[0] >> kernel.initial_state) & 1:
        return
    rows = [rows_of(item) for item in sequence]
    produced = 0
    path: list = []
    frames = [iter(rows[0][kernel.initial_state])]
    while frames:
        position = len(path) + 1
        next_alive = alive[position]
        for target, entry in frames[-1]:
            if not (next_alive >> target) & 1:
                continue
            path.append(entry)
            if position < n:
                frames.append(iter(rows[position][target]))
                break
            # ``alive[n]`` holds exactly the final states: the run accepts.
            produced += 1
            if produced > max_runs:
                raise CandidateExplosionError("accepting runs", max_runs)
            yield path
            path.pop()
        else:
            frames.pop()
            if frames:
                path.pop()


def accepting_runs(
    fst: Fst | MiningKernel,
    sequence: Sequence[int],
    dictionary: Dictionary | None = None,
    max_runs: int = DEFAULT_MAX_RUNS,
    alive: list[int] | None = None,
) -> Iterator[tuple[Transition, ...]]:
    """Enumerate the accepting runs ``R(T)`` for an input sequence.

    Runs are yielded as tuples of transitions, one per input position.  The
    enumeration is guided by the reachability table so that no dead branches
    are explored.  Raises :class:`CandidateExplosionError` if more than
    ``max_runs`` runs are produced.
    """
    kernel = ensure_kernel(fst, dictionary)
    if len(sequence) == 0:
        if kernel.is_final(kernel.initial_state):
            yield ()
        return
    transitions = kernel.transitions

    def transition_rows(item: int) -> list:
        # ``edge_rows`` with the transition itself as the entry, in the same order.
        return [
            [(transitions[tid].target, transitions[tid]) for tid in kernel.matching(state, item)]
            for state in range(kernel.num_states)
        ]

    for path in _walk_runs(kernel, sequence, alive, max_runs, transition_rows):
        yield tuple(path)


def accepting_output_sets(
    kernel: MiningKernel,
    sequence: Sequence[int],
    max_frequent_fid: int | None = None,
    max_runs: int = DEFAULT_MAX_RUNS,
) -> Iterator[list[tuple[int, ...]]]:
    """The non-ε output sets of every accepting run that can carry a candidate.

    One pass instead of :func:`accepting_runs` plus a label lookup per run
    step: the walk follows the kernel's per-item edge rows and carries their
    output sets, uncaptured (ε) steps are dropped once per run, and the frequency
    filter is applied at use, as a prefix of the ascending set.  Every
    yielded set is a non-empty ascending tuple of fids.  Runs with a captured
    set that lost all its items to the frequency filter carry no frequent
    candidate: they count against ``max_runs`` but are not yielded.
    """
    limit = float("inf") if max_frequent_fid is None else max_frequent_fid
    for path in _walk_runs(kernel, sequence, None, max_runs, kernel.edge_rows):
        output_sets = []
        for outputs in path:
            if outputs is None:
                continue
            if outputs[-1] > limit:
                outputs = outputs[: bisect_right(outputs, limit)]
                if not outputs:
                    break
            output_sets.append(outputs)
        else:
            yield output_sets


def expand_output_sets(
    output_sets: Sequence[tuple[int, ...]],
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> set[tuple[int, ...]]:
    """Cartesian-product expansion of output sets into candidate subsequences.

    ε outputs contribute nothing to a candidate; an empty output set (possible
    after frequency filtering) yields no candidates at all.
    """
    candidates: set[tuple[int, ...]] = {()}
    for outputs in output_sets:
        if not outputs:
            return set()
        if outputs == (EPSILON_FID,):
            continue
        expanded: set[tuple[int, ...]] = set()
        for prefix in candidates:
            for fid in outputs:
                if fid == EPSILON_FID:
                    expanded.add(prefix)
                else:
                    expanded.add(prefix + (fid,))
                if len(expanded) > max_candidates:
                    raise CandidateExplosionError("candidate subsequences", max_candidates)
        candidates = expanded
    return candidates


def generate_candidates(
    fst: Fst | MiningKernel,
    sequence: Sequence[int],
    dictionary: Dictionary | None = None,
    sigma: int | None = None,
    max_runs: int = DEFAULT_MAX_RUNS,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> set[tuple[int, ...]]:
    """Compute ``G_π(T)`` (or ``G^σ_π(T)`` when ``sigma`` is given).

    The empty subsequence is never reported as a candidate (it cannot be a
    pattern).  Raises :class:`CandidateExplosionError` if enumeration exceeds
    the configured caps.
    """
    kernel = ensure_kernel(fst, dictionary)
    max_frequent_fid = (
        kernel.dictionary.largest_frequent_fid(sigma) if sigma is not None else None
    )
    candidates: set[tuple[int, ...]] = set()
    for output_sets in accepting_output_sets(
        kernel, sequence, max_frequent_fid, max_runs
    ):
        for candidate in expand_output_sets(output_sets, max_candidates=max_candidates):
            if candidate:
                candidates.add(candidate)
        if len(candidates) > max_candidates:
            raise CandidateExplosionError("candidate subsequences", max_candidates)
    return candidates

