"""Output NFAs: compressed sets of candidate subsequences (Sec. VI-A).

D-CAND sends, for every input sequence and every pivot item, the set of
candidate subsequences with that pivot.  The set is encoded as a
nondeterministic finite automaton whose edges are labelled with *output sets*
(sets of items): the NFA accepts exactly the candidate subsequences.

The construction mirrors the paper: accepting runs are inserted into a trie
(one edge per non-ε output set) and the trie is then minimized with a
Revuz-style bottom-up merge of states with identical right languages.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence

from repro.errors import NfaError


class OutputNfa:
    """An acyclic NFA over output-set labels.

    * state ``0`` is the initial state;
    * ``transitions[s]`` is a list of ``(label, target)`` pairs where ``label``
      is a sorted tuple of fids;
    * a path from the initial state to a final state spells the candidate
      subsequences obtained by picking one item from each edge label.
    """

    def __init__(
        self,
        transitions: Sequence[Sequence[tuple[tuple[int, ...], int]]],
        final_states: Iterable[int],
    ) -> None:
        self.transitions: list[list[tuple[tuple[int, ...], int]]] = [
            sorted(((tuple(label), target) for label, target in edges))
            for edges in transitions
        ]
        self.final_states = frozenset(final_states)
        for edges in self.transitions:
            for label, target in edges:
                if not label:
                    raise NfaError("empty edge label")
                if not 0 <= target < len(self.transitions):
                    raise NfaError(f"edge target {target} out of range")
        for state in self.final_states:
            if not 0 <= state < len(self.transitions):
                raise NfaError(f"final state {state} out of range")

    # ----------------------------------------------------------------- basics
    @property
    def num_states(self) -> int:
        return len(self.transitions)

    @property
    def num_transitions(self) -> int:
        return sum(len(edges) for edges in self.transitions)

    def is_final(self, state: int) -> bool:
        return state in self.final_states

    def outgoing(self, state: int) -> list[tuple[tuple[int, ...], int]]:
        return self.transitions[state]

    # ------------------------------------------------------------- semantics
    def accepts(self, candidate: Sequence[int]) -> bool:
        """True iff ``candidate`` is one of the encoded candidate subsequences."""
        current = {0}
        for item in candidate:
            following: set[int] = set()
            for state in current:
                for label, target in self.transitions[state]:
                    if item in label:
                        following.add(target)
            if not following:
                return False
            current = following
        return any(self.is_final(state) for state in current)

    def candidates(self, limit: int = 1_000_000) -> set[tuple[int, ...]]:
        """Enumerate all encoded candidate subsequences (for tests/debugging)."""
        results: set[tuple[int, ...]] = set()

        def walk(state: int, prefix: tuple[int, ...]) -> None:
            if len(results) > limit:
                raise NfaError(f"more than {limit} candidates in NFA")
            if self.is_final(state) and prefix:
                results.add(prefix)
            for label, target in self.transitions[state]:
                for item in label:
                    walk(target, prefix + (item,))

        walk(0, ())
        return results

    def items(self) -> set[int]:
        """All items appearing on any edge label."""
        found: set[int] = set()
        for edges in self.transitions:
            for label, _target in edges:
                found.update(label)
        return found

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutputNfa):
            return NotImplemented
        return (
            self.transitions == other.transitions
            and self.final_states == other.final_states
        )

    def __hash__(self) -> int:
        return hash(
            (
                tuple(tuple(edges) for edges in self.transitions),
                self.final_states,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OutputNfa(states={self.num_states}, transitions={self.num_transitions}, "
            f"finals={sorted(self.final_states)})"
        )


class TrieBuilder:
    """Builds a trie of runs (Fig. 7b) and minimizes it into an NFA (Fig. 7c).

    States are numbered in creation order, so a child always has a larger
    index than its parent: walking the states backwards visits every subtree
    before its root, which is all the bottom-up merge needs.
    """

    def __init__(self) -> None:
        self._children: list[dict[tuple[int, ...], int]] = [{}]
        self._final: set[int] = set()

    @property
    def num_states(self) -> int:
        return len(self._children)

    @property
    def final_states(self) -> set[int]:
        return self._final

    def add_run(self, output_sets: Iterable[tuple[int, ...]], limit: int | None = None) -> None:
        """Insert one accepting run, given as its non-ε output sets.

        ε output sets must already have been removed by the caller; each
        remaining output set becomes one trie edge.  Labels are taken as
        given: ascending tuples of fids (what the FST kernels produce).  With
        ``limit`` every label is cut to its items ``<= limit`` (a prefix, as
        the labels ascend) — D-CAND's per-pivot restriction.
        """
        children = self._children
        state = 0
        for label in output_sets:
            if limit is not None and label and label[-1] > limit:
                label = label[: bisect_right(label, limit)]
            if not label:
                raise NfaError("cannot insert an empty output set into a trie")
            nxt = children[state].get(label)
            if nxt is None:
                nxt = len(children)
                children.append({})
                children[state][label] = nxt
            state = nxt
        if state:
            self._final.add(state)

    def edge_lists(self, minimize: bool = False) -> list[list | None]:
        """Label-sorted ``(label, target)`` edges per state, optionally merged.

        With ``minimize``, states with identical right languages are merged
        Revuz-style in one backwards sweep: targets are replaced by their
        class representative and merged-away states get ``None``.  The root
        keeps index 0 (no proper subtree spells the whole language).
        """
        if not minimize:
            return [sorted(edges.items()) for edges in self._children]
        children, final = self._children, self._final
        count = len(children)
        canonical = list(range(count))
        edges: list[list | None] = [None] * count
        registry: dict[tuple, int] = {}
        for state in range(count - 1, -1, -1):
            outgoing = [(label, canonical[target]) for label, target in children[state].items()]
            if len(outgoing) > 1:
                outgoing.sort()
            representative = registry.setdefault(
                (state in final, tuple(outgoing)), state
            )
            if representative == state:
                edges[state] = outgoing
            else:
                canonical[state] = representative
        return edges

    def trie(self) -> OutputNfa:
        """The (un-minimized) trie as an NFA."""
        return OutputNfa(self.edge_lists(), self._final)

    def minimized(self) -> OutputNfa:
        """Revuz-style minimization: merge states with identical right languages."""
        return minimize_acyclic(self.trie())


def minimize_acyclic(nfa: OutputNfa) -> OutputNfa:
    """Minimize an acyclic output NFA by bottom-up signature merging.

    Two states are merged when they agree on finality and have identical
    outgoing edges (after their targets have been canonicalized).  For tries
    this computes the minimal deterministic automaton of the encoded language
    in linear time; for general acyclic NFAs it is a sound (possibly
    non-minimal) reduction.
    """
    order = _topological_order(nfa)
    canonical: dict[int, int] = {}
    registry: dict[tuple, int] = {}
    for state in reversed(order):
        signature = (
            nfa.is_final(state),
            tuple(
                sorted((label, canonical[target]) for label, target in nfa.outgoing(state))
            ),
        )
        canonical[state] = registry.setdefault(signature, state)

    # Kept states in topological order.  The initial state comes first in
    # that order and is its own representative (equal signatures imply equal
    # longest-path heights, and every other state is strictly lower), so it
    # keeps index 0.
    kept = [state for state in order if canonical[state] == state]
    renumber = {state: index for index, state in enumerate(kept)}
    transitions = [
        [(label, renumber[canonical[target]]) for label, target in nfa.outgoing(state)]
        for state in kept
    ]
    finals = {renumber[state] for state in kept if nfa.is_final(state)}
    return OutputNfa(transitions, finals)


def _topological_order(nfa: OutputNfa) -> list[int]:
    """States of an acyclic NFA in topological order starting from state 0."""
    postorder: list[int] = []
    seen: set[int] = set()
    in_progress = {0}
    stack = [(0, iter(nfa.outgoing(0)))]
    while stack:
        state, pending = stack[-1]
        for _label, target in pending:
            if target in in_progress:
                raise NfaError("output NFA contains a cycle")
            if target not in seen:
                in_progress.add(target)
                stack.append((target, iter(nfa.outgoing(target))))
                break
        else:
            stack.pop()
            in_progress.discard(state)
            seen.add(state)
            postorder.append(state)
    postorder.reverse()
    return postorder
