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
    """Builds a trie of runs (Fig. 7b) and the edges of its minimal NFA (Fig. 7c).

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

