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


#: ``(rows, finals, tops)``: see :meth:`OutputNfa.tables`.
Tables = tuple[list[dict[int, set[int]]], list[bool], list[int]]


def readable_tops(rows: list[dict[int, set[int]]]) -> list[int]:
    """Per state, the largest item on any edge that can be read from it on.

    State numbers of a decoded automaton are DFS first-visit order, not a
    topological order: a state that minimization shares is numbered when it
    is first reached and can be smaller than a later source that also points
    to it.  So this walks from state 0 depth-first and settles each state
    after its successors.  A cycle (which no map writes, but bytes can
    spell) is refused: the language it spells is infinite.  States that
    state 0 does not reach keep their own labels' largest item.
    """
    tops = [max(row, default=0) for row in rows]
    seen = bytearray(len(rows))  # 1: on the walk's stack, 2: settled
    if not rows:
        return tops
    union = set().union
    seen[0] = 1
    stack = [(0, iter(union(*rows[0].values())))]
    while stack:
        state, pending = stack[-1]
        for target in pending:
            mark = seen[target]
            if not mark:
                seen[target] = 1
                stack.append((target, iter(union(*rows[target].values()))))
                break
            if mark == 1:
                raise NfaError("output NFA contains a cycle")
            if tops[target] > tops[state]:
                tops[state] = tops[target]
        else:
            stack.pop()
            seen[state] = 2
            if stack:
                parent = stack[-1][0]
                if tops[state] > tops[parent]:
                    tops[parent] = tops[state]
    return tops


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

    def tables(self) -> Tables:
        """The automaton as D-CAND's reduce counts on it: ``(rows, finals, tops)``.

        ``rows[state]`` maps every item of the state's edge labels to the set
        of targets of those edges; ``finals[state]`` says whether the state
        is final; ``tops[state]`` is the largest item readable from the state
        on (0 if none).  :func:`~repro.nfa.serializer.decode_tables` reads
        the same tables straight from the bytes.
        """
        rows = []
        for edges in self.transitions:
            row: dict[int, set[int]] = {}
            for label, target in edges:
                for item in label:
                    targets = row.get(item)
                    if targets is None:
                        row[item] = {target}
                    else:
                        targets.add(target)
            rows.append(row)
        finals = self.final_states
        return rows, [state in finals for state in range(len(rows))], readable_tops(rows)

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
    """Tries of runs (Fig. 7b) and the edges of their minimal NFAs (Fig. 7c).

    One builder holds a forest over one state table: the trie rooted at
    state 0, which :meth:`add_run` fills when it is given no pivots, and one
    trie per pivot, rooted at ``roots[pivot]`` — D-CAND's map keeps one
    builder per record and inserts each distinct run into all of its pivots'
    tries with one call.  States are numbered in creation order, so a child
    always has a larger index than its parent: walking the states backwards
    visits every subtree before its root, which is all the bottom-up merge
    needs, and one sweep minimizes every trie of the forest.
    """

    def __init__(self) -> None:
        self._children: list[dict[tuple[int, ...], int]] = [{}]
        self._final: set[int] = set()
        #: pivot -> root state of that pivot's trie, in first-insertion order.
        self.roots: dict[int, int] = {}

    @property
    def num_states(self) -> int:
        return len(self._children)

    @property
    def final_states(self) -> set[int]:
        return self._final

    def add_run(
        self, output_sets: Sequence[tuple[int, ...]], pivots: Iterable[int] | None = None
    ) -> None:
        """Insert one accepting run, given as its non-ε output sets.

        ε output sets must already have been removed by the caller; each
        remaining output set becomes one trie edge.  Labels are ascending
        tuples of fids (what the FST kernels produce).  Without ``pivots`` the
        run goes into the trie at state 0, labels as given.  With ``pivots``
        it goes into every pivot's trie, each label cut to its items
        ``<= pivot`` (a prefix, as the labels ascend) — D-CAND's per-pivot
        restriction (Sec. VI-A) — and only a label whose last item is larger
        than the pivot is cut.
        """
        children, final = self._children, self._final
        if not all(output_sets):
            raise NfaError("cannot insert an empty output set into a trie")
        if pivots is None:
            state = 0
            for label in output_sets:
                edges = children[state]
                state = edges.get(label)
                if state is None:
                    state = edges[label] = len(children)
                    children.append({})
            if state:
                final.add(state)
            return
        if not output_sets:
            return
        roots = self.roots
        for pivot in pivots:
            state = roots.get(pivot)
            if state is None:
                state = roots[pivot] = len(children)
                children.append({})
            for label in output_sets:
                if label[-1] > pivot:
                    label = label[: bisect_right(label, pivot)]
                    if not label:
                        raise NfaError(f"pivot {pivot} cuts an output set to nothing")
                edges = children[state]
                state = edges.get(label)
                if state is None:
                    state = edges[label] = len(children)
                    children.append({})
            final.add(state)

    def edge_lists(self, minimize: bool = False) -> list[list | None]:
        """Label-sorted ``(label, target)`` edges per state, optionally merged.

        With ``minimize``, states with identical right languages are merged
        Revuz-style in one backwards sweep over the whole forest: targets are
        replaced by their class representative and merged-away states get
        ``None``.  State 0 keeps its index (no proper subtree spells the whole
        language); a pivot's root may be merged into a state of another trie
        with the same language — :meth:`pivot_edge_lists` names the state
        each pivot's automaton starts at.
        """
        if not minimize:
            return [sorted(edges.items()) for edges in self._children]
        edges, _canonical = self._merged()
        return edges

    def _merged(self) -> tuple[list[list | None], list[int]]:
        """The minimized edge lists and every state's class representative."""
        children, final = self._children, self._final
        count = len(children)
        canonical = list(range(count))
        edges: list[list | None] = [None] * count
        registry: dict[tuple, int] = {}
        leaf = -1  # every final leaf (most states) has the same empty language
        for state in range(count - 1, -1, -1):
            outgoing = children[state]
            is_final = state in final
            if len(outgoing) == 1:  # a chain link: a flat signature, no sort
                ((label, target),) = outgoing.items()
                target = canonical[target]
                representative = registry.setdefault((is_final, label, target), state)
                if representative == state:
                    edges[state] = [(label, target)]
                else:
                    canonical[state] = representative
            elif outgoing:
                outgoing = sorted(
                    [(label, canonical[target]) for label, target in outgoing.items()]
                )
                representative = registry.setdefault((is_final, tuple(outgoing)), state)
                if representative == state:
                    edges[state] = outgoing
                else:
                    canonical[state] = representative
            elif is_final and leaf >= 0:
                canonical[state] = leaf
            else:  # the first final leaf, or a root no run reached
                edges[state] = []
                if is_final:
                    leaf = state
        return edges, canonical

    def pivot_edge_lists(self, minimize: bool = True) -> tuple[list[list | None], dict[int, int]]:
        """The forest's edge lists and, per pivot in ascending order, the
        state its automaton starts at: the serializer's input, computed once
        for every pivot of the builder."""
        if not minimize:
            return self.edge_lists(), dict(sorted(self.roots.items()))
        edges, canonical = self._merged()
        return edges, {pivot: canonical[root] for pivot, root in sorted(self.roots.items())}
