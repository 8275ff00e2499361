"""Output NFAs the long way round (Fig. 7): trie → NFA → minimal NFA.

The product writes D-CAND's payload bytes straight from a
:class:`~repro.nfa.nfa.TrieBuilder`'s merged edge lists
(:func:`~repro.nfa.serializer.serialize_trie`).  The functions here build
the automata that route skips — :func:`trie`, then :func:`minimize_acyclic`
over any acyclic :class:`~repro.nfa.nfa.OutputNfa` — and read an automaton's
language back (:func:`nfa_accepts`, :func:`nfa_candidates`), so the bytes
can be checked against ``serialize(minimized(builder))`` and the language
against the candidates it was built from.  :func:`mine_by_labels` counts
weighted NFAs on their labelled edges, the oracle of the reduce's table
search.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import NfaError
from repro.nfa.nfa import OutputNfa, TrieBuilder


def trie(builder: TrieBuilder) -> OutputNfa:
    """The (un-minimized) trie as an NFA."""
    return OutputNfa(builder.edge_lists(), builder.final_states)


def minimized(builder: TrieBuilder) -> OutputNfa:
    """Revuz-style minimization: merge states with identical right languages."""
    return minimize_acyclic(trie(builder))


def nfa_accepts(nfa: OutputNfa, candidate: Sequence[int]) -> bool:
    """True iff ``candidate`` is one of the encoded candidate subsequences."""
    current = {0}
    for item in candidate:
        following: set[int] = set()
        for state in current:
            for label, target in nfa.transitions[state]:
                if item in label:
                    following.add(target)
        if not following:
            return False
        current = following
    return any(nfa.is_final(state) for state in current)


def nfa_candidates(nfa: OutputNfa, limit: int = 1_000_000) -> set[tuple[int, ...]]:
    """Enumerate all encoded candidate subsequences."""
    results: set[tuple[int, ...]] = set()

    def walk(state: int, prefix: tuple[int, ...]) -> None:
        if len(results) > limit:
            raise NfaError(f"more than {limit} candidates in NFA")
        if nfa.is_final(state) and prefix:
            results.add(prefix)
        for label, target in nfa.transitions[state]:
            for item in label:
                walk(target, prefix + (item,))

    walk(0, ())
    return results


def mine_by_labels(
    nfas: Sequence[OutputNfa],
    weights: Sequence[int],
    sigma: int,
    pivot: int | None = None,
) -> dict[tuple[int, ...], int]:
    """Sec. VI-B's counting the plain way: pattern growth over the labelled
    edges of the NFAs, no pruning, and ``max(prefix) == pivot`` decides what
    is emitted.  Patterns come in the order of a pre-order walk with
    ascending items (what the product's table search must reproduce)."""
    patterns: dict[tuple[int, ...], int] = {}
    root = {index: {0} for index in range(len(nfas)) if weights[index] > 0}
    stack: list[tuple[tuple[int, ...], dict[int, set[int]], int]] = [((), root, 0)]
    while stack:
        prefix, projected, support = stack.pop()
        if support >= sigma and (pivot is None or max(prefix) == pivot):
            patterns[prefix] = support
        children: dict[int, dict[int, set[int]]] = {}
        for index, states in projected.items():
            for state in states:
                for label, target in nfas[index].outgoing(state):
                    for item in label:
                        children.setdefault(item, {}).setdefault(index, set()).add(target)
        for item in sorted(children, reverse=True):
            child = children[item]
            if sum(weights[index] for index in child) < sigma:
                continue
            support = sum(
                weights[index]
                for index, states in child.items()
                if any(nfas[index].is_final(state) for state in states)
            )
            stack.append((prefix + (item,), child, support))
    return patterns


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
