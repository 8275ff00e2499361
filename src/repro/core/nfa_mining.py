"""Local mining on weighted output NFAs (Sec. VI-B).

In D-CAND the expensive FST simulation happens in the map phase; the reduce
phase only has to count, for every candidate subsequence, the total weight of
the NFAs that accept it.  The counting uses pattern growth directly on the
compressed NFAs: a prefix is associated with, per NFA, the set of states
reachable by reading the prefix.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import MiningError
from repro.nfa import OutputNfa


class NfaLocalMiner:
    """Counts frequent candidate subsequences encoded in weighted NFAs.

    Parameters
    ----------
    sigma:
        Minimum support.
    pivot:
        When given, only patterns whose maximum item equals ``pivot`` are
        emitted.  (Per-pivot NFAs may encode candidates with a smaller pivot
        because items larger than the pivot were dropped from run output sets;
        those candidates are counted by their own partition instead.)
    """

    def __init__(
        self, sigma: int, pivot: int | None = None, max_patterns: int = 10_000_000
    ) -> None:
        if sigma < 1:
            raise MiningError(f"sigma must be >= 1, got {sigma}")
        self.sigma = sigma
        self.pivot = pivot
        self.max_patterns = max_patterns

    def mine(
        self,
        nfas: Sequence[OutputNfa],
        weights: Sequence[int] | None = None,
    ) -> dict[tuple[int, ...], int]:
        """Count the frequent candidate subsequences of the weighted NFAs."""
        if weights is None:
            weights = [1] * len(nfas)
        if len(weights) != len(nfas):
            raise MiningError("weights must align with NFAs")
        sigma = self.sigma
        patterns: dict[tuple[int, ...], int] = {}
        root = {index: {0} for index in range(len(nfas)) if weights[index] > 0}
        # Explicit stack (a candidate may be as long as the deepest NFA);
        # children are pushed in descending item order, so ``patterns`` fills
        # in the order of a pre-order walk with ascending items.
        stack: list[tuple[tuple[int, ...], dict[int, set[int]], int]] = [((), root, 0)]
        while stack:
            prefix, projected, support = stack.pop()
            if support >= sigma and self._should_output(prefix):
                if len(patterns) >= self.max_patterns:
                    raise MiningError(
                        f"more than {self.max_patterns} patterns produced; "
                        "lower sigma or tighten the constraint"
                    )
                patterns[prefix] = support
            children: dict[int, dict[int, set[int]]] = {}
            for nfa_index, states in projected.items():
                outgoing = nfas[nfa_index].outgoing
                for state in states:
                    for label, target in outgoing(state):
                        for item in label:
                            children.setdefault(item, {}).setdefault(nfa_index, set()).add(
                                target
                            )
            for item in sorted(children, reverse=True):
                child = children[item]
                if sum(weights[nfa_index] for nfa_index in child) < sigma:
                    continue
                support = sum(
                    weights[nfa_index]
                    for nfa_index, states in child.items()
                    if any(nfas[nfa_index].is_final(state) for state in states)
                )
                stack.append((prefix + (item,), child, support))
        return patterns

    def _should_output(self, prefix: tuple[int, ...]) -> bool:
        if self.pivot is None:
            return True
        return max(prefix) == self.pivot
