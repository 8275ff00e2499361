"""Local mining on weighted output NFAs (Sec. VI-B).

In D-CAND the expensive FST simulation happens in the map phase; the reduce
phase only has to count, for every candidate subsequence, the total weight of
the NFAs that accept it.  The counting uses pattern growth directly on the
compressed NFAs: a prefix is associated with, per NFA, the set of states
reachable by reading the prefix.

The search runs on per-state tables (``{item: targets}``, a final flag and
the largest readable item; see :meth:`~repro.nfa.nfa.OutputNfa.tables`),
which the reduce decodes straight from the payload bytes
(:func:`~repro.nfa.serializer.decode_tables`).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import MiningError, check_sigma
from repro.nfa.nfa import OutputNfa, Tables


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
        check_sigma(sigma)
        self.sigma = sigma
        self.pivot = pivot
        self.max_patterns = max_patterns

    def mine(
        self,
        nfas: Sequence[OutputNfa],
        weights: Sequence[int] | None = None,
    ) -> dict[tuple[int, ...], int]:
        """Count the frequent candidate subsequences of the weighted NFAs."""
        return self.mine_tables([nfa.tables() for nfa in nfas], weights)

    def mine_tables(
        self,
        tables: Sequence[Tables],
        weights: Sequence[int] | None = None,
    ) -> dict[tuple[int, ...], int]:
        """:meth:`mine` on NFAs given as their ``(rows, finals, tops)`` tables.

        A prefix that does not yet hold the pivot keeps, per NFA, only the
        states from which an item as large as the pivot can still be read:
        every emitted pattern holds the pivot, so the other states count
        towards nothing.  Items above the pivot are never read (no
        pattern that holds one has the pivot as its maximum).  Patterns come
        out in the order of a pre-order walk with ascending items.
        """
        if weights is None:
            weights = [1] * len(tables)
        if len(weights) != len(tables):
            raise MiningError("weights must align with NFAs")
        sigma, pivot = self.sigma, self.pivot
        rows = [table[0] for table in tables]
        finals = [table[1] for table in tables]
        tops = [table[2] for table in tables]
        holds = pivot is None
        if holds:
            pivot = float("inf")  # every item is read, and nothing is pruned
        root = {
            index: {0}
            for index, weight in enumerate(weights)
            if weight > 0 and (holds or tops[index][0] >= pivot)
        }
        patterns: dict[tuple[int, ...], int] = {}
        # Explicit stack (a candidate may be as long as the deepest NFA);
        # children are pushed in descending item order.
        stack: list[tuple[tuple[int, ...], dict[int, set[int]], int, bool]] = [
            ((), root, 0, holds)
        ]
        while stack:
            prefix, projected, support, holds = stack.pop()
            if holds and support >= sigma:
                if len(patterns) >= self.max_patterns:
                    raise MiningError(
                        f"more than {self.max_patterns} patterns produced; "
                        "lower sigma or tighten the constraint"
                    )
                patterns[prefix] = support
            children: dict[int, dict[int, set[int]]] = {}
            for index, states in projected.items():
                table = rows[index]
                top = None if holds else tops[index]
                for state in states:
                    for item, targets in table[state].items():
                        if item > pivot:
                            continue
                        if top is not None and item != pivot:
                            targets = [target for target in targets if top[target] >= pivot]
                            if not targets:
                                continue
                        child = children.get(item)
                        if child is None:
                            children[item] = {index: set(targets)}
                        else:
                            reached = child.get(index)
                            if reached is None:
                                child[index] = set(targets)
                            else:
                                reached.update(targets)
            for item in sorted(children, reverse=True):
                child = children[item]
                if sum([weights[index] for index in child]) < sigma:
                    continue
                final_weight = 0
                for index, states in child.items():
                    final = finals[index]
                    for state in states:
                        if final[state]:
                            final_weight += weights[index]
                            break
                stack.append(
                    (prefix + (item,), child, final_weight, holds or item == pivot)
                )
        return patterns
