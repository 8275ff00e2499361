"""GSP-style level-wise miner for gap/length(/hierarchy) constraints.

GSP (Srikant and Agrawal, EDBT '96) is the classical *candidate-generation*
approach to frequent sequence mining: level k+1 candidates are generated by
joining frequent level-k patterns and are then counted in one scan over the
database.  The paper places GSP in the "sequential, gap/length constraints"
corner of Fig. 1; this implementation supports the same constraint family as
the specialised :class:`~repro.sequential.lash.GapConstrainedMiner` (maximum
gap, maximum length, optional hierarchy generalizations) and is the
independent reference that miner and PrefixSpan are checked against.

Pattern-growth miners (PrefixSpan, DESQ-DFS, the D-SEQ local miner) expand a
projected database and never generate candidates that do not occur; GSP by
contrast may generate candidates that occur nowhere and is therefore usually
slower — but its simplicity makes it a good oracle.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product

from repro.core.results import MiningResult
from repro.dictionary import Dictionary
from repro.errors import MiningError
from repro.sequences import SequenceDatabase


class GspMiner:
    """Level-wise (generate-and-count) miner for gap/length constraints.

    Parameters mirror :class:`~repro.sequential.lash.GapConstrainedMiner`:
    ``max_gap`` is the maximum number of skipped positions between two matched
    positions (``None`` = unbounded), ``max_length``/``min_length`` bound the
    pattern length, and ``use_hierarchy`` allows matched items to generalize to
    their (frequent) ancestors.
    """

    algorithm_name = "GSP"

    def __init__(
        self,
        sigma: int,
        dictionary: Dictionary,
        max_gap: int | None,
        max_length: int,
        min_length: int = 2,
        use_hierarchy: bool = True,
    ) -> None:
        if sigma < 1:
            raise MiningError(f"sigma must be >= 1, got {sigma}")
        if max_length < min_length:
            raise MiningError("max_length must be >= min_length")
        if min_length < 1:
            raise MiningError("min_length must be >= 1")
        self.sigma = sigma
        self.dictionary = dictionary
        self.max_gap = max_gap
        self.max_length = max_length
        self.min_length = min_length
        self.use_hierarchy = use_hierarchy

    # ------------------------------------------------------------------ mining
    def mine(self, database: SequenceDatabase | Sequence[Sequence[int]]) -> MiningResult:
        """Mine all frequent patterns and return them with their frequencies."""
        sequences = [tuple(sequence) for sequence in database]
        max_frequent_fid = self.dictionary.largest_frequent_fid(self.sigma)
        producible = [
            [self._outputs_for(item, max_frequent_fid) for item in sequence]
            for sequence in sequences
        ]

        patterns: dict[tuple[int, ...], int] = {}

        # Level 1: frequent single items (counted once per input sequence).
        level_1 = self._frequent_items(producible)
        if self.min_length <= 1:
            patterns.update({(item,): support for item, support in level_1.items()})

        current_level = [(item,) for item in sorted(level_1)]
        length = 1
        while current_level and length < self.max_length:
            length += 1
            candidates = self._generate_candidates(current_level)
            next_level: list[tuple[int, ...]] = []
            for candidate in candidates:
                support = self._count_support(candidate, producible)
                if support >= self.sigma:
                    next_level.append(candidate)
                    if length >= self.min_length:
                        patterns[candidate] = support
            current_level = next_level

        return MiningResult(patterns, algorithm=self.algorithm_name)

    # ------------------------------------------------------------------- items
    def _outputs_for(self, item: int, max_frequent_fid: int) -> tuple[int, ...]:
        """The frequent output items producible from one input item."""
        if self.use_hierarchy:
            ancestors = self.dictionary.ancestors(item)
        else:
            ancestors = (item,)
        return tuple(sorted(a for a in ancestors if a <= max_frequent_fid))

    def _frequent_items(self, producible: list[list[tuple[int, ...]]]) -> dict[int, int]:
        """Support of every producible item, restricted to the frequent ones."""
        supports: dict[int, int] = {}
        for outputs_by_position in producible:
            seen: set[int] = set()
            for outputs in outputs_by_position:
                seen.update(outputs)
            for item in seen:
                supports[item] = supports.get(item, 0) + 1
        return {item: support for item, support in supports.items() if support >= self.sigma}

    # -------------------------------------------------------------- candidates
    def _generate_candidates(
        self, frequent: list[tuple[int, ...]]
    ) -> list[tuple[int, ...]]:
        """GSP join step: extend level-k patterns into level-(k+1) candidates.

        Two patterns join when the first one without its first item equals the
        second one without its last item; additionally both the prefix and the
        suffix of every candidate must be frequent (apriori pruning restricted
        to border deletions, which is the strongest pruning that is sound under
        maximum-gap constraints).
        """
        frequent_set = set(frequent)
        if all(len(pattern) == 1 for pattern in frequent):
            items = sorted(item for (item,) in frequent)
            return [(a, b) for a, b in product(items, repeat=2)]
        by_prefix: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for pattern in frequent:
            by_prefix.setdefault(pattern[:-1], []).append(pattern)
        candidates: list[tuple[int, ...]] = []
        for pattern in frequent:
            for extension in by_prefix.get(pattern[1:], ()):
                candidate = pattern + extension[-1:]
                if candidate[:-1] in frequent_set and candidate[1:] in frequent_set:
                    candidates.append(candidate)
        return candidates

    # ----------------------------------------------------------------- support
    def _count_support(
        self, candidate: tuple[int, ...], producible: list[list[tuple[int, ...]]]
    ) -> int:
        """Number of input sequences containing ``candidate``."""
        return sum(
            1
            for outputs_by_position in producible
            if self._contains(outputs_by_position, candidate)
        )

    def _contains(
        self, outputs_by_position: list[tuple[int, ...]], candidate: tuple[int, ...]
    ) -> bool:
        """Gap-constrained containment check with backtracking.

        A greedy earliest-match scan is not sound under maximum-gap
        constraints (matching an item too early can make the next gap too
        large), so all admissible positions are explored.
        """
        length = len(outputs_by_position)

        def match(index: int, last: int) -> bool:
            if index == len(candidate):
                return True
            if last < 0:
                window = range(0, length)
            elif self.max_gap is None:
                window = range(last + 1, length)
            else:
                window = range(last + 1, min(length, last + 2 + self.max_gap))
            needed = candidate[index]
            for position in window:
                if needed in outputs_by_position[position] and match(index + 1, position):
                    return True
            return False

        return match(0, -1)
