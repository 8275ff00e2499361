"""The f-list's document frequencies with one hierarchy walk per occurrence.

:class:`OccurrenceBuilder` is the preprocessing step of the paper written
the simple way: every item *occurrence* of a sequence walks the hierarchy for
its ancestors afresh, and the sequence adds one to each distinct item met
(Fig. 2c: ``f(A, Dex) = 4`` because four sequences contain a descendant of
``A``).  It keeps no closure between calls, so it is the oracle for
:class:`~repro.dictionary.builder.DictionaryBuilder`, which walks each
distinct item once and reuses the closure until an edge is added.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from repro.dictionary import Dictionary, Hierarchy


class OccurrenceBuilder:
    """:class:`~repro.dictionary.builder.DictionaryBuilder`'s interface and
    semantics, with no cache."""

    def __init__(self, hierarchy: Hierarchy | None = None) -> None:
        self._hierarchy = hierarchy.copy() if hierarchy is not None else Hierarchy()
        self._document_frequency: Counter[str] = Counter()
        self.sequence_count = 0

    def add_item(self, gid: str) -> None:
        self._hierarchy.add_item(gid)

    def add_generalization(self, child: str, parent: str) -> None:
        self._hierarchy.add_edge(child, parent)

    def add_sequence(self, gids: Sequence[str]) -> None:
        self.sequence_count += 1
        seen: set[str] = set()
        for gid in gids:
            if gid not in self._hierarchy:
                self._hierarchy.add_item(gid)
            seen.update(self._hierarchy.ancestors(gid))
        self._document_frequency.update(seen)

    def build(self) -> Dictionary:
        return Dictionary.from_hierarchy(self._hierarchy, dict(self._document_frequency))
