"""Dictionary construction from raw gid sequences and a hierarchy.

The builder performs the "preprocessing" step of the paper: it scans the raw
sequence database once, computes the document frequency ``f(w, D)`` of every
item (counting a sequence for an item if the sequence contains the item *or any
of its descendants*), and assigns fids by decreasing frequency.  The ancestor
closure of an item is walked once, the first time the item is met, and a
sequence adds the union of its distinct items' closures to the counts.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence

from repro.dictionary.dictionary import Dictionary
from repro.dictionary.hierarchy import Hierarchy


class DictionaryBuilder:
    """Incrementally build a :class:`~repro.dictionary.dictionary.Dictionary`.

    Typical usage::

        builder = DictionaryBuilder(hierarchy)
        for sequence in raw_sequences:          # sequences of gid strings
            builder.add_sequence(sequence)
        dictionary = builder.build()
    """

    def __init__(self, hierarchy: Hierarchy | None = None) -> None:
        self._hierarchy = hierarchy.copy() if hierarchy is not None else Hierarchy()
        self._document_frequency: Counter[str] = Counter()
        self._sequence_count = 0
        #: gid -> its reflexive ancestor closure, filled on first sight.
        self._closures: dict[str, frozenset[str]] = {}

    @property
    def sequence_count(self) -> int:
        """Number of sequences added so far."""
        return self._sequence_count

    def add_item(self, gid: str) -> None:
        """Register an item that may not occur in any sequence."""
        self._hierarchy.add_item(gid)

    def add_generalization(self, child: str, parent: str) -> None:
        """Register a generalization edge ``child => parent`` (drops every cached closure)."""
        self._hierarchy.add_edge(child, parent)
        self._closures.clear()

    def add_sequence(self, gids: Sequence[str]) -> None:
        """Count one input sequence.

        Every distinct ancestor (including the item itself) of any item in the
        sequence gets its document frequency increased by one, matching the
        Fig. 2c semantics (``f(A, Dex) = 4`` because four sequences contain a
        descendant of ``A``).
        """
        self._sequence_count += 1
        seen: set[str] = set()
        for gid in dict.fromkeys(gids):
            closure = self._closures.get(gid)
            if closure is None:
                if gid not in self._hierarchy:
                    self._hierarchy.add_item(gid)
                closure = self._closures[gid] = self._hierarchy.ancestors(gid)
            seen |= closure
        self._document_frequency.update(seen)

    def add_sequences(self, sequences: Iterable[Sequence[str]]) -> None:
        """Count many input sequences."""
        for sequence in sequences:
            self.add_sequence(sequence)

    def build(self) -> Dictionary:
        """Freeze the accumulated counts into a :class:`Dictionary`."""
        return Dictionary.from_hierarchy(self._hierarchy, dict(self._document_frequency))


def build_dictionary(
    sequences: Iterable[Sequence[str]], hierarchy: Hierarchy | None = None
) -> Dictionary:
    """One-shot convenience wrapper around :class:`DictionaryBuilder`."""
    builder = DictionaryBuilder(hierarchy)
    builder.add_sequences(sequences)
    return builder.build()
