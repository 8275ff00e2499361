"""In-memory sequence databases.

A :class:`SequenceDatabase` stores input sequences as tuples of fids.  The
library always mines over fid-encoded sequences; raw gid sequences are encoded
through a :class:`~repro.dictionary.dictionary.Dictionary`.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.dictionary import Dictionary
from repro.errors import ReproError, UnknownItemError
from repro.sequences.store import EncodedSequenceStore


@dataclass(frozen=True)
class DatabaseStatistics:
    """Dataset characteristics in the style of Table II of the paper."""

    sequence_count: int
    total_items: int
    unique_items: int
    max_length: int
    mean_length: float

    def as_dict(self) -> dict[str, float]:
        return {
            "sequence_count": self.sequence_count,
            "total_items": self.total_items,
            "unique_items": self.unique_items,
            "max_length": self.max_length,
            "mean_length": self.mean_length,
        }


class SequenceDatabase:
    """A list of fid-encoded input sequences.

    The database is append-only; mining algorithms never mutate it.  Sequences
    are plain tuples of positive integers (fids).
    """

    def __init__(self, sequences: Iterable[Sequence[int]] = ()) -> None:
        self._sequences: list[tuple[int, ...]] = []
        self._store: tuple[int, EncodedSequenceStore] | None = None
        for sequence in sequences:
            self.append(sequence)

    # ----------------------------------------------------------- construction
    @classmethod
    def from_gid_sequences(
        cls, dictionary: Dictionary, sequences: Iterable[Sequence[str]]
    ) -> "SequenceDatabase":
        """Encode raw gid sequences through ``dictionary`` into a database.

        One lookup table serves the whole corpus, and its values are the
        dictionary's fids — positive integers by construction — so the rows
        skip :meth:`append`'s validation.
        """
        fid_of = dictionary.fid_table().__getitem__
        database = cls()
        rows = database._sequences
        for gids in sequences:
            try:
                rows.append(tuple(map(fid_of, gids)))
            except KeyError as error:
                raise UnknownItemError(error.args[0]) from None
        return database

    def append(self, sequence: Sequence[int]) -> None:
        """Add one fid-encoded sequence."""
        try:
            # operator.index (unlike int) refuses floats and digit strings, as
            # the encoded store does: what is mined is what was given.
            encoded = tuple(map(operator.index, sequence))
        except TypeError as error:
            raise ReproError(f"sequence items must be integers (fids): {error}") from None
        if encoded and min(encoded) <= 0:
            raise ReproError(f"sequence contains non-positive fid: {encoded}")
        self._sequences.append(encoded)

    def extend(self, sequences: Iterable[Sequence[int]]) -> None:
        """Add many fid-encoded sequences."""
        for sequence in sequences:
            self.append(sequence)

    # ----------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self._sequences)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._sequences)

    def __getitem__(self, index: int) -> tuple[int, ...]:
        return self._sequences[index]

    def sequences(self) -> list[tuple[int, ...]]:
        """A shallow copy of the stored sequences."""
        return list(self._sequences)

    def decode(self, dictionary: Dictionary) -> list[tuple[str, ...]]:
        """Translate all sequences back into gid tuples (for display/tests)."""
        return [dictionary.decode(sequence) for sequence in self._sequences]

    def __getstate__(self) -> dict:
        # The cached store holds memoryviews over its packed buffer; it is a
        # per-process derivative, not part of the database (workers map the
        # copy a run publishes as a file in its run directory).
        state = self.__dict__.copy()
        state["_store"] = None
        return state

    def encoded_store(self) -> EncodedSequenceStore:
        """The database packed as an :class:`~repro.sequences.store.EncodedSequenceStore`.

        The store is built on first use and cached; the database is
        append-only, so the cache is valid exactly while the sequence count
        is unchanged (appending invalidates it on the next call).
        """
        if self._store is not None and self._store[0] == len(self._sequences):
            return self._store[1]
        store = EncodedSequenceStore.from_sequences(self._sequences)
        self._store = (len(self._sequences), store)
        return store

    def content_hash(self) -> str:
        """Content digest of the current sequences (via the encoded store).

        Appending changes the digest on the next call, which is what lets the
        service layer detect that a re-attached corpus has new data.
        """
        return self.encoded_store().content_hash()

    # ------------------------------------------------------------------ tools
    def sample(self, fraction: float, seed: int = 0) -> "SequenceDatabase":
        """Return a random sample containing ``fraction`` of the sequences.

        Sampling is deterministic for a given ``seed`` (used by the data
        scalability experiment, Fig. 11a).
        """
        if not 0.0 < fraction <= 1.0:
            raise ReproError(f"fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0:
            return SequenceDatabase(self._sequences)
        import random  # only the sampling experiment loads it

        rng = random.Random(seed)
        count = max(1, round(len(self._sequences) * fraction))
        picked = rng.sample(range(len(self._sequences)), count)
        return SequenceDatabase(self._sequences[i] for i in sorted(picked))

    def statistics(self) -> DatabaseStatistics:
        """Compute Table-II-style dataset characteristics."""
        lengths = [len(sequence) for sequence in self._sequences]
        unique: set[int] = set()
        for sequence in self._sequences:
            unique.update(sequence)
        total = sum(lengths)
        return DatabaseStatistics(
            sequence_count=len(self._sequences),
            total_items=total,
            unique_items=len(unique),
            max_length=max(lengths, default=0),
            mean_length=(total / len(lengths)) if lengths else 0.0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SequenceDatabase(sequences={len(self._sequences)})"


def as_records(database) -> "Sequence[Sequence[int]]":
    """Normalize a miner's ``database`` argument for ``Cluster.run``.

    Databases and encoded stores already support length and contiguous
    slicing, so they pass through uncopied — which is what lets the
    ``persistent-processes`` backend reuse the database's cached
    :meth:`SequenceDatabase.encoded_store` instead of re-packing the
    sequences on every run.  Any other iterable is materialized once.
    """
    if isinstance(database, (SequenceDatabase, EncodedSequenceStore)):
        return database
    return list(database)


def as_mining_records(database, dedup: bool = True) -> "Sequence":
    """The record sequence a miner hands to ``Cluster.run``.

    With ``dedup`` (the default), the database is packed into an
    :class:`~repro.sequences.store.EncodedSequenceStore` (reusing the
    database's cached store when there is one) and collapsed to its
    :meth:`~repro.sequences.store.EncodedSequenceStore.unique_view`: one
    :class:`~repro.sequences.store.WeightedSequence` per distinct input
    sequence.  Map-side work then drops proportionally to duplication,
    instead of only deduplicating post-shuffle in the combiners.
    """
    records = as_records(database)
    if not dedup:
        return records
    from repro.sequences.store import as_encoded_store

    return as_encoded_store(records).unique_view()
