"""Simple text and JSON I/O for sequence databases and dictionaries.

The on-disk formats are intentionally minimal:

* sequence text format: one sequence per line, items separated by whitespace
  (gzip-compressed when the file name ends in ``.gz``);
* dictionary JSON format: a list of item records with gid, frequency and
  parent gids.

These formats are sufficient to persist the synthetic datasets used by the
experiment harness and to exchange data with external tools.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.dictionary import Dictionary, DictionaryBuilder, Hierarchy, Item
from repro.errors import DictionaryError
from repro.sequences.database import SequenceDatabase
from repro.sequences.formats import _open_text

if TYPE_CHECKING:
    from pathlib import Path


# --------------------------------------------------------------------- sequences
def write_gid_sequences(path: str | Path, sequences: Iterable[Sequence[str]]) -> int:
    """Write raw gid sequences, one per line.  Returns the number written."""
    count = 0
    with _open_text(path, "w") as handle:
        for sequence in sequences:
            handle.write(" ".join(sequence))
            handle.write("\n")
            count += 1
    return count


def read_gid_sequences(path: str | Path) -> list[tuple[str, ...]]:
    """Read gid sequences written by :func:`write_gid_sequences`, one ``str`` per distinct gid."""
    sequences: list[tuple[str, ...]] = []
    interned = {}.setdefault
    with _open_text(path, "r") as handle:
        for line in handle:
            tokens = line.split()
            if tokens:
                sequences.append(tuple(map(interned, tokens, tokens)))
    return sequences


# -------------------------------------------------------------------- dictionary
#: The keys of one record of a dictionary file.
_RECORD_KEYS = frozenset(("gid", "document_frequency", "parents"))


def write_dictionary(path: str | Path, dictionary: Dictionary) -> None:
    """Persist a dictionary (gids, frequencies, parent links) as JSON."""
    records = [
        {
            "gid": item.gid,
            "document_frequency": item.document_frequency,
            "parents": sorted(dictionary.gid_of(p) for p in item.parent_fids),
        }
        for item in dictionary
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=2)


def read_dictionary(path: str | Path) -> Dictionary:
    """Load a dictionary written by :func:`write_dictionary`.

    fids number the records by decreasing frequency, tied records in file
    order, so round-tripping preserves gids, frequencies, hierarchy and every
    fid.
    The file must be a list of ``{"gid", "document_frequency", "parents"}``
    objects: a non-empty string gid that no other record has, an int
    frequency >= 0 (a bool is none), and a list of parent gids that the file
    lists; anything else raises :class:`~repro.errors.DictionaryError` naming
    the path and the record's index.
    """
    with open(path, "r", encoding="utf-8") as handle:
        records = json.load(handle)
    if not isinstance(records, list):
        raise DictionaryError(f"{path}: a dictionary file is a JSON list of item records")
    hierarchy = Hierarchy()
    frequencies: dict[str, int] = {}
    for index, record in enumerate(records):
        if not isinstance(record, dict) or not _RECORD_KEYS <= record.keys():
            raise DictionaryError(
                f"{path}: record {index} is not an object with the keys "
                f"{', '.join(sorted(_RECORD_KEYS))}"
            )
        gid, frequency = record["gid"], record["document_frequency"]
        if not isinstance(gid, str) or not gid:
            raise DictionaryError(f"{path}: record {index}: gid {gid!r} is not a non-empty string")
        if type(frequency) is not int or frequency < 0:
            raise DictionaryError(
                f"{path}: record {index}: document_frequency {frequency!r} is not an int >= 0"
            )
        if not isinstance(record["parents"], list):
            raise DictionaryError(f"{path}: record {index}: parents must be a list of gids")
        if gid in frequencies:
            raise DictionaryError(f"{path}: record {index}: gid {gid!r} is listed twice")
        hierarchy.add_item(gid)
        frequencies[gid] = frequency
    for index, record in enumerate(records):
        for parent in record["parents"]:
            if not isinstance(parent, str) or parent not in frequencies:
                raise DictionaryError(
                    f"{path}: record {index}: parent {parent!r} is no gid the file lists"
                )
            try:
                hierarchy.add_edge(record["gid"], parent)
            except DictionaryError as error:
                raise DictionaryError(f"{path}: record {index}: {error}") from None
    # sorted() is stable: tied records keep the order write_dictionary gave them.
    ranking = sorted(frequencies, key=lambda gid: -frequencies[gid])
    return Dictionary.from_ranking(hierarchy, ranking, frequencies)


# ------------------------------------------------------------------- preprocess
def preprocess(
    raw_sequences: Iterable[Sequence[str]], hierarchy: Hierarchy | None = None
) -> tuple[Dictionary, SequenceDatabase]:
    """Run the paper's preprocessing step: build the f-list and encode the data.

    Returns the frequency-ordered dictionary and the fid-encoded database.
    """
    materialized = [tuple(sequence) for sequence in raw_sequences]
    builder = DictionaryBuilder(hierarchy)
    builder.add_sequences(materialized)
    dictionary = builder.build()
    database = SequenceDatabase.from_gid_sequences(dictionary, materialized)
    return dictionary, database


__all__ = [
    "Item",
    "preprocess",
    "read_dictionary",
    "read_gid_sequences",
    "write_dictionary",
    "write_gid_sequences",
]
