"""Additional on-disk formats for sequence databases.

Besides the whitespace-separated text format of :mod:`repro.sequences.io`,
the library reads and writes **JSON lines** (``.jsonl``): one JSON object
per line with an ``items`` array of gids (strings, or ints, which read back
as their decimal strings) and an optional ``id``.  Convenient for exchanging
data with external tools and for inspecting datasets by hand.

All readers and writers transparently handle gzip compression when the file
name carries an additional ``.gz`` suffix.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Sequence
from typing import IO, TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:
    from pathlib import Path

#: Formats understood by :func:`save_sequences` / :func:`load_sequences`.
KNOWN_FORMATS = ("text", "jsonl")


# ----------------------------------------------------------------- file opening
def _suffixes(path: str | Path) -> list[str]:
    """The file name's suffixes, as ``pathlib.PurePath.suffixes`` lists them."""
    name = os.path.basename(os.fspath(path))
    if name.endswith("."):
        return []
    return ["." + suffix for suffix in name.lstrip(".").split(".")[1:]]


def _open_text(path: str | Path, mode: str) -> IO[str]:
    """Open a text file, transparently using gzip for ``*.gz`` paths."""
    if _suffixes(path)[-1:] == [".gz"]:
        import gzip  # only a compressed file loads it

        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def detect_format(path: str | Path) -> str:
    """Guess the sequence format from a file name.

    ``.jsonl`` maps to JSON lines, everything else to the plain text format.
    A trailing ``.gz`` suffix is ignored for the purpose of detection.
    """
    suffixes = [suffix.lower() for suffix in _suffixes(path) if suffix.lower() != ".gz"]
    return "jsonl" if suffixes[-1:] == [".jsonl"] else "text"


# ------------------------------------------------------------------- JSON lines
def write_jsonl_sequences(
    path: str | Path, sequences: Iterable[Sequence[str]], start_id: int = 0
) -> int:
    """Write gid sequences as JSON lines.  Returns the number of sequences."""
    count = 0
    with _open_text(path, "w") as handle:
        for index, sequence in enumerate(sequences, start=start_id):
            record = {"id": index, "items": list(sequence)}
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def read_jsonl_sequences(path: str | Path) -> list[tuple[str, ...]]:
    """Read gid sequences written by :func:`write_jsonl_sequences`.

    Each line is an object whose ``items`` is a list of strings and ints (an
    int reads as its decimal string); any other line raises
    :class:`~repro.errors.ReproError` at ``path:line``.  Lines that are empty
    or contain an empty ``items`` array are skipped, and equal gids come back
    as one ``str`` object, as in the text reader.
    """
    sequences: list[tuple[str, ...]] = []
    interned = {}.setdefault
    with _open_text(path, "r") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ReproError(f"{path}:{line_number}: invalid JSON: {error}") from error
            if not isinstance(record, dict):
                raise ReproError(f"{path}:{line_number}: a record must be a JSON object")
            items = record.get("items")
            if items is None:
                raise ReproError(f"{path}:{line_number}: missing 'items' field")
            if not isinstance(items, list):
                raise ReproError(f"{path}:{line_number}: 'items' must be a list of gids")
            gids = []
            for item in items:
                # json gives str, int, bool, float, None, list or dict; a gid
                # is a str or a (non-bool) int.
                if type(item) is str:
                    gids.append(interned(item, item))
                elif type(item) is int:
                    gid = str(item)
                    gids.append(interned(gid, gid))
                else:
                    raise ReproError(
                        f"{path}:{line_number}: item {item!r} is not a gid "
                        "(a string or an int)"
                    )
            if gids:
                sequences.append(tuple(gids))
    return sequences


# -------------------------------------------------------------------- dispatch
def save_sequences(
    path: str | Path,
    sequences: Iterable[Sequence[str]],
    file_format: str | None = None,
) -> int:
    """Write gid sequences in the requested (or auto-detected) format."""
    file_format = file_format or detect_format(path)
    if file_format == "text":
        from repro.sequences.io import write_gid_sequences

        return write_gid_sequences(path, sequences)
    if file_format == "jsonl":
        return write_jsonl_sequences(path, sequences)
    raise ReproError(f"unknown sequence format {file_format!r}; choose from {KNOWN_FORMATS}")


def load_sequences(path: str | Path, file_format: str | None = None) -> list[tuple[str, ...]]:
    """Read gid sequences in the requested (or auto-detected) format."""
    file_format = file_format or detect_format(path)
    try:
        if file_format == "text":
            from repro.sequences.io import read_gid_sequences

            return read_gid_sequences(path)
        if file_format == "jsonl":
            return read_jsonl_sequences(path)
    except UnicodeDecodeError as error:
        # A file that is no text at all, such as a corpus in the retired
        # binary format.
        raise ReproError(f"{path}: not a UTF-8 text file: {error}") from None
    raise ReproError(f"unknown sequence format {file_format!r}; choose from {KNOWN_FORMATS}")
