"""Additional on-disk formats for sequence databases.

Besides the whitespace-separated text format of :mod:`repro.sequences.io`,
the library supports two more interchange formats:

* **JSON lines** (``.jsonl``): one JSON object per line with an ``items``
  array of gids and an optional ``id``.  Convenient for exchanging data with
  external tools and for inspecting datasets by hand.
* **binary** (``.rsdb``): a compact binary format for fid-encoded databases.
  Sequences are stored as LEB128 varints with per-sequence length prefixes,
  which keeps the file size close to the shuffle-size accounting used by the
  simulated cluster.

All readers and writers transparently handle gzip compression when the file
name carries an additional ``.gz`` suffix.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Sequence
from typing import IO, TYPE_CHECKING

from repro.errors import ReproError
from repro.sequences.database import SequenceDatabase
from repro.varint import read_varint, write_varint

if TYPE_CHECKING:
    from pathlib import Path

#: Magic bytes identifying the binary database format.
BINARY_MAGIC = b"RSDB"
#: Version of the binary database format written by this module.
BINARY_VERSION = 1

#: Formats understood by :func:`save_sequences` / :func:`load_sequences`.
KNOWN_FORMATS = ("text", "jsonl", "binary")


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


def _open_binary(path: str | Path, mode: str) -> IO[bytes]:
    """Open a binary file, transparently using gzip for ``*.gz`` paths."""
    if _suffixes(path)[-1:] == [".gz"]:
        import gzip  # only a compressed file loads it

        return gzip.open(path, mode + "b")
    return open(path, mode + "b")


def detect_format(path: str | Path) -> str:
    """Guess the sequence format from a file name.

    ``.jsonl`` maps to JSON lines, ``.rsdb``/``.bin`` to the binary format,
    everything else to the plain text format.  A trailing ``.gz`` suffix is
    ignored for the purpose of detection.
    """
    suffixes = [suffix.lower() for suffix in _suffixes(path) if suffix.lower() != ".gz"]
    last = suffixes[-1] if suffixes else ""
    if last == ".jsonl":
        return "jsonl"
    if last in (".rsdb", ".bin"):
        return "binary"
    return "text"


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

    Lines that are empty or contain an empty ``items`` array are skipped, and
    equal gids come back as one ``str`` object, as in the text reader.
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
            items = record.get("items")
            if items is None:
                raise ReproError(f"{path}:{line_number}: missing 'items' field")
            if items:
                gids = list(map(str, items))
                sequences.append(tuple(map(interned, gids, gids)))
    return sequences


# ----------------------------------------------------------------------- binary
def _write_varint(buffer: bytearray, value: int) -> None:
    write_varint(buffer, value, error=ReproError)


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    return read_varint(data, offset, error=ReproError, what="varint in binary database")


def write_binary_database(path: str | Path, database: SequenceDatabase) -> int:
    """Write a fid-encoded database in the compact binary format.

    Returns the number of bytes written (before any gzip compression).
    """
    buffer = bytearray()
    buffer.extend(BINARY_MAGIC)
    buffer.append(BINARY_VERSION)
    _write_varint(buffer, len(database))
    for sequence in database:
        _write_varint(buffer, len(sequence))
        for fid in sequence:
            _write_varint(buffer, fid)
    with _open_binary(path, "w") as handle:
        handle.write(bytes(buffer))
    return len(buffer)


def read_binary_database(path: str | Path) -> SequenceDatabase:
    """Read a database written by :func:`write_binary_database`."""
    with _open_binary(path, "r") as handle:
        data = handle.read()
    if len(data) < len(BINARY_MAGIC) + 1 or data[: len(BINARY_MAGIC)] != BINARY_MAGIC:
        raise ReproError(f"{path}: not a binary sequence database (bad magic)")
    version = data[len(BINARY_MAGIC)]
    if version != BINARY_VERSION:
        raise ReproError(f"{path}: unsupported binary format version {version}")
    offset = len(BINARY_MAGIC) + 1
    count, offset = _read_varint(data, offset)
    sequences: list[tuple[int, ...]] = []
    for _ in range(count):
        length, offset = _read_varint(data, offset)
        sequence = []
        for _ in range(length):
            fid, offset = _read_varint(data, offset)
            sequence.append(fid)
        sequences.append(tuple(sequence))
    if offset != len(data):
        raise ReproError(f"{path}: {len(data) - offset} trailing bytes after last sequence")
    return SequenceDatabase(sequences)


# -------------------------------------------------------------------- dispatch
def save_sequences(
    path: str | Path,
    sequences: Iterable[Sequence[str]],
    file_format: str | None = None,
) -> int:
    """Write gid sequences in the requested (or auto-detected) format.

    The binary format stores fids, not gids, so it is not available here; use
    :func:`write_binary_database` with an encoded database instead.
    """
    file_format = file_format or detect_format(path)
    if file_format == "text":
        from repro.sequences.io import write_gid_sequences

        return write_gid_sequences(path, sequences)
    if file_format == "jsonl":
        return write_jsonl_sequences(path, sequences)
    if file_format == "binary":
        raise ReproError("binary format stores fids; use write_binary_database instead")
    raise ReproError(f"unknown sequence format {file_format!r}; choose from {KNOWN_FORMATS}")


def load_sequences(path: str | Path, file_format: str | None = None) -> list[tuple[str, ...]]:
    """Read gid sequences in the requested (or auto-detected) format."""
    file_format = file_format or detect_format(path)
    if file_format == "text":
        from repro.sequences.io import read_gid_sequences

        return read_gid_sequences(path)
    if file_format == "jsonl":
        return read_jsonl_sequences(path)
    if file_format == "binary":
        raise ReproError("binary format stores fids; use read_binary_database instead")
    raise ReproError(f"unknown sequence format {file_format!r}; choose from {KNOWN_FORMATS}")
