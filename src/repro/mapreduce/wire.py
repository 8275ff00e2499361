"""Compact wire format for shuffle payloads.

The shuffle of a real cluster serializes every map-side bucket before it
crosses the network; the byte counts the paper reports (``shuffleWriteBytes``
in Fig. 9c and Table V) are sizes of such serialized payloads.  This module
provides that serialization layer: a :class:`Codec` turns one
:data:`~repro.mapreduce.tasks.BucketPayload` (a ``key -> values`` mapping
emitted by one map task for one reduce bucket) into bytes and back.

Two codecs ship with the library:

* ``compact`` — :class:`CompactCodec`, a length-prefixed binary format with
  two group layouts (grammar below).  A key group whose values are all
  ``(fid tuple, weight)`` or all ``(bytes, weight)`` pairs — what D-SEQ, LASH
  and D-CAND shuffle — is written as three *columns* (payload lengths,
  weights, concatenated payloads) by the interpreter's own UTF-8 codec, with
  no Python call per item; any other group is *tagged*, one type tag per value
  and per tuple element (an int element costs a tag and a zigzag varint).
* ``zlib`` — the same format compressed with :mod:`zlib` (deterministic, so
  measured byte counts stay identical across execution backends).

Nothing on the read side unpickles: a ``multihost`` reduce task reads blobs
from a shared directory, and a pickle in one could run code in the worker.

All encodings are deterministic functions of the payload, which is what makes
the *measured* wire bytes comparable across backends: the same map-task
input always produces the same blob, no matter where the task ran.

Grammar of a ``compact`` blob (``varint`` = unsigned LEB128)::

    blob    = header body            header: 0 = raw body, 1 = zlib(body)
    body    = varint(groups) group*
    group   = key tagged | key columns
    key     = value, with the group's layout in the high nibble of its tag byte
    tagged  = varint(count) value*   layout 0: value = tag byte, tag's encoding
    columns = column column column   layout 1 / 2: lengths, weights, payloads
    column  = varint(size) size bytes

Layout 1 holds ``(int tuple, weight)`` values, layout 2 ``(bytes, weight)``
values; value ``i`` is the next ``lengths[i]`` entries of the payload column
paired with ``weights[i]``.  Integer columns (all but the raw payload bytes of
layout 2) are UTF-8 over code points with lone surrogates allowed: 1 / 2 / 3 /
4 bytes below 128 / 2,048 / 65,536 / 0x110000, strict about overlong and
truncated forms.  The encoder picks the layout from the group's values alone:
a group that is empty or mixed, holds a bare payload, a ``bool``, a
negative, or a length, weight or item above 0x10FFFF is tagged, which keeps
exact types.  A value of a type the tags do not name (an ``int`` subclass
other than ``bool``, a user class) is refused with :class:`MapReduceError`.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain
from typing import Any, Protocol, runtime_checkable

from repro.errors import MapReduceError
from repro.varint import read_varint as _read_varint, write_varint as _write_varint

#: Codec names accepted by :func:`make_codec`, in the order shown by ``--help``.
CODECS = ("compact", "zlib")

# Type tags of the compact value encoding.
_T_INT = 0
_T_BYTES = 1
_T_STR = 2
_T_TUPLE = 3
_T_LIST = 4
_T_NONE = 5
_T_TRUE = 6
_T_FALSE = 7
_T_FROZENSET = 8
_T_FLOAT = 9

# Header flags of a compact blob.
_RAW = 0
_COMPRESSED = 1

# Group layouts, carried in the high nibble of the key's tag byte.
_TAG_MASK = 0x0F
_L_TAGGED = 0
_L_TUPLES = 1
_L_BYTES = 2

# Columns pass between int arrays and ``str`` as UTF-32 in this machine's byte
# order (4-byte ``array`` code "I"); what is written is UTF-8, endian-free.
_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"


@runtime_checkable
class Codec(Protocol):
    """Serializer for shuffle bucket payloads.

    Implementations must be deterministic (equal payloads encode to equal
    bytes, regardless of the process that encodes them) and picklable, so
    the process-pool backend can ship the codec to its workers.
    """

    name: str

    def encode_bucket(self, payload: dict[Any, list[Any]]) -> bytes:
        """Serialize one bucket payload."""
        ...  # pragma: no cover - protocol definition

    def iter_bucket(self, blob: bytes) -> Iterator[tuple[Any, list[Any]]]:
        """Decode a blob incrementally, yielding ``(key, values)`` groups."""
        ...  # pragma: no cover - protocol definition

    def decode_bucket(self, blob: bytes) -> dict[Any, list[Any]]:
        """Deserialize one bucket payload (inverse of :meth:`encode_bucket`)."""
        ...  # pragma: no cover - protocol definition


# ------------------------------------------------------------------- varints
def write_varint(buffer: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint (shared impl, MapReduce errors)."""
    _write_varint(buffer, value, error=MapReduceError)


def read_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; returns ``(value, next offset)``."""
    return _read_varint(data, offset, error=MapReduceError, what="varint in wire payload")


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# ------------------------------------------------------------- value encoding
def _encode_items(buffer: bytearray, items) -> None:
    """Append the elements of a tuple or list.

    Fid tuples dominate the shuffle, so int elements are written here, with
    the one- and two-byte varints of small non-negative ints inlined — the
    very bytes :func:`encode_value` would write, which everything else takes.
    """
    append = buffer.append
    for item in items:
        if type(item) is not int:
            encode_value(buffer, item)
            continue
        append(_T_INT)
        if 0 <= item < 0x40:
            append(item << 1)
        elif 0 <= item < 0x2000:
            append((item << 1) & 0x7F | 0x80)
            append(item >> 6)
        else:
            write_varint(buffer, _zigzag(item))


def encode_value(buffer: bytearray, value: Any) -> None:
    """Append one tagged value to ``buffer``."""
    kind = type(value)
    if kind is int:
        buffer.append(_T_INT)
        write_varint(buffer, _zigzag(value))
    elif kind is bytes:
        buffer.append(_T_BYTES)
        write_varint(buffer, len(value))
        buffer.extend(value)
    elif kind is str:
        encoded = value.encode("utf-8", "surrogatepass")
        buffer.append(_T_STR)
        write_varint(buffer, len(encoded))
        buffer.extend(encoded)
    elif kind is tuple:
        buffer.append(_T_TUPLE)
        write_varint(buffer, len(value))
        _encode_items(buffer, value)
    elif kind is list:
        buffer.append(_T_LIST)
        write_varint(buffer, len(value))
        _encode_items(buffer, value)
    elif value is None:
        buffer.append(_T_NONE)
    elif value is True:
        buffer.append(_T_TRUE)
    elif value is False:
        buffer.append(_T_FALSE)
    elif kind is frozenset:
        # A frozenset's iteration order is salted per process for strings;
        # sorting by encoded bytes keeps the wire representation (and hence
        # the measured shuffle size) identical across worker processes.
        members = []
        for item in value:
            member = bytearray()
            encode_value(member, item)
            members.append(bytes(member))
        buffer.append(_T_FROZENSET)
        write_varint(buffer, len(members))
        for member in sorted(members):
            buffer.extend(member)
    elif kind is float:
        buffer.append(_T_FLOAT)
        buffer.extend(struct.pack(">d", value))
    else:
        raise MapReduceError(
            f"cannot encode a {kind.__qualname__} value in a wire payload; the "
            "tagged layout holds int, bytes, str, tuple, list, None, bool, "
            "frozenset and float"
        )


def decode_value(data: bytes, offset: int, tag_mask: int = 0xFF) -> tuple[Any, int]:
    """Read one tagged value; returns ``(value, next offset)``.  ``tag_mask``
    selects the tag bits of its first byte (a key's also holds the layout)."""
    if offset >= len(data):
        raise MapReduceError("truncated value in wire payload")
    tag = data[offset] & tag_mask
    offset += 1
    if tag == _T_INT:
        raw, offset = read_varint(data, offset)
        return _unzigzag(raw), offset
    if tag == _T_BYTES:
        length, offset = read_varint(data, offset)
        end = offset + length
        if end > len(data):
            raise MapReduceError("truncated bytes in wire payload")
        return data[offset:end], end
    if tag == _T_STR:
        length, offset = read_varint(data, offset)
        end = offset + length
        if end > len(data):
            raise MapReduceError("truncated string in wire payload")
        try:
            return data[offset:end].decode("utf-8", "surrogatepass"), end
        except UnicodeDecodeError as error:
            raise MapReduceError("malformed string in wire payload") from error
    if tag in (_T_TUPLE, _T_LIST, _T_FROZENSET):
        length, offset = read_varint(data, offset)
        items = []
        append = items.append
        last = len(data) - 2
        for _ in range(length):
            # Int elements are read here (see _encode_items), one- and
            # two-byte varints inline; an int cut short by the end of the
            # data takes the general call, which names the truncation.
            if offset < last and data[offset] == _T_INT:
                raw = data[offset + 1]
                if raw < 0x80:
                    offset += 2
                elif data[offset + 2] < 0x80:
                    raw = raw & 0x7F | data[offset + 2] << 7
                    offset += 3
                else:
                    raw, offset = read_varint(data, offset + 1)
                append(raw >> 1 if not raw & 1 else -((raw + 1) >> 1))
            else:
                item, offset = decode_value(data, offset)
                append(item)
        if tag == _T_TUPLE:
            return tuple(items), offset
        if tag == _T_LIST:
            return items, offset
        try:
            return frozenset(items), offset
        except TypeError as error:
            raise MapReduceError("unhashable frozenset member in wire payload") from error
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_FLOAT:
        end = offset + 8
        if end > len(data):
            raise MapReduceError("truncated float in wire payload")
        return struct.unpack(">d", data[offset:end])[0], end
    raise MapReduceError(f"unknown wire tag {tag}")


# ------------------------------------------------------------- column groups
def _pack_column(numbers: Iterable[int]) -> bytes:
    """Code points as UTF-8; raises for a number outside 0..0x10FFFF."""
    text = array("I", numbers).tobytes().decode(_UTF32, "surrogatepass")
    return text.encode("utf-8", "surrogatepass")


def _encode_columns(buffer: bytearray, values: list[Any]) -> int:
    """Append ``values`` as columns if they are uniform ``(payload, weight)``
    pairs of one payload kind and return the layout written; otherwise append
    nothing and return ``_L_TAGGED``.  Every check is one C-level pass."""
    if set(map(type, values)) != {tuple} or set(map(len, values)) != {2}:
        return _L_TAGGED
    payloads, weights = zip(*values)
    kinds = set(map(type, payloads))
    if kinds == {tuple}:
        layout, items = _L_TUPLES, tuple(chain.from_iterable(payloads))
        numbers = chain(weights, items)
    elif kinds == {bytes}:
        layout, numbers = _L_BYTES, weights
    else:
        return _L_TAGGED
    if set(map(type, numbers)) != {int}:  # no bool, no int subclass
        return _L_TAGGED
    try:
        columns = (
            _pack_column(map(len, payloads)),
            _pack_column(weights),
            _pack_column(items) if layout == _L_TUPLES else b"".join(payloads),
        )
    except (ValueError, OverflowError):  # a negative, or past the code's range
        return _L_TAGGED
    for column in columns:
        write_varint(buffer, len(column))
        buffer += column
    return layout


def _read_column(data: bytes, offset: int, what: str, packed: bool = True):
    """Read one sized column; returns ``(ints or raw bytes, next offset)``."""
    size, offset = read_varint(data, offset)
    end = offset + size
    if end > len(data):  # refused before anything of that size is allocated
        raise MapReduceError(f"{what} column of {size} bytes runs past the end of the wire payload")
    if not packed:
        return data[offset:end], end
    try:
        text = data[offset:end].decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as error:
        raise MapReduceError(f"malformed code in {what} column of wire payload") from error
    return tuple(memoryview(text.encode(_UTF32, "surrogatepass")).cast("I")), end


def _decode_columns(data: bytes, offset: int, layout: int) -> tuple[list[Any], int]:
    """Read one column group; returns ``(values, next offset)``."""
    lengths, offset = _read_column(data, offset, "lengths")
    weights, offset = _read_column(data, offset, "weights")
    items, offset = _read_column(data, offset, "payload", packed=layout == _L_TUPLES)
    if len(weights) != len(lengths):
        raise MapReduceError(f"{len(weights)} weights for {len(lengths)} lengths in column group")
    if sum(lengths) != len(items):
        raise MapReduceError(f"lengths sum to {sum(lengths)}, payload column holds {len(items)}")
    ends = list(accumulate(lengths))
    payloads = map(items.__getitem__, map(slice, [0] + ends, ends))
    return list(zip(payloads, weights)), offset


# -------------------------------------------------------------------- codecs
class CompactCodec:
    """Length-prefixed binary codec, optionally zlib-compressed; the module
    docstring has the blob grammar.  Uniform ``(payload, weight)`` groups are
    written as columns, everything else with :func:`encode_value`."""

    def __init__(self, compress: bool = False, compression_level: int = 6) -> None:
        self.compress = compress
        self.compression_level = compression_level
        self.name = "zlib" if compress else "compact"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"

    def encode_bucket(self, payload: dict[Any, list[Any]]) -> bytes:
        buffer = bytearray()
        write_varint(buffer, len(payload))
        for key, values in payload.items():
            head = len(buffer)
            encode_value(buffer, key)
            layout = _encode_columns(buffer, values)
            if layout:
                buffer[head] |= layout << 4
                continue
            write_varint(buffer, len(values))
            for value in values:
                encode_value(buffer, value)
        if self.compress:
            return bytes([_COMPRESSED]) + zlib.compress(bytes(buffer), self.compression_level)
        return bytes([_RAW]) + bytes(buffer)

    def iter_bucket(self, blob: bytes) -> Iterator[tuple[Any, list[Any]]]:
        if not blob:
            raise MapReduceError("empty wire payload")
        if blob[0] == _COMPRESSED:
            try:
                data = zlib.decompress(blob[1:])
            except zlib.error as error:
                raise MapReduceError("malformed zlib stream in wire payload") from error
        elif blob[0] == _RAW:
            data = blob[1:]
        else:
            raise MapReduceError(f"unknown wire header byte {blob[0]}")
        count, offset = read_varint(data, 0)
        for _ in range(count):
            head = offset
            try:
                key, offset = decode_value(data, head, _TAG_MASK)
                layout = data[head] >> 4
                if layout == _L_TAGGED:
                    length, offset = read_varint(data, offset)
                    values = []
                    for _ in range(length):
                        value, offset = decode_value(data, offset)
                        values.append(value)
                elif layout in (_L_TUPLES, _L_BYTES):
                    values, offset = _decode_columns(data, offset, layout)
                else:
                    raise MapReduceError(f"unknown group layout {layout} in wire payload")
            except RecursionError as error:
                raise MapReduceError("wire payload nests too deeply") from error
            try:
                hash(key)
            except TypeError as error:
                raise MapReduceError("unhashable key in wire payload") from error
            yield key, values
        if offset != len(data):
            raise MapReduceError(
                f"{len(data) - offset} trailing bytes after last key group"
            )

    def decode_bucket(self, blob: bytes) -> dict[Any, list[Any]]:
        return dict(self.iter_bucket(blob))


_CODEC_FACTORIES = {
    "compact": CompactCodec,
    "zlib": lambda: CompactCodec(compress=True),
}


def make_codec(codec: str = "compact") -> Codec:
    """Build the codec named ``codec``, one of :data:`CODECS`."""
    factory = _CODEC_FACTORIES.get(codec.strip().lower()) if isinstance(codec, str) else None
    if factory is None:
        raise MapReduceError(
            f"unknown shuffle codec {codec!r}; choose one of {', '.join(CODECS)}"
        )
    return factory()
