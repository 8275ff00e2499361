"""Unsigned LEB128 varint primitives shared by every binary format.

Two formats serialize integers as LEB128 varints — the NFA serializer
(:mod:`repro.nfa.serializer`) and the shuffle wire codec
(:mod:`repro.mapreduce.wire`).  They share this one implementation and
differ only in the :class:`~repro.errors.ReproError` subclass they raise and
the context named in truncation messages.
"""

from __future__ import annotations

from repro.errors import ReproError

#: ``byte & 0x7F`` for every byte value, as a :meth:`bytes.translate` table.
_LOW_BITS = bytes(byte & 0x7F for byte in range(256))
#: The seven-digit binary spelling of every 7-bit group.
_GROUP_BITS = tuple(format(group, "07b") for group in range(128))


def write_varint(
    buffer: bytearray, value: int, error: type[ReproError] = ReproError
) -> None:
    """Append ``value`` to ``buffer`` as an unsigned LEB128 varint."""
    if value < 0:
        raise error(f"cannot encode negative varint {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buffer.append(byte | 0x80)
        else:
            buffer.append(byte)
            return


def read_varint(
    data: bytes,
    offset: int,
    error: type[ReproError] = ReproError,
    what: str = "varint",
) -> tuple[int, int]:
    """Read one unsigned LEB128 varint; returns ``(value, next offset)``."""
    start = offset
    result = 0
    shift = 0
    while shift < 70:
        if offset >= len(data):
            raise error(f"truncated {what}")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
    return _read_long_varint(data, start, offset, error, what)


def _read_long_varint(
    data: bytes, start: int, offset: int, error: type[ReproError], what: str
) -> tuple[int, int]:
    """Finish a varint longer than ten bytes in time linear in its length.

    OR-ing each group into a growing ``int`` copies that int once per byte,
    which is quadratic in the length; instead, find the last byte, spell the
    7-bit groups most significant first as one binary string and parse it
    once.  There is no length cap: the wire codec's tagged ints are unbounded.
    """
    while offset < len(data) and data[offset] & 0x80:
        offset += 1
    if offset >= len(data):
        raise error(f"truncated {what}")
    groups = bytes(data[start : offset + 1]).translate(_LOW_BITS)[::-1]
    return int("".join(map(_GROUP_BITS.__getitem__, groups)), 2), offset + 1
