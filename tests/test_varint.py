"""Hostile bytes through the LEB128 varint and the two payloads that read it.

Every truncation and every single-bit flip of an encoded value must come back
as the reader's :class:`~repro.errors.ReproError` subclass or as a value the
format itself would accept again — never as an ``IndexError``, a
``ValueError`` or any other untyped exception.  Both payloads take ints past
2**64, so the values drawn here run well beyond it.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MapReduceError, NfaError, ReproError
from repro.mapreduce.wire import make_codec
from repro.nfa import OutputNfa, TrieBuilder, deserialize, serialize, serialize_trie
from repro.varint import read_varint, write_varint

#: Fids and counts: one-byte, multi-byte, and past every machine word.
VALUES = st.one_of(
    st.integers(min_value=0, max_value=127),
    st.integers(min_value=0, max_value=2**70),
    st.integers(min_value=2**63, max_value=2**130),
)
FIDS = VALUES.map(lambda value: value + 1)


class Hostile(ReproError):
    """The error type handed to the bare reader, to see it is the one raised."""


def encoded(value: int) -> bytes:
    buffer = bytearray()
    write_varint(buffer, value)
    return bytes(buffer)


def damaged(payload: bytes):
    """Every proper prefix, then every single-bit flip, of ``payload``."""
    for length in range(len(payload)):
        yield payload[:length]
    for position in range(len(payload)):
        for bit in range(8):
            flipped = bytearray(payload)
            flipped[position] ^= 1 << bit
            yield bytes(flipped)


class TestReadVarint:
    @given(VALUES, st.binary(max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_at_any_offset(self, value, prefix):
        data = prefix + encoded(value) + b"\xff"
        assert read_varint(data, len(prefix)) == (value, len(data) - 1)

    @given(VALUES)
    @settings(max_examples=200, deadline=None)
    def test_every_truncation_raises_the_given_type(self, value):
        data = encoded(value)
        for length in range(len(data)):
            with pytest.raises(Hostile, match="truncated fid"):
                read_varint(data[:length], 0, error=Hostile, what="fid")

    @given(VALUES)
    @settings(max_examples=200, deadline=None)
    def test_every_bit_flip_reads_a_consistent_value_or_raises(self, value):
        data = encoded(value)
        for flipped in list(damaged(data))[len(data):]:
            try:
                read, end = read_varint(flipped, 0, error=Hostile)
            except Hostile:
                # Only a cleared final stop bit leaves the value unfinished.
                assert flipped[-1] & 0x80
                continue
            # The value is exactly the 7-bit groups up to the first stop bit.
            assert 0 < end <= len(flipped)
            assert all(byte & 0x80 for byte in flipped[: end - 1])
            assert not flipped[end - 1] & 0x80
            assert read == sum((byte & 0x7F) << (7 * i) for i, byte in enumerate(flipped[:end]))
            assert read_varint(encoded(read), 0) == (read, len(encoded(read)))

    @pytest.mark.parametrize("length", (9, 10, 11, 12, 20, 100, 1000, 3000))
    def test_round_trip_over_long_lengths(self, length):
        """Both sides of the ten-byte switch to the long reader, and far past it."""
        for value in (
            2 ** (7 * (length - 1)),
            2 ** (7 * length) - 1,
            random.Random(length).getrandbits(7 * length) | 2 ** (7 * (length - 1)),
        ):
            data = encoded(value)
            assert len(data) == length
            assert read_varint(b"\x00" + data + b"\xff", 1) == (value, length + 1)
            with pytest.raises(Hostile, match="truncated fid"):
                read_varint(data[:-1], 0, error=Hostile, what="fid")
        # A non-minimal spelling reads as the groups it spells.
        padded = b"\x81" + b"\x80" * (length - 2) + b"\x00"
        assert read_varint(padded, 0) == (1, length)

    def test_a_long_varint_reads_in_linear_time(self):
        """Reading used to OR every group into a growing int: quadratic in
        the length, ≈ 14 s for this half-megabyte varint."""
        length = 500_000
        data = b"\xff" * (length - 1) + b"\x01"
        started = time.perf_counter()
        value, end = read_varint(data, 0)
        assert time.perf_counter() - started < 3.0
        assert end == length
        assert value == 2 ** (7 * (length - 1) + 1) - 1


class TestCallers:
    """The NFA payload and the shuffle wire blob."""

    @given(
        st.lists(
            st.lists(
                st.lists(FIDS, min_size=1, max_size=2).map(lambda fids: tuple(sorted(set(fids)))),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_nfa_payload(self, runs):
        builder = TrieBuilder()
        for run in runs:
            builder.add_run(run)
        payload = serialize_trie(builder)
        assert serialize(deserialize(payload)) == payload
        for data in damaged(payload):
            try:
                nfa = deserialize(data)
            except NfaError:
                continue
            assert nfa == OutputNfa(nfa.transitions, nfa.final_states)

    @given(
        st.dictionaries(
            VALUES,
            st.lists(
                st.one_of(
                    st.tuples(st.lists(VALUES, max_size=3).map(tuple), VALUES),
                    VALUES.map(lambda value: -value),
                ),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=2,
        ),
        st.sampled_from(["compact", "zlib"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_wire_blob(self, bucket, codec_name):
        codec = make_codec(codec_name)
        blob = codec.encode_bucket(bucket)
        assert codec.decode_bucket(blob) == bucket
        for data in damaged(blob):
            try:
                decoded = codec.decode_bucket(data)
            except MapReduceError:
                continue
            assert codec.decode_bucket(codec.encode_bucket(decoded)) == decoded

