"""Tests for the shuffle wire format and the run's fragment store.

Covers three layers: value/bucket round-trips of every codec (including the
empty-payload and huge-fid edge cases, plus hypothesis-generated payloads, and
the column layout of uniform ``(payload, weight)`` groups against a test-side
copy of the all-tagged encoder it replaced),
the fragment store (every payload inline or every payload stored, streamed
merge, cleanup), and
the end-to-end guarantee that miners produce identical patterns and identical
*measured* wire bytes on every backend, for every codec, stored or not.
"""

from __future__ import annotations

import enum
import pickle
import random
from concurrent.futures import BrokenExecutor
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DCandMiner, DSeqMiner, NaiveMiner
from repro.errors import MapReduceError
from repro.mapreduce import (
    BACKENDS,
    CODECS,
    ClusterConfig,
    Codec,
    CompactCodec,
    Counters,
    DirectoryBlobStore,
    InMemoryBlobStore,
    MapReduceJob,
    MultiHostCluster,
    PersistentProcessPoolCluster,
    ScriptedInjector,
    SimulatedCluster,
    make_cluster,
    make_codec,
    merge_fragments,
    run_map_task,
)
import repro.mapreduce.wire as wire_module
from repro.mapreduce.spill import (
    FragmentReader,
    FragmentStore,
    WireFragment,
    store_payloads,
)
from repro.mapreduce.wire import (
    _T_LIST,
    _T_TUPLE,
    decode_value,
    encode_value,
    read_varint,
    write_varint,
)

from tests.conftest import RUNNING_EXAMPLE_PATEX, StoringSimulatedCluster


# A value strategy matching what jobs actually shuffle: ints (including
# max-fid-sized ones), fid tuples, NFA byte strings, and nested combinations.
def scalars():
    return st.one_of(
        st.integers(min_value=-(2**63), max_value=2**63),
        st.binary(max_size=40),
        st.text(max_size=20),
        st.booleans(),
        st.none(),
        st.floats(allow_nan=False),
    )


def values():
    return st.recursive(
        scalars(),
        lambda inner: st.one_of(
            st.tuples(inner, inner),
            st.lists(inner, max_size=4),
            st.frozensets(st.one_of(st.integers(), st.text(max_size=5)), max_size=4),
        ),
        max_leaves=8,
    )


def payloads():
    keys = st.one_of(
        st.integers(min_value=0, max_value=2**40),
        st.tuples(st.integers(min_value=0, max_value=1000)),
        st.text(max_size=10),
        st.binary(max_size=10),
    )
    return st.dictionaries(keys, st.lists(values(), max_size=5), max_size=8)


class Colour(enum.IntEnum):
    """An ``int`` subclass that is not ``bool``: no tag names it."""

    RED = 3


# ------------------------------------------------------------------- varints
class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**64 + 3])
    def test_round_trip(self, value):
        buffer = bytearray()
        write_varint(buffer, value)
        decoded, offset = read_varint(bytes(buffer), 0)
        assert decoded == value
        assert offset == len(buffer)

    def test_rejects_negative(self):
        with pytest.raises(MapReduceError, match="negative"):
            write_varint(bytearray(), -1)

    def test_truncated(self):
        with pytest.raises(MapReduceError, match="truncated"):
            read_varint(b"\x80", 0)


# -------------------------------------------------------------------- values
class TestValueEncoding:
    @pytest.mark.parametrize(
        "value",
        [
            0,
            -1,
            2**63 - 1,  # max-fid edge case: largest fixed-width fid
            -(2**63),
            (),  # empty sequence
            (1, 2, 3),
            ((1, 2), 3, ()),
            b"",
            b"\x00\xff",
            "",
            "pättern",
            None,
            True,
            False,
            1.5,
            [],
            [1, "two", (3,)],
            frozenset(),
            frozenset({"x", "y", "z"}),
        ],
    )
    def test_round_trip(self, value):
        buffer = bytearray()
        encode_value(buffer, value)
        decoded, offset = decode_value(bytes(buffer), 0)
        assert decoded == value
        assert type(decoded) is type(value)
        assert offset == len(buffer)

    def test_fid_tuples_are_compact(self):
        """A pattern key of small fids costs ~2 bytes per item, not a pickle."""
        buffer = bytearray()
        encode_value(buffer, (1, 2, 3, 4, 5))
        assert len(buffer) <= 2 + 2 * 5

    @pytest.mark.parametrize(
        "value",
        [Colour.RED, (1, Colour.RED), {"pickled": 1}, [object()], frozenset({Colour.RED})],
        ids=repr,
    )
    def test_values_outside_the_tags_are_refused(self, value):
        with pytest.raises(MapReduceError, match="cannot encode a"):
            encode_value(bytearray(), value)

    @pytest.mark.parametrize(
        "payload",
        [{1: [((1, 2), Colour.RED)]}, {1: [((Colour.RED,), 1)]}, {Colour.RED: [1]}],
        ids=repr,
    )
    def test_buckets_holding_them_are_refused(self, payload):
        for name in CODECS:
            with pytest.raises(MapReduceError, match="cannot encode a Colour value"):
                make_codec(name).encode_bucket(payload)

    def test_frozenset_encoding_is_order_independent(self):
        first, second = bytearray(), bytearray()
        encode_value(first, frozenset(["spill", "wire", "codec"]))
        encode_value(second, frozenset(["codec", "wire", "spill"]))
        assert bytes(first) == bytes(second)

    @settings(max_examples=50, deadline=None)
    @given(value=values())
    def test_round_trip_property(self, value):
        buffer = bytearray()
        encode_value(buffer, value)
        decoded, offset = decode_value(bytes(buffer), 0)
        assert decoded == value
        assert offset == len(buffer)


# -------------------------------------------------------------------- codecs
class TestCodecs:
    def test_make_codec(self):
        assert CODECS == ("compact", "zlib")
        assert isinstance(make_codec("compact"), CompactCodec)
        assert make_codec("zlib").name == "zlib"
        assert isinstance(make_codec("compact"), Codec)

    def test_a_codec_is_named_never_handed_over(self):
        """A config and a cluster take a name from CODECS; the cluster builds
        the codec object itself."""
        codec = CompactCodec()
        with pytest.raises(MapReduceError, match="unknown shuffle codec"):
            make_codec(codec)
        with pytest.raises(MapReduceError, match="unknown shuffle codec"):
            ClusterConfig(codec=codec)
        with pytest.raises(MapReduceError, match="unknown shuffle codec"):
            SimulatedCluster(codec=codec)
        assert SimulatedCluster(codec="zlib").codec.name == "zlib"

    @pytest.mark.parametrize("name", ["msgpack", "pickle"])
    def test_unknown_codec(self, name):
        with pytest.raises(MapReduceError, match="unknown shuffle codec"):
            make_codec(name)

    @pytest.mark.parametrize("name", CODECS)
    def test_empty_payload_round_trip(self, name):
        codec = make_codec(name)
        assert codec.decode_bucket(codec.encode_bucket({})) == {}

    @pytest.mark.parametrize("name", CODECS)
    @settings(max_examples=30, deadline=None)
    @given(payload=payloads())
    def test_bucket_round_trip_property(self, name, payload):
        codec = make_codec(name)
        blob = codec.encode_bucket(payload)
        assert codec.decode_bucket(blob) == payload
        assert dict(codec.iter_bucket(blob)) == payload

    def test_encoding_is_deterministic(self):
        payload = {(1, 2): [(3, 4), (5, 6)], (7,): [frozenset({"a", "b"})]}
        for name in CODECS:
            codec = make_codec(name)
            assert codec.encode_bucket(payload) == codec.encode_bucket(payload)

    def test_zlib_compresses_redundant_payloads(self):
        payload = {i: [(1, 2, 3, 4, 5, 6, 7, 8)] * 20 for i in range(20)}
        raw = len(make_codec("compact").encode_bucket(payload))
        compressed = len(make_codec("zlib").encode_bucket(payload))
        assert compressed < raw

    def test_compact_rejects_garbage(self):
        codec = make_codec("compact")
        with pytest.raises(MapReduceError, match="empty wire payload"):
            codec.decode_bucket(b"")
        with pytest.raises(MapReduceError, match="unknown wire header"):
            codec.decode_bucket(b"\x7fgarbage")
        blob = codec.encode_bucket({1: [2]})
        with pytest.raises(MapReduceError, match="trailing bytes"):
            codec.decode_bucket(blob + b"\x00")


class TestInlinedIntElements:
    """Tuple/list elements take an inlined path for small non-negative ints;
    it must write and read exactly what the general path does."""

    @staticmethod
    def general_encoding(value) -> bytes:
        """Element by element through ``encode_value``: never the inlined path."""
        buffer = bytearray()
        if type(value) in (tuple, list):
            buffer.append(_T_TUPLE if type(value) is tuple else _T_LIST)
            write_varint(buffer, len(value))
            for item in value:
                buffer += TestInlinedIntElements.general_encoding(item)
        else:
            encode_value(buffer, value)
        return bytes(buffer)

    def check(self, value):
        buffer = bytearray()
        encode_value(buffer, value)
        assert bytes(buffer) == self.general_encoding(value)
        decoded, offset = decode_value(bytes(buffer), 0)
        assert decoded == value
        assert offset == len(buffer)

    def test_boundaries(self):
        edges = [0, 1, 63, 64, 127, 128, 8191, 8192, 8193, 16383, 16384, -1, -64, -8192]
        self.check(tuple(edges))
        self.check(list(edges))
        self.check((True, 1, False, 0, (1, [2, (3,)]), b"\x00\x01", "1", None, 2.0))
        for edge in edges:
            self.check((edge,))

    @settings(max_examples=200, deadline=None)
    @given(numbers=st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=12))
    def test_every_int_width(self, numbers):
        self.check(tuple(numbers))
        self.check(numbers)

    @settings(max_examples=100, deadline=None)
    @given(
        items=st.lists(
            st.one_of(st.integers(min_value=0, max_value=20_000), values()), max_size=8
        )
    )
    def test_mixed_tuples(self, items):
        self.check(tuple(items))
        self.check((tuple(items), 3))

    def test_non_canonical_varints_decode_like_the_general_path(self):
        # A zero padded to two varint bytes, inside a tuple and on its own.
        assert decode_value(b"\x03\x01\x00\x80\x00", 0) == ((0,), 5)
        assert decode_value(b"\x00\x80\x00", 0) == (0, 3)

    def test_truncated_elements_still_raise(self):
        buffer = bytearray()
        encode_value(buffer, (5, 300, 70_000))
        for length in range(len(buffer)):
            with pytest.raises(MapReduceError):
                decode_value(bytes(buffer[:length]), 0)


def tagged_blob(payload) -> bytes:
    """The replaced layout as a test-side oracle: every group tagged, value by
    value, the way ``CompactCodec.encode_bucket`` wrote all groups before
    uniform ones became columns (raw header, no compression)."""
    buffer = bytearray([0])
    write_varint(buffer, len(payload))
    for key, values in payload.items():
        encode_value(buffer, key)
        write_varint(buffer, len(values))
        for value in values:
            encode_value(buffer, value)
    return bytes(buffer)


def layouts(blob: bytes) -> list[int]:
    """Layout of every key group of a raw blob, in order (0 = tagged)."""
    found = []
    count, offset = read_varint(blob, 1)
    for _ in range(count):
        found.append(blob[offset] >> 4)
        _key, offset = decode_value(blob, offset, 0x0F)
        if found[-1]:
            for _column in range(3):
                size, offset = read_varint(blob, offset)
                offset += size
        else:
            length, offset = read_varint(blob, offset)
            for _ in range(length):
                _value, offset = decode_value(blob, offset)
    assert offset == len(blob)
    return found


def same_types(left, right) -> bool:
    """``type()`` equal element by element (``==`` alone lets ``True == 1``)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        return all(
            same_types(a, b) and same_types(left[a], right[b])
            for a, b in zip(left, right)
        )
    if isinstance(left, (tuple, list)):
        return len(left) == len(right) and all(map(same_types, left, right))
    return True


def fid_tuples():
    return st.lists(st.integers(min_value=0, max_value=0x10FFFF), max_size=12).map(tuple)


def weights():
    return st.one_of(st.integers(1, 3), st.integers(min_value=0, max_value=0x10FFFF))


def uniform_groups():
    """Value lists the encoder writes as columns: one payload kind, weighted."""
    return st.one_of(
        st.lists(st.tuples(fid_tuples(), weights()), min_size=1, max_size=6),
        st.lists(st.tuples(st.binary(max_size=20), weights()), min_size=1, max_size=6),
    )


#: One value each that must send its whole group down the tagged layout.
SPOILERS = (
    (1, 2, 3),  # a bare payload
    (5, 9),  # a bare fid pair: shaped like (payload, weight)
    b"bare",
    ((1, 2), True),  # a bool weight
    ((1, True), 1),  # a bool item
    ((1, -1), 1),
    ((1, 2), -1),
    (b"nfa", -1),
    ((1, 0x110000), 1),  # one past the column code's range
    ((1, 2), 0x110000),
    ((2**64,), 1),
    ((2**70,), 1),
    ((1, 2), 2**70),
    ((1, 2), 1, 0),  # a triple
    ([1, 2], 1),  # a list payload
)


def expected_layout(values) -> int:
    """The documented rule for the encoder's choice, spelled value by value."""

    def number(value):
        return type(value) is int and 0 <= value <= 0x10FFFF

    kinds = set()
    for value in values:
        if type(value) is not tuple or len(value) != 2 or not number(value[1]):
            return 0
        payload = value[0]
        if type(payload) is tuple and not all(map(number, payload)):
            return 0
        kinds.add(type(payload))
    return {tuple: 1, bytes: 2}.get(kinds.pop(), 0) if len(kinds) == 1 else 0


def spoiled_groups():
    def spoil(drawn):
        values, spoiler, position = drawn
        if expected_layout(values + [spoiler]):
            spoiler = spoiler[0]  # a record of the group's own kind: make it bare
        position %= len(values) + 1
        return values[:position] + [spoiler] + values[position:]

    # A well-formed record of the other payload kind spoils a group as well.
    spoilers = SPOILERS + ((b"nfa", 1), ((7,), 1))
    return st.tuples(
        uniform_groups(), st.sampled_from(spoilers), st.integers(min_value=0)
    ).map(spoil)


def column_payloads():
    """Payloads drawn to hit both layouts in one blob."""
    groups = st.one_of(uniform_groups(), spoiled_groups(), st.just([]))
    return st.dictionaries(st.integers(min_value=0, max_value=5000), groups, max_size=6)


class TestColumnGroups:
    """Uniform ``(payload, weight)`` groups travel as columns; the blob decodes
    to the very values the tagged layout carried."""

    @pytest.mark.parametrize("name", CODECS)
    @settings(max_examples=120, deadline=None)
    @given(payload=column_payloads())
    def test_round_trip_keeps_values_order_and_types(self, name, payload):
        codec = make_codec(name)
        decoded = codec.decode_bucket(codec.encode_bucket(payload))
        assert decoded == payload
        assert list(decoded) == list(payload)
        assert same_types(decoded, payload)

    @settings(max_examples=120, deadline=None)
    @given(payload=column_payloads())
    def test_layout_is_a_function_of_the_group_and_the_oracle_agrees(self, payload):
        codec = make_codec("compact")
        blob = codec.encode_bucket(payload)
        expected = [expected_layout(values) for values in payload.values()]
        assert layouts(blob) == expected
        # A blob of the replaced layout still reads, to the same payload.
        old = tagged_blob(payload)
        assert layouts(old) == [0] * len(payload)
        decoded = codec.decode_bucket(old)
        assert decoded == payload and same_types(decoded, payload)
        if not any(expected):
            assert blob == old  # tagged groups are written as they always were

    @settings(max_examples=120, deadline=None)
    @given(groups=st.lists(uniform_groups(), min_size=1, max_size=5))
    def test_the_tagged_oracle_is_never_smaller_on_drawn_uniform_groups(self, groups):
        payload = dict(enumerate(groups))
        blob = make_codec("compact").encode_bucket(payload)
        assert all(layouts(blob))
        assert len(blob) <= len(tagged_blob(payload))

    @pytest.mark.parametrize("number", [0, 63, 64, 127, 128, 2047, 2048, 8191, 8192,
                                        65_535, 65_536, 2**20 - 1, 2**20, 0x10FFFF])
    def test_a_number_never_costs_more_than_tag_plus_zigzag(self, number):
        tagged = bytearray()
        encode_value(tagged, number)
        assert len(chr(number).encode("utf-8", "surrogatepass")) <= len(tagged)

    def test_the_one_group_shape_that_grows(self):
        """Three sized columns against one count: a lone record whose item
        column passes 16 KiB while every item sits where UTF-8 and tag +
        zigzag tie (2,048-8,191 here) is a byte larger; a second record in the
        group pays it back."""
        codec = make_codec("compact")
        lone = {1: [((2048,) * 6000, 1)]}
        assert len(codec.encode_bucket(lone)) == len(tagged_blob(lone)) + 1
        pair = {1: [((2048,) * 6000, 1)] * 2}
        assert len(codec.encode_bucket(pair)) < len(tagged_blob(pair))

    @pytest.mark.parametrize(
        "below, above",
        [(127, 128), (2047, 2048), (0xD7FF, 0xD800), (0xDFFF, 0xE000), (65_535, 65_536)],
    )
    def test_code_boundaries(self, below, above):
        codec = make_codec("compact")
        payload = {
            1: [((below, above, 0), below), ((), above)],
            2: [(bytes(5), above), (b"", below)],
        }
        blob = codec.encode_bucket(payload)
        assert layouts(blob) == [1, 2]
        decoded = codec.decode_bucket(blob)
        assert decoded == payload and same_types(decoded, payload)

    def test_range_end(self):
        codec = make_codec("compact")
        inside = {1: [((0x10FFFF,), 0x10FFFF)], 2: [(b"x", 0x10FFFF)]}
        assert layouts(codec.encode_bucket(inside)) == [1, 2]
        assert codec.decode_bucket(codec.encode_bucket(inside)) == inside
        for outside in (
            {1: [((0x110000,), 1)]},
            {1: [((1,), 0x110000)]},
            {1: [(b"x", 0x110000)]},
        ):
            blob = codec.encode_bucket(outside)
            assert layouts(blob) == [0] and blob == tagged_blob(outside)
            assert codec.decode_bucket(blob) == outside

    @pytest.mark.parametrize("spoiler", SPOILERS, ids=repr)
    def test_one_odd_value_keeps_the_group_tagged(self, spoiler):
        codec = make_codec("compact")
        for values in ([((1, 2), 1), spoiler, ((), 2)], [(b"a", 1), spoiler]):
            blob = codec.encode_bucket({9: values})
            assert layouts(blob) == [0]
            decoded = codec.decode_bucket(blob)
            assert decoded == {9: values} and same_types(decoded, {9: values})

    def test_number_of_varint_calls_does_not_depend_on_the_item_count(self, monkeypatch):
        calls = {"write": 0, "read": 0}
        write, read = wire_module.write_varint, wire_module.read_varint

        def counting_write(buffer, value):
            calls["write"] += 1
            write(buffer, value)

        def counting_read(data, offset):
            calls["read"] += 1
            return read(data, offset)

        monkeypatch.setattr(wire_module, "write_varint", counting_write)
        monkeypatch.setattr(wire_module, "read_varint", counting_read)
        codec = make_codec("compact")
        counted = []
        for records, items in ((2, 5), (100, 100)):
            calls.update(write=0, read=0)
            row = tuple(range(300, 300 + items))
            payload = {7: [(row, 1 + index) for index in range(records)]}
            assert codec.decode_bucket(codec.encode_bucket(payload)) == payload
            counted.append(dict(calls))
        assert counted[0] == counted[1]  # 10 items and 10,000 items
        assert counted[0]["write"] <= 8 and counted[0]["read"] <= 8


#: Where :func:`_sentinel` reports a call (a list of call logs).
PICKLE_SENTINEL: list[list] = []


def _sentinel() -> None:
    for calls in PICKLE_SENTINEL:
        calls.append(1)


class CallsSentinel:
    """Unpickling an instance calls :func:`_sentinel`: a stand-in for a pickle
    that runs arbitrary code."""

    def __reduce__(self):
        return _sentinel, ()


class TestHostilePayloads:
    """``decode_bucket`` reads bytes another process wrote: whatever arrives,
    it returns a payload or raises ``MapReduceError`` — nothing else."""

    PAYLOAD = {
        7: [((1, 2, 300, 70_000), 2), "héllo", b"\x00\x01", frozenset({1, 2}), 1.5],
        "key": [(5, 9000, -1), None, True, [1, (2,)], -5],
        (1, 2): [()],
        # Column groups: weights above 127, an empty tuple, a 0-byte payload.
        11: [((1, 2, 300, 70_000), 200), ((), 1), ((0x10FFFF, 0xD800, 128), 3000)],
        12: [(b"\x00nfa\xff", 130), (b"", 1), (b"\x80" * 5, 70_000)],
    }

    @staticmethod
    def read(codec, blob: bytes):
        try:
            decoded = codec.decode_bucket(blob)
        except MapReduceError:
            return None
        assert isinstance(decoded, dict)
        return decoded

    @pytest.mark.parametrize("name", ("compact", "zlib"))
    def test_every_truncation_bit_flip_and_random_bytes(self, name):
        codec = make_codec(name)
        blob = codec.encode_bucket(self.PAYLOAD)
        assert self.read(codec, blob) == self.PAYLOAD
        for length in range(len(blob)):
            self.read(codec, blob[:length])
        with pytest.raises(MapReduceError):
            codec.decode_bucket(blob[:-1])
        for position in range(len(blob)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[position] ^= 1 << bit
                self.read(codec, bytes(flipped))
        rng = random.Random(15)
        for _ in range(3000):
            body = bytes(rng.randrange(256) for _ in range(rng.randrange(1, len(blob))))
            self.read(codec, bytes([rng.randrange(2)]) + body)

    def test_a_pickle_tag_is_never_unpickled(self):
        """Tag 10 once carried a pickle; a blob planted in a shared blob
        directory could run code in the reduce worker that read it."""
        calls = []
        PICKLE_SENTINEL.append(calls)
        try:
            planted = pickle.dumps(CallsSentinel())
            body = bytearray([0, 1, 0, 2, 1, 10])  # raw, 1 group, key 1, 1 value, tag 10
            write_varint(body, len(planted))
            blob = bytes(body) + planted
            with pytest.raises(MapReduceError, match="unknown wire tag 10"):
                make_codec("compact").decode_bucket(blob)
            pickle.loads(planted)  # the planted bytes do run the sentinel
            assert calls == [1]
        finally:
            PICKLE_SENTINEL.clear()

    def test_the_payload_exercises_both_layouts(self):
        assert layouts(make_codec("compact").encode_bucket(self.PAYLOAD)) == [0, 0, 0, 1, 2]

    def test_named_hazards(self):
        # Tagged groups are written byte for byte as before the column layout
        # (layout 0 in the key byte's high nibble *is* the old key byte), so
        # these hand-written blobs are still what the encoder would produce.
        codec = make_codec("compact")
        hazards = {
            "malformed string": b"\x00\x01\x02\x01\xff\x00",
            "malformed zlib": b"\x01not a zlib stream",
            "unhashable key": b"\x00\x01\x04\x00\x00",
            "unhashable frozenset member": b"\x00\x01\x00\x02\x01\x08\x01\x04\x00",
            "nests too deeply": b"\x00\x01" + b"\x03\x01" * 5000,
        }
        for message, blob in hazards.items():
            with pytest.raises(MapReduceError, match=message) as caught:
                codec.decode_bucket(blob)
            assert caught.value.__cause__ is not None, message

    #: ``raw header, one group, int key 1 under layout 1 / 2`` — what every
    #: hand-written column group below starts with.
    TUPLES = b"\x00\x01\x10\x02"
    BYTES = b"\x00\x01\x20\x02"

    def test_well_formed_hand_written_column_groups(self):
        codec = make_codec("compact")
        lengths_weights = b"\x02\x02\x00" + b"\x03\x01\xc2\x82"  # (2, 0), (1, 130)
        assert codec.decode_bucket(self.TUPLES + lengths_weights + b"\x03\x05\xc4\xac") == {
            1: [((5, 300), 1), ((), 130)]
        }
        assert codec.decode_bucket(self.BYTES + lengths_weights + b"\x02\xff\x00") == {
            1: [(b"\xff\x00", 1), (b"", 130)]
        }

    def test_named_column_hazards(self):
        codec = make_codec("compact")
        one = b"\x01\x01"  # a column holding the single number 1
        huge = b"\xff\xff\xff\xff\xff\xff\xff\xff\x3f"  # varint 2**62 - 1
        hazards = [
            # (message, blob, kept cause)
            ("lengths sum to 2, payload column holds 1", self.TUPLES + b"\x01\x02" + one + one, None),
            ("lengths sum to 1, payload column holds 3", self.BYTES + one + one + b"\x03abc", None),
            ("2 weights for 1 lengths", self.TUPLES + one + b"\x02\x01\x01" + one, None),
            ("0 weights for 1 lengths", self.BYTES + one + b"\x00" + b"\x01a", None),
            ("lengths column of 4611686018427387903 bytes runs past the end", self.TUPLES + huge, None),
            ("weights column of 5 bytes runs past the end", self.TUPLES + one + b"\x05\x01", None),
            ("payload column of 4611686018427387903 bytes runs past", self.BYTES + one + one + huge + b"a", None),
            ("truncated varint", self.TUPLES + one + one, None),  # no payload column at all
            # Overlong, truncated, out-of-range, stray continuation, 5-byte form.
            ("malformed code in lengths column", self.TUPLES + b"\x02\xc0\x81" + one + one, UnicodeDecodeError),
            ("malformed code in weights column", self.TUPLES + one + b"\x01\xe2" + one, UnicodeDecodeError),
            ("malformed code in payload column", self.TUPLES + one + one + b"\x04\xf4\x90\x80\x80", UnicodeDecodeError),
            ("malformed code in payload column", self.TUPLES + one + one + b"\x01\x80", UnicodeDecodeError),
            ("malformed code in weights column", self.BYTES + one + b"\x05\xf8\x88\x80\x80\x80" + b"\x01a", UnicodeDecodeError),
            ("unknown group layout 3", b"\x00\x01\x30\x02" + one + one + one, None),
            ("unknown group layout 15", b"\x00\x01\xf0\x02\x00", None),
            ("unknown wire tag 11", b"\x00\x01\x1b\x02" + one + one + one, None),  # key tag, layout masked off
            ("unknown wire tag 10", b"\x00\x01\x00\x02\x01\x0a\x01\x2e", None),  # the old pickle tag
            ("trailing bytes", self.TUPLES + one + one + one + b"\x00", None),
        ]
        for message, blob, cause in hazards:
            with pytest.raises(MapReduceError, match=message) as caught:
                codec.decode_bucket(blob)
            if cause is None:
                assert caught.value.__cause__ is None, message
            else:
                assert isinstance(caught.value.__cause__, cause), message

    def test_a_tagged_body_under_a_column_flag_is_refused(self):
        """The layout lives in the key byte and a column group has no value
        count, so "a layout flag on a group that also declares tagged values"
        is not a state the grammar can spell; what can arrive is a tagged body
        whose key byte claims columns, and the column checks refuse it."""
        codec = make_codec("compact")
        for values in ([5, 6], [((1, 2), 1)], [(b"nfa", 1)], [((1, 2), 1)] * 3, []):
            blob = bytearray(tagged_blob({1: values}))
            assert codec.decode_bucket(bytes(blob)) == {1: values}
            for layout in (1, 2):
                blob[2] = layout << 4
                with pytest.raises(MapReduceError):
                    codec.decode_bucket(bytes(blob))


# --------------------------------------------------------------------- spill
def in_memory_fragment_store() -> FragmentStore:
    return FragmentStore(InMemoryBlobStore(), "job")


class TestSpill:
    def encoded(self, codec, payloads_by_bucket):
        for index, payload in sorted(payloads_by_bucket.items()):
            blob = codec.encode_bucket(payload)
            yield index, blob, sum(len(v) for v in payload.values())

    def test_without_a_store_every_payload_is_inline(self):
        codec = make_codec("compact")
        fragments, stats = store_payloads(self.encoded(codec, {0: {1: [2]}, 3: {4: [5]}}))
        assert all(f.data is not None and f.blob_key is None for _, f in fragments)
        assert stats == Counters(wire_bytes=sum(f.wire_bytes for _, f in fragments))

    def test_a_store_takes_every_payload(self):
        codec = make_codec("compact")
        namespace = in_memory_fragment_store()
        fragments, stats = store_payloads(
            self.encoded(codec, {0: {1: [2]}, 3: {4: [5]}}), fragment_store=namespace
        )
        assert all(f.data is None and f.blob_key.startswith("job/") for _, f in fragments)
        assert stats.blob_put_count == namespace.blobs.puts == 2
        assert stats.blob_put_bytes == stats.wire_bytes == sum(
            f.wire_bytes for _, f in fragments
        )
        # Stored fragments read back exactly what was encoded.
        merged = merge_fragments(
            [fragment for _, fragment in fragments], codec, FragmentReader(namespace.blobs)
        )
        assert merged == {1: [2], 4: [5]}

    def test_the_positional_slot_takes_only_none(self):
        """The benchmark replay calls ``store_payloads(encoded, None, None)``;
        any in-memory budget in that slot is refused."""
        codec = make_codec("compact")
        fragments, _stats = store_payloads(self.encoded(codec, {0: {1: [2]}}), None, None)
        assert fragments[0][1].data is not None
        for budget in (0, 1 << 20):
            with pytest.raises(TypeError, match="no in-memory budget"):
                store_payloads(self.encoded(codec, {0: {1: [2]}}), budget)

    def test_fragment_read_detects_truncation(self):
        """The reader checks every fetched payload against its fragment's length."""
        store = InMemoryBlobStore()
        store.put("job/k", b"abc")
        fragment = WireFragment(records=1, wire_bytes=10, blob_key="job/k")
        with pytest.raises(MapReduceError, match="'job/k' is 3 bytes, expected 10"):
            FragmentReader(store).read(fragment)

    def test_a_stored_payload_truncated_on_disk_is_refused(self, tmp_path):
        codec = make_codec("compact")
        namespace = FragmentStore(DirectoryBlobStore(str(tmp_path)), "job")
        fragments, _stats = store_payloads(
            self.encoded(codec, {0: {1: [2, 3, 4]}}), fragment_store=namespace
        )
        (_index, fragment), = fragments
        stored = tmp_path / fragment.blob_key
        stored.write_bytes(stored.read_bytes()[:-1])
        with pytest.raises(MapReduceError, match=fragment.blob_key):
            merge_fragments([fragment], codec, FragmentReader(namespace.blobs))

    def test_map_task_reports_store_accounting(self):
        class Pairs(MapReduceJob):
            def map(self, record):
                yield record % 5, record

        namespace = in_memory_fragment_store()
        result = run_map_task(
            Pairs(), list(range(50)), num_reduce_tasks=5, codec=make_codec("zlib"),
            fragment_store=namespace,
        )
        counters = result.counters
        assert counters.blob_put_count == len(result.buckets) == namespace.blobs.puts > 0
        assert counters.blob_put_bytes == counters.wire_bytes > 0

    def test_cluster_cleans_up_spill_files(self, tmp_path):
        class Pairs(MapReduceJob):
            def map(self, record):
                yield record % 5, record

            def reduce(self, key, values):
                yield key, sorted(values)

        cluster = StoringSimulatedCluster(num_workers=2, spill_dir=str(tmp_path))
        result = cluster.run(Pairs(), list(range(50)))
        assert result.metrics.blob_put_count > 0
        assert result.metrics.blob_put_bytes == result.metrics.wire_bytes
        assert list(tmp_path.iterdir()) == []  # the run directory went with its blobs

    def test_spill_files_removed_when_a_map_task_fails(self, tmp_path):
        """A failing map task must not strand completed tasks' stored payloads."""

        class Explodes(MapReduceJob):
            def map(self, record):
                if record == "boom":
                    raise ValueError("boom")
                yield record, 1

            def reduce(self, key, values):
                yield key, sum(values)

        cluster = StoringSimulatedCluster(num_workers=2, spill_dir=str(tmp_path))
        # Two chunks: the first stores its buckets, the second raises.
        with pytest.raises(ValueError, match="boom"):
            cluster.run(Explodes(), ["a", "b", "boom", "boom"])
        assert list(tmp_path.iterdir()) == []


# Module-level (picklable) jobs for the worker-failure cleanup tests.
class ExplodingMapperJob(MapReduceJob):
    """Shuffles per-bucket payloads, then blows up on a marker record."""

    def map(self, record):
        if record == (0,):
            raise ValueError("mapper boom")
        yield record[0] % 3, record

    def reduce(self, key, values):
        yield key, sorted(values)


class ExplodingReducerJob(MapReduceJob):
    """Map shuffles normally; every reduce task raises mid-stage."""

    def map(self, record):
        yield record[0] % 3, record

    def reduce(self, key, values):
        raise ValueError("reducer boom")


#: Fid-sequence records usable on every backend (incl. the store-backed one).
FAILURE_RECORDS = [(index, index + 1) for index in range(1, 25)]


#: Every backend, and ``simulated`` with every payload in the fragment store.
CLEANUP_CLUSTERS = {
    **{name: partial(make_cluster, name) for name in BACKENDS},
    "simulated-stored": StoringSimulatedCluster,
}


@pytest.mark.usefixtures("no_new_shm_entries")
class TestSpillCleanupOnWorkerFailure:
    """A run must leave nothing behind, whether it succeeds, a worker task
    raises mid-stage, or a host dies.

    Everything a run writes — the published input store and a private
    fragment store — lives in one run directory that the driver removes
    after the executor scope has joined every worker task, so even tasks that
    were already running when another task failed cannot recreate files
    behind the cleanup's back.  Nothing goes to ``/dev/shm``.
    """

    def make_cluster(self, backend, tmp_path):
        return CLEANUP_CLUSTERS[backend](num_workers=2, spill_dir=str(tmp_path))

    @pytest.mark.parametrize("backend", CLEANUP_CLUSTERS)
    def test_failing_reducer_leaves_no_spill_files(self, backend, tmp_path):
        cluster = self.make_cluster(backend, tmp_path)
        with pytest.raises(ValueError, match="reducer boom"):
            cluster.run(ExplodingReducerJob(), FAILURE_RECORDS)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("backend", CLEANUP_CLUSTERS)
    def test_failing_mapper_leaves_no_spill_files(self, backend, tmp_path):
        cluster = self.make_cluster(backend, tmp_path)
        with pytest.raises(ValueError, match="mapper boom"):
            cluster.run(ExplodingMapperJob(), FAILURE_RECORDS + [(0,)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("backend", CLEANUP_CLUSTERS)
    def test_cluster_is_reusable_after_a_failed_run(self, backend, tmp_path):
        """The failure cleans up without corrupting the cluster instance."""
        cluster = self.make_cluster(backend, tmp_path)
        with pytest.raises(ValueError, match="reducer boom"):
            cluster.run(ExplodingReducerJob(), FAILURE_RECORDS)
        result = cluster.run(ExplodingMapperJob(), FAILURE_RECORDS)
        assert (result.metrics.blob_put_count > 0) == cluster.stores_every_payload
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cluster_class", (PersistentProcessPoolCluster, MultiHostCluster))
    def test_host_death_leaves_no_files(self, cluster_class, tmp_path):
        """A worker process exiting mid-map breaks the pool; with no retry
        the run fails, and its run directory still goes."""
        cluster = cluster_class(
            num_workers=2,
            spill_dir=str(tmp_path),
            max_task_attempts=1,
            fault_injector=ScriptedInjector(kill_map_task=0, kill_mode="exit"),
        )
        with pytest.raises(BrokenExecutor):
            cluster.run(ExplodingReducerJob(), FAILURE_RECORDS)
        assert list(tmp_path.iterdir()) == []


class TestFragmentStoreCounters:
    """A cluster with a fragment store puts every payload into it, so the blob
    counters account for the whole wire; the inline backends touch none."""

    @pytest.mark.parametrize("backend", ("simulated-stored", "multihost"))
    def test_stored_runs_put_every_payload(self, backend, tmp_path):
        cluster = CLEANUP_CLUSTERS[backend](num_workers=2, spill_dir=str(tmp_path))
        metrics = cluster.run(ExplodingMapperJob(), FAILURE_RECORDS).metrics
        assert metrics.blob_put_count > 0
        assert metrics.blob_put_bytes == metrics.wire_bytes
        assert 0 < metrics.blob_get_bytes <= metrics.blob_put_bytes
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("backend", ("simulated", "persistent-processes"))
    def test_inline_runs_touch_no_store(self, backend, tmp_path):
        cluster = make_cluster(backend, num_workers=2, spill_dir=str(tmp_path))
        metrics = cluster.run(ExplodingMapperJob(), FAILURE_RECORDS).metrics
        assert (
            metrics.blob_put_count,
            metrics.blob_put_bytes,
            metrics.blob_get_count,
            metrics.blob_get_bytes,
        ) == (0, 0, 0, 0)


# ---------------------------------------------------------- miner equivalence
MINER_FACTORIES = {
    "dseq": DSeqMiner,
    "dcand": DCandMiner,
    "naive": NaiveMiner,
}


class TestMinersAcrossCodecsAndBackends:
    """Acceptance: identical patterns and identical measured wire bytes on
    every backend for the same codec, with and without the fragment store."""

    @pytest.fixture(scope="class")
    def reference(self, ex_dictionary, ex_database):
        results = {}
        for name, factory in MINER_FACTORIES.items():
            miner = factory(
                RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=ClusterConfig(num_workers=2)
            )
            results[name] = miner.mine(ex_database)
        return results

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("codec", CODECS)
    def test_wire_bytes_identical_across_backends(
        self, backend, codec, ex_dictionary, ex_database
    ):
        expected = {
            name: factory(
                RUNNING_EXAMPLE_PATEX, 2, ex_dictionary,
                cluster=ClusterConfig(codec=codec, num_workers=2),
            ).mine(ex_database)
            for name, factory in MINER_FACTORIES.items()
        }
        for name, factory in MINER_FACTORIES.items():
            miner = factory(
                RUNNING_EXAMPLE_PATEX, 2, ex_dictionary,
                cluster=ClusterConfig(backend=backend, codec=codec, num_workers=2),
            )
            result = miner.mine(ex_database)
            assert result.patterns() == expected[name].patterns(), name
            assert result.metrics.wire_bytes == expected[name].metrics.wire_bytes, name
            assert result.metrics.wire_bytes > 0, name

    def test_storing_every_payload_does_not_change_results(
        self, reference, ex_dictionary, ex_database, tmp_path
    ):
        """Every bucket goes to disk in process; results are unchanged."""
        for name, factory in MINER_FACTORIES.items():
            cluster = StoringSimulatedCluster(num_workers=2, spill_dir=str(tmp_path))
            result = factory(
                RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=ClusterConfig(backend=cluster)
            ).mine(ex_database)
            assert result.patterns() == reference[name].patterns(), name
            assert result.metrics.wire_bytes == reference[name].metrics.wire_bytes, name
            assert result.metrics.blob_put_bytes == result.metrics.wire_bytes > 0, name
            assert list(tmp_path.iterdir()) == []  # every run directory cleaned up

