"""Tests for the zero-copy encoded sequence store (:mod:`repro.sequences.store`).

Round-trip and slicing over the block (including the edge cases that bite
binary formats — empty databases, empty and single-item sequences, fids beyond
2**63, chunk boundaries landing mid-block), the publish/attach lifecycle of the
store file that workers map, the integration pieces the persistent backend
relies on (descriptor resolution, per-process attach cache, database store
caching), and the representation itself, pinned without a clock: item-width
boundaries, a canonical ``content_hash()``, hostile blocks, and counters
showing that no per-item Python call is left on the path of a store that fits
64 bits.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import struct
import threading
from array import array
from multiprocessing import resource_tracker

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary import Dictionary, Item
from repro.errors import UnknownItemError
from repro.mapreduce.base import split_ranges, split_records
from repro.varint import read_varint, write_varint
from repro.sequences import (
    EncodedSequenceStore,
    SequenceDatabase,
    SequenceStoreError,
    StoreChunk,
    StoreSlice,
    WeightedSequence,
    as_encoded_store,
    as_mining_records,
    attach_store,
    detach_store,
    fold_weighted_values,
    record_parts,
    resolve_chunk,
    weighted_value_parts,
)

#: Databases exercising the format's edge cases.
EDGE_CASE_DATABASES = [
    [],  # empty database
    [[]],  # a single empty sequence
    [[], [], []],  # only empty sequences
    [[1]],  # single single-item sequence
    [[1], [2], [3]],  # single-item sequences
    [[0]],  # fid 0 (ε) round-trips even though databases never store it
    [[2**63], [2**63 - 1, 2**63 + 1], [2**70 + 7]],  # fids ≥ 2**63
    [[1, 2, 3], [], [4], [5, 6], []],  # empties interleaved mid-block
    [list(range(1, 130))],  # multi-byte varints (fids ≥ 128)
]


def sequences_strategy():
    return st.lists(
        st.lists(
            st.integers(min_value=0, max_value=2**70),
            max_size=12,
        ),
        max_size=25,
    )


class TestRoundTrip:
    @pytest.mark.parametrize("sequences", EDGE_CASE_DATABASES)
    def test_edge_cases(self, sequences):
        store = EncodedSequenceStore.from_sequences(sequences)
        assert len(store) == len(sequences)
        assert list(store) == [tuple(sequence) for sequence in sequences]
        for index, sequence in enumerate(sequences):
            assert store[index] == tuple(sequence)

    @settings(max_examples=60, deadline=None)
    @given(sequences=sequences_strategy())
    def test_round_trip_property(self, sequences):
        store = EncodedSequenceStore.from_sequences(sequences)
        assert store.sequences() == [tuple(sequence) for sequence in sequences]

    def test_negative_indexing(self):
        store = EncodedSequenceStore.from_sequences([[1], [2, 3], [4]])
        assert store[-1] == (4,)
        assert store[-3] == (1,)
        with pytest.raises(IndexError):
            store[3]
        with pytest.raises(IndexError):
            store[-4]

    def test_rejects_non_fid_records(self):
        with pytest.raises(SequenceStoreError, match="non-negative integers"):
            EncodedSequenceStore.from_sequences([["a", "b"]])
        with pytest.raises(SequenceStoreError, match="negative"):
            EncodedSequenceStore.from_sequences([[-1]])
        # No silent coercion: floats and digit strings would round-trip as
        # *different* values, breaking backend equivalence — reject them.
        with pytest.raises(SequenceStoreError, match="non-negative integers"):
            EncodedSequenceStore.from_sequences([[1.9]])
        with pytest.raises(SequenceStoreError, match="non-negative integers"):
            EncodedSequenceStore.from_sequences(["37"])
        # bool is an int subtype; it stores as its integer value.
        assert EncodedSequenceStore.from_sequences([[True]]).sequences() == [(1,)]

    def test_rejects_garbage_blocks(self):
        with pytest.raises(SequenceStoreError, match="too small"):
            EncodedSequenceStore(b"short")
        with pytest.raises(SequenceStoreError, match="bad store magic"):
            EncodedSequenceStore(b"NOTSTORE" + b"\x00" * 24)
        good = EncodedSequenceStore.from_sequences([[1, 2], [3]])
        block = pickle.loads(pickle.dumps(good))._block  # round-trip the bytes
        with pytest.raises(SequenceStoreError, match="truncated store block"):
            EncodedSequenceStore(bytes(block)[:-1])

    def test_pickle_ships_the_flat_block(self):
        store = EncodedSequenceStore.from_sequences([[1, 2], [2**64]])
        clone = pickle.loads(pickle.dumps(store))
        assert clone.sequences() == store.sequences()
        assert clone.nbytes == store.nbytes


class TestSlicing:
    def test_slice_is_a_zero_copy_view(self):
        store = EncodedSequenceStore.from_sequences([[1], [2, 2], [3], [4, 4]])
        view = store[1:3]
        assert isinstance(view, StoreSlice)
        assert view.store is store
        assert list(view) == [(2, 2), (3,)]
        assert view[0] == (2, 2)
        assert view[-1] == (3,)
        assert len(view) == 2

    def test_slice_of_slice_and_errors(self):
        store = EncodedSequenceStore.from_sequences([[i] for i in range(1, 9)])
        view = store[2:7]
        inner = view[1:3]
        assert list(inner) == [(4,), (5,)]
        with pytest.raises(IndexError):
            view[5]
        with pytest.raises(SequenceStoreError, match="contiguous"):
            store[::2]
        with pytest.raises(SequenceStoreError, match="contiguous"):
            view[::-1]

    def test_slice_pickles_as_a_materialized_list(self):
        store = EncodedSequenceStore.from_sequences([[1], [2, 2], [3]])
        shipped = pickle.loads(pickle.dumps(store[0:2]))
        assert shipped == [(1,), (2, 2)]

    @settings(max_examples=60, deadline=None)
    @given(sequences=sequences_strategy(), data=st.data())
    def test_any_slice_matches_materialized_slicing(self, sequences, data):
        """Chunk boundaries landing anywhere mid-block decode correctly."""
        store = EncodedSequenceStore.from_sequences(sequences)
        materialized = [tuple(sequence) for sequence in sequences]
        start = data.draw(st.integers(min_value=0, max_value=len(sequences)))
        stop = data.draw(st.integers(min_value=0, max_value=len(sequences)))
        assert list(store.slice(start, stop)) == materialized[start:stop]

    @settings(max_examples=40, deadline=None)
    @given(
        sequences=sequences_strategy(),
        parts=st.integers(min_value=1, max_value=9),
    )
    def test_split_ranges_tile_the_store_like_split_records(self, sequences, parts):
        """The persistent backend's chunking matches the generic driver's.

        Identical chunk boundaries — even when they land mid-sequence-run —
        are what make combiner output and wire bytes byte-identical across
        backends.
        """
        store = EncodedSequenceStore.from_sequences(sequences)
        materialized = [tuple(sequence) for sequence in sequences]
        ranges = split_ranges(len(store), parts)
        chunks = [chunk for chunk in split_records(materialized, parts) if len(chunk)]
        assert [list(store.iter_range(start, stop)) for start, stop in ranges] == [
            list(chunk) for chunk in chunks
        ]
        # Ranges tile [0, len) without gaps or overlaps.
        position = 0
        for start, stop in ranges:
            assert start == position
            assert stop > start
            position = stop
        assert position == len(store)


class TestPublishAttach:
    @pytest.mark.parametrize(
        "sequences", [[], [[1, 2, 3], [2**63 + 9], []], [[7] * 40] * 11]
    )
    def test_attach_round_trip(self, sequences, tmp_path):
        store = EncodedSequenceStore.from_sequences(sequences)
        handle, release = store.publish(str(tmp_path))
        try:
            attached = EncodedSequenceStore.attach(handle)
            assert attached.sequences() == store.sequences()
            assert attached.nbytes == store.nbytes
            attached.close()
        finally:
            release()
        assert list(tmp_path.iterdir()) == []  # the store file is gone

    def test_release_removes_the_file(self):
        store = EncodedSequenceStore.from_sequences([[1, 2]])
        handle, release = store.publish()
        EncodedSequenceStore.attach(handle).close()
        release()
        with pytest.raises(SequenceStoreError, match="cannot attach"):
            EncodedSequenceStore.attach(handle)

    def test_publish_writes_one_file_then_release_removes_it(self, tmp_path):
        store = EncodedSequenceStore.from_sequences([[5, 6], [7]])
        handle, release = store.publish(str(tmp_path))
        assert os.path.dirname(handle.name) == str(tmp_path)
        assert os.path.getsize(handle.name) == store.nbytes
        release()
        assert not os.path.exists(handle.name)

    def test_attach_cache_is_per_handle(self):
        store = EncodedSequenceStore.from_sequences([[1], [2]])
        handle, release = store.publish()
        try:
            first = attach_store(handle)
            second = attach_store(handle)
            assert first is second
            chunk = StoreChunk(handle, 1, 2)
            assert len(chunk) == 1
            view = resolve_chunk(chunk)
            assert view.store is first
            assert list(view) == [(2,)]
            detach_store(handle)
            third = attach_store(handle)
            assert third is not first
            detach_store(handle)
        finally:
            release()
        detach_store(handle)  # idempotent after release

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_a_child_forked_while_the_resource_tracker_is_busy_still_attaches(self):
        """A worker forked while another thread holds the resource tracker's
        lock inherits it held; an attach that registered anything with the
        tracker would wait on it forever."""
        store = EncodedSequenceStore.from_sequences([[1, 2], [3]])
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        held, forked = threading.Event(), threading.Event()

        def hold_the_tracker_lock() -> None:
            with resource_tracker._resource_tracker._lock:
                held.set()
                forked.wait(30)

        handle, release = store.publish()
        try:
            holder = threading.Thread(target=hold_the_tracker_lock)
            holder.start()
            try:
                assert held.wait(30)
                child = context.Process(target=report_attached, args=(handle, sender))
                child.start()
            finally:
                forked.set()
                holder.join()
            try:
                assert receiver.poll(30), "the forked child never attached the store"
                assert receiver.recv() == [(1, 2), (3,)]
            finally:
                child.kill()
                child.join()
        finally:
            release()


def report_attached(handle, connection) -> None:
    connection.send(attach_store(handle).sequences())


class TestDatabaseIntegration:
    def test_encoded_store_is_cached_until_append(self):
        database = SequenceDatabase([(1, 2), (3,)])
        store = database.encoded_store()
        assert database.encoded_store() is store
        database.append((4, 5))
        rebuilt = database.encoded_store()
        assert rebuilt is not store
        assert rebuilt.sequences() == [(1, 2), (3,), (4, 5)]

    def test_database_pickle_drops_the_store_cache(self):
        database = SequenceDatabase([(1, 2)])
        database.encoded_store()
        clone = pickle.loads(pickle.dumps(database))
        assert clone._store is None
        assert clone.sequences() == database.sequences()

    def test_as_encoded_store_coercions(self):
        database = SequenceDatabase([(1,), (2, 3)])
        assert as_encoded_store(database) is database.encoded_store()
        store = database.encoded_store()
        assert as_encoded_store(store) is store
        assert as_encoded_store(store[0:2]) is store  # full-range slice
        partial = as_encoded_store(store[1:2])
        assert partial.sequences() == [(2, 3)]
        packed = as_encoded_store([(4, 5), (6,)])
        assert packed.sequences() == [(4, 5), (6,)]



class TestUniqueView:
    """The corpus-level dedup pass: ``unique_view`` and weighted blocks."""

    def test_groups_identical_sequences_in_first_occurrence_order(self):
        store = EncodedSequenceStore.from_sequences(
            [[3, 1], [2], [3, 1], [], [2], [3, 1]]
        )
        unique = store.unique_view()
        assert unique.weighted
        assert list(unique) == [
            WeightedSequence((3, 1), 3),
            WeightedSequence((2,), 2),
            WeightedSequence((), 1),
        ]
        # Total weight is preserved: the view is a lossless regrouping.
        assert sum(weight for _sequence, weight in unique) == len(store)

    def test_view_is_cached_on_the_store(self):
        store = EncodedSequenceStore.from_sequences([[1], [1]])
        assert store.unique_view() is store.unique_view()

    def test_weighted_input_folds_existing_multiplicities(self):
        weighted = EncodedSequenceStore.from_weighted_sequences(
            [((1, 2), 3), ((4,), 1), ((1, 2), 2)]
        )
        unique = weighted.unique_view()
        assert list(unique) == [
            WeightedSequence((1, 2), 5),
            WeightedSequence((4,), 1),
        ]

    @settings(max_examples=60, deadline=None)
    @given(sequences=sequences_strategy())
    def test_weights_account_for_every_record(self, sequences):
        store = EncodedSequenceStore.from_sequences(sequences)
        unique = store.unique_view()
        counts: dict[tuple, int] = {}
        for sequence in map(tuple, sequences):
            counts[sequence] = counts.get(sequence, 0) + 1
        assert {record.sequence: record.weight for record in unique} == counts
        assert len(unique) == len(counts)

    def test_empty_store_unique_view(self):
        unique = EncodedSequenceStore.from_sequences([]).unique_view()
        assert len(unique) == 0 and unique.weighted

    def test_weighted_blocks_round_trip_through_pickle_and_publish(self):
        unique = EncodedSequenceStore.from_sequences(
            [[1, 2], [1, 2], [9]]
        ).unique_view()
        clone = pickle.loads(pickle.dumps(unique))
        assert list(clone) == list(unique)
        handle, release = unique.publish()
        try:
            attached = EncodedSequenceStore.attach(handle)
            try:
                assert list(attached) == list(unique)
                assert attached.weighted
            finally:
                attached.close()
        finally:
            release()

    def test_weighted_slices_and_chunks_decode_weighted_records(self):
        unique = EncodedSequenceStore.from_sequences(
            [[1], [1], [2], [3], [3], [3]]
        ).unique_view()
        view = unique.slice(1, 3)
        assert list(view) == [WeightedSequence((2,), 1), WeightedSequence((3,), 3)]
        assert view[1] == WeightedSequence((3,), 3)

    def test_record_parts_normalizes_both_shapes(self):
        assert record_parts((1, 2, 3)) == ((1, 2, 3), 1)
        assert record_parts([4, 5]) == ((4, 5), 1)
        assert record_parts(WeightedSequence((1, 2), 7)) == ((1, 2), 7)

    def test_weighted_value_parts_disambiguates_map_outputs(self):
        # A bare 2-item representation (two ints) is NOT a weighted pair.
        assert weighted_value_parts((3, 5)) == ((3, 5), 1)
        assert weighted_value_parts(()) == ((), 1)
        assert weighted_value_parts(((3, 5), 2)) == ((3, 5), 2)
        assert weighted_value_parts(((), 4)) == ((), 4)
        assert weighted_value_parts(b"nfa") == (b"nfa", 1)
        assert weighted_value_parts((b"nfa", 6)) == (b"nfa", 6)

    def test_fold_weighted_values_keeps_first_occurrence_order(self):
        values = [(1, 2), ((3,), 4), (1, 2), (3,), ((1, 2), 5)]
        assert fold_weighted_values(values) == {(1, 2): 7, (3,): 5}
        assert list(fold_weighted_values(values)) == [(1, 2), (3,)]

    def test_negative_weights_are_rejected(self):
        with pytest.raises(SequenceStoreError, match="weight"):
            EncodedSequenceStore.from_weighted_sequences([((1,), -2)])

    def test_as_mining_records_is_the_unique_view(self):
        database = SequenceDatabase([[1, 2], [1, 2], [5]])
        with pytest.raises(TypeError):
            as_mining_records(database, dedup=False)
        deduped = as_mining_records(database)
        assert isinstance(deduped, EncodedSequenceStore)
        assert list(deduped) == [
            WeightedSequence((1, 2), 2),
            WeightedSequence((5,), 1),
        ]
        # The database's cached store backs the view: no re-encoding.
        assert as_mining_records(database) is deduped


#: Largest item of a store -> the item width its block must have (0: LEB128).
WIDTH_BOUNDARIES = [
    (255, 1),
    (256, 2),
    (65_535, 2),
    (65_536, 4),
    (2**32 - 1, 4),
    (2**32, 8),
    (2**64 - 1, 8),
    (2**64, 0),
]


def header_of(block) -> tuple:
    """``(magic, count, width, data size)`` as the module docstring lays it out."""
    return struct.unpack_from("=8sQQQ", getattr(block, "_block", block))


class TestItemWidth:
    """The width is the narrowest that fits, computed from the records alone."""

    @pytest.mark.parametrize("largest, width", WIDTH_BOUNDARIES)
    def test_boundaries_round_trip_everywhere(self, largest, width, tmp_path):
        sequences = [(1, 2), (), (largest, 7), (3,), (largest,)]
        store = EncodedSequenceStore.from_sequences(sequences)
        _magic, count, stored_width, data_size = header_of(store)
        assert (count, stored_width) == (5, width)
        if width:
            assert data_size == 6 * width
        assert store.sequences() == sequences
        assert list(store.slice(2, 4)) == sequences[2:4]
        assert store[-1] == (largest,)
        assert pickle.loads(pickle.dumps(store)).sequences() == sequences
        handle, release = store.publish(str(tmp_path))
        try:
            attached = EncodedSequenceStore.attach(handle)
            try:
                assert attached.sequences() == sequences
                assert attached.content_hash() == store.content_hash()
            finally:
                attached.close()
        finally:
            release()
        unique = store.unique_view()
        assert header_of(unique)[2] == width  # the view keeps its parent's width
        assert [record.sequence for record in unique] == [
            (1, 2), (), (largest, 7), (3,), (largest,)
        ]

    def test_width_does_not_depend_on_where_the_largest_item_sits(self):
        early = EncodedSequenceStore.from_sequences([[70_000], [300], [1]])
        late = EncodedSequenceStore.from_sequences([[1], [300], [70_000]])
        assert header_of(early)[2] == header_of(late)[2] == 4
        assert late.sequences() == [(1,), (300,), (70_000,)]
        assert header_of(EncodedSequenceStore.from_sequences([]))[2] == 1
        assert header_of(EncodedSequenceStore.from_sequences([[], []]))[2] == 1

    def test_wide_layout_survives_later_narrow_records_and_still_checks(self):
        store = EncodedSequenceStore.from_sequences([[5], [2**64, 1], [9, 300]])
        assert header_of(store)[2] == 0
        assert store.sequences() == [(5,), (2**64, 1), (9, 300)]
        with pytest.raises(SequenceStoreError, match=r"item 1\.5 in record 2"):
            EncodedSequenceStore.from_sequences([[5], [2**64], [1.5]])
        with pytest.raises(SequenceStoreError, match="negative"):
            EncodedSequenceStore.from_sequences([[2**64], [-3]])

    def test_errors_name_item_and_record(self):
        with pytest.raises(SequenceStoreError, match=r"item 1\.9 in record 2"):
            EncodedSequenceStore.from_sequences([[1], [2, 3], [4, 1.9]])
        with pytest.raises(SequenceStoreError, match=r"item '7' in record 1"):
            EncodedSequenceStore.from_weighted_sequences([((1,), 2), (("7",), 1)])

    def test_old_layout_blocks_are_refused(self):
        for magic in (b"SEQSTOR1", b"SEQSTOR2"):
            with pytest.raises(SequenceStoreError, match="bad store magic"):
                EncodedSequenceStore(magic + b"\x00" * 24)


class TestCanonicalBlock:
    """Equal records give equal blocks, however the store was built."""

    RECORDS = [(1, 2, 300), (), (4,), (1, 2, 300), (70, 8)]

    def test_record_container_types_do_not_matter(self):
        reference = EncodedSequenceStore.from_sequences(self.RECORDS).content_hash()
        builders = {
            "lists": [list(record) for record in self.RECORDS],
            "generators": (iter(record) for record in self.RECORDS),
            "arrays of another typecode": [array("q", record) for record in self.RECORDS],
            "a generator of generators": ((item for item in record) for record in self.RECORDS),
        }
        for name, records in builders.items():
            built = EncodedSequenceStore.from_sequences(records)
            assert built.content_hash() == reference, name
        ranges = [range(1, 4), range(0), range(250, 260)]
        assert (
            EncodedSequenceStore.from_sequences(ranges).content_hash()
            == EncodedSequenceStore.from_sequences([tuple(r) for r in ranges]).content_hash()
        )

    @pytest.mark.parametrize("largest", [9, 300, 70_000, 2**40, 2**64 + 1])
    def test_unique_view_equals_the_weighted_store_of_its_records(self, largest):
        duplicated = [(1, largest), (2,), (1, largest), (), (2,), (1, largest)]
        view = EncodedSequenceStore.from_sequences(duplicated).unique_view()
        built = EncodedSequenceStore.from_weighted_sequences(
            [((1, largest), 3), ([2], 2), (iter(()), 1)]
        )
        assert view.content_hash() == built.content_hash()
        assert bytes(view._block) == bytes(built._block)
        # ...and differs from the plain store and from other weights.
        plain = EncodedSequenceStore.from_sequences([(1, largest), (2,), ()])
        assert plain.content_hash() != built.content_hash()
        ones = EncodedSequenceStore.from_weighted_sequences(
            [((1, largest), 1), ((2,), 1), ((), 1)]
        )
        assert ones.content_hash() != built.content_hash()
        assert ones.content_hash() == plain.unique_view().content_hash()


class VarintBlock:
    """The replaced layout as a test-side oracle: one LEB128 stream, byte offsets.

    Written with :mod:`repro.varint` alone, the way the store packed, decoded
    and grouped every record before its data region became a fixed-width column.
    """

    def __init__(self, sequences) -> None:
        self.data = bytearray()
        self.offsets = [0]
        for sequence in sequences:
            for item in sequence:
                write_varint(self.data, item)
            self.offsets.append(len(self.data))

    def spans(self) -> list[bytes]:
        return [
            bytes(self.data[start:stop])
            for start, stop in zip(self.offsets, self.offsets[1:])
        ]

    def records(self) -> list[tuple[int, ...]]:
        decoded = []
        for start, stop in zip(self.offsets, self.offsets[1:]):
            items = []
            while start < stop:
                value, start = read_varint(self.data, start)
                items.append(value)
            decoded.append(tuple(items))
        return decoded

    def unique_records(self) -> list[WeightedSequence]:
        totals: dict[bytes, int] = {}
        first: dict[bytes, tuple[int, ...]] = {}
        for span, record in zip(self.spans(), self.records()):
            totals[span] = totals.get(span, 0) + 1
            first.setdefault(span, record)
        return [WeightedSequence(first[span], weight) for span, weight in totals.items()]


class TestAgainstVarintOracle:
    """Record for record, the column store is the varint block it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(
        sequences=st.lists(
            st.lists(
                st.one_of(
                    st.integers(min_value=0, max_value=300),
                    st.integers(min_value=0, max_value=2**70),
                ),
                max_size=6,
            ),
            max_size=30,
        )
    )
    def test_records_and_unique_view_match(self, sequences):
        oracle = VarintBlock(sequences)
        store = EncodedSequenceStore.from_sequences(sequences)
        assert store.sequences() == oracle.records()
        unique = store.unique_view()
        assert list(unique) == oracle.unique_records()
        assert list(EncodedSequenceStore(bytes(unique._block))) == oracle.unique_records()
        # Width 0 *is* the old data region: same bytes, same byte offsets.
        if any(item >= 2**64 for sequence in sequences for item in sequence):
            assert bytes(store._column) == bytes(oracle.data)
            assert store._offsets.tolist() == oracle.offsets


def hostile_seed_blocks() -> list[bytes]:
    """Small plain and weighted blocks at every item width (and width 0)."""
    blocks = []
    for largest, _width in WIDTH_BOUNDARIES[::2] + WIDTH_BOUNDARIES[-1:]:
        sequences = [(1, largest), (), (3, 4, 200)]
        plain = EncodedSequenceStore.from_sequences(sequences)
        weighted = EncodedSequenceStore.from_weighted_sequences(
            zip(sequences, (2, 1, 7))
        )
        blocks += [bytes(plain._block), bytes(weighted._block)]
    return blocks


class TestHostileBlocks:
    """A corrupt block raises ``SequenceStoreError`` or decodes consistently.

    Slicing a fixed-width column clamps where a varint reader would run out
    of bytes, so nothing but the store's own checks stands between a damaged
    block and a worker counting supports over short sequences.
    """

    @staticmethod
    def check(block: bytes) -> None:
        try:
            store = EncodedSequenceStore(block)
            records = list(store)
        except SequenceStoreError:
            return
        # Anything else (struct.error, TypeError, ValueError, IndexError,
        # BufferError, ...) propagates and fails the test.
        assert len(records) == len(store)
        for record in records:
            sequence, weight = record_parts(record)
            assert type(sequence) is tuple
            assert all(type(item) is int and item >= 0 for item in sequence)
            assert type(weight) is int and weight >= 0

    def test_seed_blocks_cover_every_width(self):
        widths = [header_of(block)[2] for block in hostile_seed_blocks()]
        assert sorted(set(widths)) == [0, 1, 2, 4, 8]

    @pytest.mark.parametrize("block", hostile_seed_blocks())
    def test_every_truncation(self, block):
        for length in range(len(block)):
            with pytest.raises(SequenceStoreError):
                EncodedSequenceStore(block[:length])

    @pytest.mark.parametrize("block", hostile_seed_blocks())
    def test_every_single_bit_flip(self, block):
        """Header, offsets and weights regions — and the data region too."""
        for position in range(len(block)):
            for bit in range(8):
                damaged = bytearray(block)
                damaged[position] ^= 1 << bit
                self.check(bytes(damaged))

    def test_random_byte_strings(self):
        rng = random.Random(1709)
        seeds = hostile_seed_blocks()
        for round_number in range(300):
            if round_number % 3 == 0:
                block = rng.randbytes(rng.randrange(0, 120))
            elif round_number % 3 == 1:  # a valid magic, then noise
                block = rng.choice(seeds)[:8] + rng.randbytes(rng.randrange(0, 120))
            else:  # a valid header and index, then noise where the data was
                seed = rng.choice(seeds)
                cut = rng.randrange(32, len(seed))
                block = seed[:cut] + rng.randbytes(len(seed) - cut)
            self.check(block)

    def test_specific_corruptions_are_named(self):
        good = EncodedSequenceStore.from_sequences([[1, 2], [300]])
        block = bytes(good._block)
        magic, count, width, size = header_of(block)

        def with_header(**fields):
            header = {"magic": magic, "count": count, "width": width, "size": size}
            header.update(fields)
            return struct.pack("=8sQQQ", *header.values()) + block[32:]

        def with_offsets(*offsets):
            return block[:32] + struct.pack(f"={count + 1}Q", *offsets) + block[32 + 8 * (count + 1):]

        with pytest.raises(SequenceStoreError, match="item width 3"):
            EncodedSequenceStore(with_header(width=3))
        with pytest.raises(SequenceStoreError, match="whole number"):
            EncodedSequenceStore(with_header(size=size - 1))
        with pytest.raises(SequenceStoreError, match="truncated store block"):
            EncodedSequenceStore(with_header(size=size + 2))
        with pytest.raises(SequenceStoreError, match="offsets span"):
            EncodedSequenceStore(with_offsets(0, 2, 2))  # last offset != item count
        with pytest.raises(SequenceStoreError, match="offsets span"):
            EncodedSequenceStore(with_offsets(1, 2, 3))  # first offset != 0
        # An offset running past the column: constructing is O(1) and cannot
        # see it; decoding the record must, instead of yielding a clamped tuple.
        damaged = EncodedSequenceStore(with_offsets(0, 9, 3))
        with pytest.raises(SequenceStoreError, match="record 0 spans 0:9 of 3 items"):
            damaged[0]
        with pytest.raises(SequenceStoreError, match="corrupt store offsets"):
            list(damaged)
        with pytest.raises(SequenceStoreError, match="corrupt store offsets"):
            damaged.unique_view()
        backwards = EncodedSequenceStore(
            bytes(EncodedSequenceStore.from_sequences([[1], [2], [3]])._block)[:32]
            + struct.pack("=4Q", 0, 2, 1, 3)
            + bytes(3)
        )
        assert backwards[0] == (0, 0)
        with pytest.raises(SequenceStoreError, match="record 1 spans 2:1"):
            backwards[1]


class TestNoPerItemPythonCalls:
    """Counters, not clocks: the input path makes no Python call per item."""

    @pytest.fixture()
    def varint_calls(self, monkeypatch):
        from repro.sequences import store as store_module

        calls = {"write": 0, "read": 0}
        real_write, real_read = store_module.write_varint, store_module.read_varint

        def counting_write(*args, **kwargs):
            calls["write"] += 1
            return real_write(*args, **kwargs)

        def counting_read(*args, **kwargs):
            calls["read"] += 1
            return real_read(*args, **kwargs)

        monkeypatch.setattr(store_module, "write_varint", counting_write)
        monkeypatch.setattr(store_module, "read_varint", counting_read)
        return calls

    def test_a_store_that_fits_64_bits_never_touches_varints(self, varint_calls):
        rng = random.Random(5)
        sequences = [
            tuple(rng.choice((7, 300, 70_000, 2**40, 2**64 - 1)) for _ in range(10))
            for _ in range(1_000)
        ]
        store = EncodedSequenceStore.from_sequences(sequences)
        unique = store.unique_view()
        assert store.sequences() == sequences
        assert sum(weight for _sequence, weight in unique) == len(sequences)
        weighted = EncodedSequenceStore.from_weighted_sequences(list(unique))
        assert list(weighted) == list(unique)
        assert varint_calls == {"write": 0, "read": 0}

    def test_the_counters_see_the_wide_layout(self, varint_calls):
        """The control: the same probe does count when an item needs 2**64."""
        store = EncodedSequenceStore.from_sequences([[1, 2], [2**64]])
        assert store.sequences() == [(1, 2), (2**64,)]
        assert varint_calls == {"write": 3, "read": 3}

    def test_bulk_encode_makes_no_item_lookup_call(self, monkeypatch):
        gids = [f"g{number}" for number in range(50)]
        dictionary = Dictionary(
            Item(gid=gid, fid=fid, document_frequency=1)
            for fid, gid in enumerate(gids, start=1)
        )
        calls = []
        real = Dictionary.item_by_gid
        monkeypatch.setattr(
            Dictionary, "item_by_gid", lambda self, gid: calls.append(gid) or real(self, gid)
        )
        rng = random.Random(11)
        raw = [tuple(rng.choices(gids, k=8)) for _ in range(1_000)]
        database = SequenceDatabase.from_gid_sequences(dictionary, raw)
        assert calls == []
        assert database.decode(dictionary) == raw
        assert dictionary.encode(raw[0]) == database[0]
        calls.clear()
        with pytest.raises(UnknownItemError, match="'nope'") as caught:
            SequenceDatabase.from_gid_sequences(dictionary, [raw[0], ("g1", "nope")])
        assert caught.value.item == "nope"
        with pytest.raises(UnknownItemError, match="'nope'"):
            dictionary.encode(["g2", "nope"])
        assert calls == []
        # The table is derived state: it does not travel with the dictionary,
        # whose pickle (part of every kernel and job pickle) gains no byte.
        assert dictionary._fid_table is not None
        assert b"_fid_table" not in pickle.dumps(dictionary)
        clone = pickle.loads(pickle.dumps(dictionary))
        assert clone._fid_table is None
        assert clone.encode(raw[0]) == database[0]
