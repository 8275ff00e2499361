"""Tests for the shuffle wire format and the disk-spilling bucket store.

Covers three layers: value/bucket round-trips of every codec (including the
empty-payload and huge-fid edge cases, plus hypothesis-generated payloads),
the spill machinery itself (budget semantics, streamed merge, cleanup), and
the end-to-end guarantee that miners produce identical patterns and identical
*measured* wire bytes on every backend, for every codec, spilled or not.
"""

from __future__ import annotations

import os
import random

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
    MapReduceJob,
    PickleCodec,
    SimulatedCluster,
    make_cluster,
    make_codec,
    merge_fragments,
    run_map_task,
)
from repro.mapreduce.spill import WireFragment, remove_spill_files, store_payloads
from repro.mapreduce.wire import (
    _T_LIST,
    _T_TUPLE,
    decode_value,
    encode_value,
    read_varint,
    write_varint,
)

from tests.conftest import RUNNING_EXAMPLE_PATEX


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
        assert CODECS == ("compact", "zlib", "pickle")
        assert isinstance(make_codec("compact"), CompactCodec)
        assert make_codec("zlib").name == "zlib"
        assert isinstance(make_codec("pickle"), PickleCodec)
        codec = CompactCodec()
        assert make_codec(codec) is codec
        assert isinstance(codec, Codec)

    def test_unknown_codec(self):
        with pytest.raises(MapReduceError, match="unknown shuffle codec"):
            make_codec("msgpack")

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


class TestHostilePayloads:
    """``decode_bucket`` reads bytes another process wrote: whatever arrives,
    it returns a payload or raises ``MapReduceError`` — nothing else."""

    PAYLOAD = {
        7: [((1, 2, 300, 70_000), 2), "héllo", b"\x00\x01", frozenset({1, 2}), 1.5],
        "key": [(5, 9000, -1), None, True, [1, (2,)], {"pickled": 1}, -5],
        (1, 2): [()],
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

    def test_named_hazards(self):
        codec = make_codec("compact")
        hazards = {
            "malformed string": b"\x00\x01\x02\x01\xff\x00",
            "malformed pickle": b"\x00\x01\x00\x02\x01\x0a\x01\x2e",
            "malformed zlib": b"\x01not a zlib stream",
            "unhashable key": b"\x00\x01\x04\x00\x00",
            "unhashable frozenset member": b"\x00\x01\x00\x02\x01\x08\x01\x04\x00",
            "nests too deeply": b"\x00\x01" + b"\x03\x01" * 5000,
        }
        for message, blob in hazards.items():
            with pytest.raises(MapReduceError, match=message) as caught:
                codec.decode_bucket(blob)
            assert caught.value.__cause__ is not None, message


# --------------------------------------------------------------------- spill
class TestSpill:
    def encoded(self, codec, payloads_by_bucket):
        for index, payload in sorted(payloads_by_bucket.items()):
            blob = codec.encode_bucket(payload)
            yield index, blob, sum(len(v) for v in payload.values())

    def test_no_budget_keeps_everything_inline(self, tmp_path):
        codec = make_codec("compact")
        fragments, path = store_payloads(
            self.encoded(codec, {0: {1: [2]}, 3: {4: [5]}}), None, str(tmp_path)
        )
        assert path is None
        assert all(not fragment.spilled for _, fragment in fragments)

    def test_zero_budget_spills_everything(self, tmp_path):
        codec = make_codec("compact")
        fragments, path = store_payloads(
            self.encoded(codec, {0: {1: [2]}, 3: {4: [5]}}), 0, str(tmp_path)
        )
        assert path is not None and os.path.exists(path)
        assert all(fragment.spilled for _, fragment in fragments)
        # Spilled fragments read back exactly what was encoded.
        merged = merge_fragments([fragment for _, fragment in fragments], codec)
        assert merged == {1: [2], 4: [5]}
        remove_spill_files([path])
        assert not os.path.exists(path)

    def test_budget_splits_inline_and_spilled(self, tmp_path):
        codec = make_codec("compact")
        payloads_by_bucket = {i: {i: [(i, i + 1)] * 10} for i in range(6)}
        blobs = [codec.encode_bucket(p) for p in payloads_by_bucket.values()]
        budget = len(blobs[0]) + len(blobs[1])  # room for exactly two payloads
        fragments, path = store_payloads(
            self.encoded(codec, payloads_by_bucket), budget, str(tmp_path)
        )
        spilled = [fragment for _, fragment in fragments if fragment.spilled]
        inline = [fragment for _, fragment in fragments if not fragment.spilled]
        assert len(inline) == 2 and len(spilled) == 4
        assert sum(f.wire_bytes for f in inline) <= budget
        merged = merge_fragments([f for _, f in fragments], codec)
        assert merged == {i: [(i, i + 1)] * 10 for i in range(6)}
        remove_spill_files([path])

    def test_fragment_read_detects_truncation(self, tmp_path):
        path = tmp_path / "bucket.spill"
        path.write_bytes(b"abc")
        fragment = WireFragment(records=1, wire_bytes=10, path=str(path))
        with pytest.raises(MapReduceError, match="truncated spill file"):
            fragment.read()

    def test_map_task_reports_spill_accounting(self, tmp_path):
        class Pairs(MapReduceJob):
            def map(self, record):
                yield record % 5, record

        result = run_map_task(
            Pairs(), list(range(50)), num_reduce_tasks=5, measure_shuffle=True,
            codec="compact", spill_budget_bytes=0, spill_dir=str(tmp_path),
        )
        assert result.spilled_buckets == len(result.buckets) > 0
        assert result.spilled_bytes == result.wire_bytes > 0
        assert result.spill_path is not None
        remove_spill_files([result.spill_path])

    def test_cluster_cleans_up_spill_files(self, tmp_path):
        class Pairs(MapReduceJob):
            def map(self, record):
                yield record % 5, record

            def reduce(self, key, values):
                yield key, sorted(values)

        cluster = SimulatedCluster(
            num_workers=2, spill_budget_bytes=0, spill_dir=str(tmp_path)
        )
        result = cluster.run(Pairs(), list(range(50)))
        assert result.metrics.spilled_buckets > 0
        assert result.metrics.spilled_bytes == result.metrics.wire_bytes
        assert list(tmp_path.iterdir()) == []  # spill files removed after the run

    def test_rejects_negative_budget(self):
        with pytest.raises(MapReduceError, match="spill_budget_bytes"):
            SimulatedCluster(num_workers=1, spill_budget_bytes=-1)

    def test_spill_files_removed_when_a_map_task_fails(self, tmp_path):
        """A failing map task must not strand completed tasks' spill files."""

        class Explodes(MapReduceJob):
            def map(self, record):
                if record == "boom":
                    raise ValueError("boom")
                yield record, 1

            def reduce(self, key, values):
                yield key, sum(values)

        cluster = SimulatedCluster(
            num_workers=2, spill_budget_bytes=0, spill_dir=str(tmp_path)
        )
        # Two chunks: the first spills its buckets, the second raises.
        with pytest.raises(ValueError, match="boom"):
            cluster.run(Explodes(), ["a", "b", "boom", "boom"])
        assert list(tmp_path.iterdir()) == []


# Module-level (picklable) jobs for the worker-failure cleanup tests.
class ExplodingMapperJob(MapReduceJob):
    """Spills per-bucket payloads, then blows up on a marker record."""

    def map(self, record):
        if record == (0,):
            raise ValueError("mapper boom")
        yield record[0] % 3, record

    def reduce(self, key, values):
        yield key, sorted(values)


class ExplodingReducerJob(MapReduceJob):
    """Map spills normally; every reduce task raises mid-stage."""

    def map(self, record):
        yield record[0] % 3, record

    def reduce(self, key, values):
        raise ValueError("reducer boom")


#: Fid-sequence records usable on every backend (incl. the store-backed one).
FAILURE_RECORDS = [(index, index + 1) for index in range(1, 25)]


class TestSpillCleanupOnWorkerFailure:
    """A worker task raising mid-stage must not strand per-job spill files.

    All of a run's spill files live in one per-job directory that the driver
    removes after the executor scope has joined every worker task — so even
    tasks that were already running when another task failed cannot recreate
    files behind the cleanup's back.
    """

    def make_cluster(self, backend, tmp_path):
        return make_cluster(
            backend, num_workers=2, spill_budget_bytes=0, spill_dir=str(tmp_path)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failing_reducer_leaves_no_spill_files(self, backend, tmp_path):
        cluster = self.make_cluster(backend, tmp_path)
        with pytest.raises(ValueError, match="reducer boom"):
            cluster.run(ExplodingReducerJob(), FAILURE_RECORDS)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failing_mapper_leaves_no_spill_files(self, backend, tmp_path):
        cluster = self.make_cluster(backend, tmp_path)
        with pytest.raises(ValueError, match="mapper boom"):
            cluster.run(ExplodingMapperJob(), FAILURE_RECORDS + [(0,)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cluster_is_reusable_after_a_failed_run(self, backend, tmp_path):
        """The failure cleans up without corrupting the cluster instance."""
        cluster = self.make_cluster(backend, tmp_path)
        with pytest.raises(ValueError, match="reducer boom"):
            cluster.run(ExplodingReducerJob(), FAILURE_RECORDS)
        result = cluster.run(ExplodingMapperJob(), FAILURE_RECORDS)
        assert result.metrics.spilled_buckets > 0
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------- miner equivalence
MINER_FACTORIES = {
    "dseq": DSeqMiner,
    "dcand": DCandMiner,
    "naive": NaiveMiner,
}


class TestMinersAcrossCodecsAndBackends:
    """Acceptance: identical patterns and identical measured wire bytes on
    every backend for the same codec, with and without disk spilling."""

    @pytest.fixture(scope="class")
    def reference(self, ex_dictionary, ex_database):
        results = {}
        for name, factory in MINER_FACTORIES.items():
            miner = factory(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, num_workers=2)
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spilling_does_not_change_results(
        self, backend, reference, ex_dictionary, ex_database, tmp_path
    ):
        """A tiny budget forces every bucket to disk; results are unchanged."""
        for name, factory in MINER_FACTORIES.items():
            cluster = make_cluster(
                backend, num_workers=2, spill_budget_bytes=16, spill_dir=str(tmp_path)
            )
            result = factory(
                RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, num_workers=2, cluster=cluster
            ).mine(ex_database)
            assert result.patterns() == reference[name].patterns(), name
            assert result.metrics.wire_bytes == reference[name].metrics.wire_bytes, name
            assert result.metrics.spilled_buckets > 0, name
            assert list(tmp_path.iterdir()) == []  # all spill files cleaned up

    def test_codec_sizes_are_ordered_sensibly(self, ex_dictionary, ex_database):
        """The compact codec beats pickle on the fid tuples D-SEQ shuffles."""
        sizes = {}
        for codec in CODECS:
            miner = DSeqMiner(
                RUNNING_EXAMPLE_PATEX, 2, ex_dictionary,
                cluster=ClusterConfig(codec=codec, num_workers=2),
            )
            sizes[codec] = miner.mine(ex_database).metrics.wire_bytes
        assert sizes["compact"] < sizes["pickle"]
