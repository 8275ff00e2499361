"""The multi-host blob-staged shuffle backend and the shared FragmentReader.

Acceptance criteria of the ``multihost`` backend: patterns, supports, and all
modeled/measured shuffle metrics are byte-identical to every other backend
(every payload in the fragment store is a transport, not a semantics
change), the blob put/get counters account for the store traffic, and no
blob survives a finished job, successful or not.
"""

from __future__ import annotations

import builtins
import io
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.core import DSeqMiner
from repro.errors import MapReduceError
from repro.mapreduce import (
    ClusterConfig,
    DirectoryBlobStore,
    FragmentReader,
    InMemoryBlobStore,
    MapReduceJob,
    MultiHostCluster,
    ScriptedInjector,
    WireFragment,
    make_cluster,
    make_codec,
    merge_fragments,
)
from repro.cli import main
from repro.mapreduce import base
from repro.mapreduce.spill import FragmentStore, store_payloads

from tests.conftest import StoringSimulatedCluster
from tests.test_differential import MATRIX_MINERS, _matrix_cluster, make_differential_database


@pytest.fixture(scope="module")
def corpus():
    return make_differential_database(count=40, seed=31)


class FidCountJob(MapReduceJob):
    """Integer word count runnable on the store-backed backends."""

    use_combiner = True

    def map(self, record):
        for fid in record:
            yield fid, 1

    def combine(self, key, values):
        yield key, sum(values)

    def reduce(self, key, values):
        yield key, sum(values)


FID_RECORDS = [(fid % 7 + 1,) * (fid % 3 + 1) for fid in range(30)]


class ExplodingMapJob(FidCountJob):
    """One poisoned record kills its host mid-map; other hosts keep uploading."""

    def map(self, record):
        if record == (99,):
            raise MapReduceError("host down")
        yield from super().map(record)


# ------------------------------------------------------- backend equivalence
class TestMultiHostEquivalence:
    @pytest.mark.parametrize("codec", ("compact", "zlib"))
    @pytest.mark.parametrize("miner_name", sorted(MATRIX_MINERS))
    def test_byte_identical_to_simulated(self, miner_name, codec, corpus):
        dictionary, database = corpus
        factory = MATRIX_MINERS[miner_name]
        reference = factory(dictionary, _matrix_cluster("simulated", codec)).mine(database)
        multihost = factory(dictionary, _matrix_cluster("multihost", codec)).mine(database)
        assert multihost.patterns() == reference.patterns()
        for metric in (
            "shuffle_bytes",
            "shuffle_records",
            "wire_bytes",
            "map_output_records",
            "output_records",
        ):
            assert getattr(multihost.metrics, metric) == (
                getattr(reference.metrics, metric)
            ), metric
        # Only the blob counters set the backends apart.
        assert reference.metrics.blob_put_count == 0
        assert reference.metrics.blob_get_count == 0
        assert multihost.metrics.blob_put_count > 0
        assert multihost.metrics.blob_get_count > 0
        assert multihost.metrics.blob_put_bytes > 0
        # Content-addressed dedup can only ever shrink the reduce-side reads.
        assert multihost.metrics.blob_get_count <= multihost.metrics.blob_put_count
        assert multihost.metrics.blob_get_bytes <= multihost.metrics.blob_put_bytes

    def test_an_in_process_stored_shuffle_meters_like_multihost(self, corpus):
        """``simulated`` with every payload in the store puts and gets exactly
        what ``multihost`` does: the blob counters are the store's, not the
        executor's."""
        dictionary, database = corpus
        clusters = {
            "simulated": StoringSimulatedCluster(num_workers=2),
            "multihost": MultiHostCluster(num_workers=2),
        }
        results = {
            name: DSeqMiner(
                ".*(A)[(.^)|.]*(b).*", 2, dictionary, cluster=ClusterConfig(backend=cluster)
            ).mine(database)
            for name, cluster in clusters.items()
        }
        reference, multihost = results["simulated"], results["multihost"]
        assert multihost.patterns() == reference.patterns()
        for metric in ("blob_put_count", "blob_put_bytes", "blob_get_count", "blob_get_bytes"):
            assert getattr(multihost.metrics, metric) == getattr(reference.metrics, metric)
        assert multihost.metrics.blob_put_bytes == multihost.metrics.wire_bytes > 0


# ------------------------------------------------------------- blob hygiene
@pytest.mark.usefixtures("no_new_shm_entries")
class TestBlobCleanup:
    def test_default_run_leaves_spill_dir_empty(self, tmp_path):
        cluster = MultiHostCluster(num_workers=2, spill_dir=str(tmp_path))
        result = cluster.run(FidCountJob(), FID_RECORDS)
        assert result.metrics.blob_put_count > 0
        assert list(tmp_path.iterdir()) == []

    def test_shared_spill_dir_left_exactly_as_found(self, tmp_path):
        spill_dir = tmp_path / "store"
        spill_dir.mkdir()
        unrelated = spill_dir / "someone-elses-blob"
        unrelated.write_bytes(b"keep me")
        cluster = MultiHostCluster(num_workers=2, spill_dir=str(spill_dir))
        cluster.run(FidCountJob(), FID_RECORDS)
        assert sorted(path.name for path in spill_dir.iterdir()) == [
            "someone-elses-blob"
        ]
        assert unrelated.read_bytes() == b"keep me"

    def test_mid_stage_host_failure_cleans_blobs_and_raises(self, tmp_path):
        """Kill one host mid-map: the job fails loudly and no blob survives."""
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        cluster = MultiHostCluster(num_workers=2, spill_dir=str(spill_dir))
        # Enough healthy records that other hosts finish (and upload) before
        # and after the poisoned one dies.
        records = FID_RECORDS[:15] + [(99,)] + FID_RECORDS[15:]
        with pytest.raises(MapReduceError, match="host down"):
            cluster.run(ExplodingMapJob(), records)
        # No blob, and no run directory, leaked.
        assert list(spill_dir.iterdir()) == []
        # The cluster stays usable for the next job.
        result = cluster.run(FidCountJob(), FID_RECORDS)
        assert result.metrics.blob_put_count > 0
        assert list(spill_dir.iterdir()) == []

    def test_two_jobs_sharing_a_spill_dir_do_not_collide(self, tmp_path):
        spill_dir = str(tmp_path / "store")
        for _ in range(2):
            cluster = MultiHostCluster(num_workers=2, spill_dir=spill_dir)
            cluster.run(FidCountJob(), FID_RECORDS)
        assert os.listdir(spill_dir) == []


# ------------------------------------------------- a killed driver's orphan
#: A multihost driver whose map task 0 sleeps on its first record, so it
#: can be killed mid-run.
KILLED_DRIVER = """
import sys
import time
from repro.mapreduce import MapReduceJob, MultiHostCluster

class CountJob(MapReduceJob):
    def map(self, record):
        if record == (0,):
            time.sleep(120.0)
        for fid in record:
            yield fid, 1

    def reduce(self, key, values):
        yield key, sum(values)

cluster = MultiHostCluster(num_workers=2, spill_dir=sys.argv[1])
cluster.run(CountJob(), [(0,)] + [(1, 2), (2, 3)] * 10)
"""

#: Names a sweep must never act on: no birth parses out of them.
HOSTILE_RUN_DIR_NAMES = ("repro-run-nan-x", "repro-run--1-x")


def kill_driver_mid_run(spill_dir: Path) -> Path:
    """Start a multihost driver in its own session, SIGKILL it once its run
    directory exists, then kill its process group so no host outlives it;
    returns the orphaned run directory."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    driver = subprocess.Popen(
        [sys.executable, "-c", KILLED_DRIVER, str(spill_dir)],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not list(spill_dir.glob("repro-run-*/blobs")):
            assert driver.poll() is None, "the driver exited before it was killed"
            assert time.monotonic() < deadline, "no run directory appeared"
            time.sleep(0.02)
        driver.send_signal(signal.SIGKILL)
        driver.wait(timeout=30)
    finally:
        try:
            os.killpg(driver.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        driver.wait(timeout=30)
    (orphan,) = spill_dir.glob("repro-run-*")
    return orphan


class TestKilledDriver:
    """A killed driver's run directory is the one orphan; its name is its
    lease, and the sweep every run makes at start (or ``repro gc``) reclaims
    it once it is past the TTL, touching nothing else."""

    def test_the_orphan_is_swept_and_nothing_else(self, tmp_path, monkeypatch):
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        orphan = kill_driver_mid_run(spill_dir)
        birth = base.run_dir_birth(orphan.name)
        assert birth is not None and abs(birth - time.time()) < 120
        assert list(orphan.iterdir())  # it holds what the run wrote

        # What the sweep must leave alone.
        (spill_dir / "foreign.txt").write_bytes(b"keep me")
        younger = spill_dir / f"repro-run-{birth + 100}-young"
        younger.mkdir()
        target = tmp_path / "target"
        target.mkdir()
        (target / "data").write_bytes(b"keep me too")
        (spill_dir / "repro-run-1-x").symlink_to(target, target_is_directory=True)
        for name in HOSTILE_RUN_DIR_NAMES:
            (spill_dir / name).mkdir()
        # Past int's 4,300-digit limit, and past any file system's name
        # length, so only the parser the sweep runs on every name sees it.
        assert base.run_dir_birth("repro-run-" + "9" * 5000 + "-x") is None
        kept = sorted(path.name for path in spill_dir.iterdir() if path != orphan)

        # Not past the TTL yet: nothing is listed.
        stream = io.StringIO()
        assert main(["gc", "--spill-dir", str(spill_dir), "--dry-run"], stream=stream) == 0
        assert not [line for line in stream.getvalue().splitlines() if line.startswith("would")]
        # Past it: the dry run lists exactly the orphan, and the sweep removes
        # exactly what the dry run lists.
        while time.time() < birth + 1:
            time.sleep(0.05)
        stream = io.StringIO()
        argv = ["gc", "--spill-dir", str(spill_dir), "--ttl", "0", "--dry-run"]
        assert main(argv, stream=stream) == 0
        listed = [line.split()[-1] for line in stream.getvalue().splitlines()
                  if line.startswith("would remove")]
        assert listed == [orphan.name]
        now = birth + base.RUN_TTL_S + 50
        assert base.expired_run_dirs(spill_dir, base.RUN_TTL_S, now=now) == [str(orphan)]
        assert base.sweep_run_dirs(spill_dir, base.RUN_TTL_S, now=now) == [str(orphan)]
        assert sorted(path.name for path in spill_dir.iterdir()) == kept
        assert (target / "data").read_bytes() == b"keep me too"
        assert (spill_dir / "foreign.txt").read_bytes() == b"keep me"

        # The next run sweeps an expired orphan at start.
        stale = spill_dir / f"repro-run-{int(time.time()) - 5}-stale"
        stale.mkdir()
        (stale / "blob").write_bytes(b"orphaned")
        monkeypatch.setattr(base, "RUN_TTL_S", 0)
        result = MultiHostCluster(num_workers=2, spill_dir=str(spill_dir)).run(
            FidCountJob(), FID_RECORDS
        )
        assert result.metrics.blob_put_count > 0
        assert sorted(path.name for path in spill_dir.iterdir()) == kept


# ------------------------------------------------- the job reaches a host once
class NeverPickledJob(FidCountJob):
    def __getstate__(self):
        raise RuntimeError("hosts are handed the job by the pool initializer")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="initializer arguments ride a fork only where pools fork",
)
class TestMultiHostJobDelivery:
    def test_hosts_run_a_job_no_task_could_have_pickled(self, tmp_path):
        baseline = make_cluster("simulated", num_workers=2).run(FidCountJob(), FID_RECORDS)
        cluster = MultiHostCluster(num_workers=2, spill_dir=str(tmp_path / "store"))
        result = cluster.run(NeverPickledJob(), FID_RECORDS)
        assert sorted(result.outputs) == sorted(baseline.outputs)
        assert result.metrics.wire_bytes == baseline.metrics.wire_bytes
        assert result.metrics.blob_get_count > 0

    @pytest.mark.usefixtures("no_backoff")
    def test_replacement_hosts_are_handed_the_job_again(self, tmp_path):
        spill_dir = tmp_path / "store"
        cluster = MultiHostCluster(
            num_workers=2,
            spill_dir=str(spill_dir),
            fault_injector=ScriptedInjector(kill_reduce_task=0, kill_mode="exit"),
        )
        result = cluster.run(NeverPickledJob(), FID_RECORDS)
        assert len(result.outputs) == 7
        assert result.metrics.recovered_host_count >= 1
        assert list(spill_dir.iterdir()) == []


# -------------------------------------------------- FragmentReader behaviour
class FirstByteCodec:
    """Decodes a blob to one ``(first byte, [length])`` group, allocating nothing big."""

    @staticmethod
    def iter_bucket(blob):
        yield blob[0], [len(blob)]


class TestFragmentReader:
    def test_merge_holds_one_fetched_blob_at_a_time(self, tmp_path):
        """A blob-backed merge streams: fragments with distinct keys never hold
        more than one fetched blob (plus the next one being read), however
        many fragments the bucket has."""
        size, count = 1 << 20, 8
        store = DirectoryBlobStore(str(tmp_path))
        fragments = []
        for index in range(count):
            store.put(f"job/{index}", bytes([index]) * size)
            fragments.append(
                WireFragment(records=1, wire_bytes=size, blob_key=f"job/{index}")
            )
        tracemalloc.start()
        try:
            with FragmentReader(store) as reader:
                merged = merge_fragments(fragments, FirstByteCodec(), reader=reader)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert merged == {index: [size] for index in range(count)}
        assert reader.blob_gets == count
        assert peak < 3 * size

    def test_a_shared_key_is_held_until_its_last_fragment(self):
        codec = make_codec("compact")
        store = InMemoryBlobStore()
        fragments = []
        for name in ("a", "b", "a", "c", "b"):
            blob = codec.encode_bucket({name: [1]})
            store.put(f"job/{name}", blob)
            fragments.append(
                WireFragment(records=1, wire_bytes=len(blob), blob_key=f"job/{name}")
            )
        with FragmentReader(store) as reader:
            merged = merge_fragments(fragments, codec, reader=reader)
        assert merged == {"a": [1, 1], "b": [1, 1], "c": [1]}
        assert reader.blob_gets == store.gets == 3  # one get per distinct key

    def test_reader_fetches_each_blob_key_once(self):
        codec = make_codec("compact")
        blob = codec.encode_bucket({7: [1]})
        store = InMemoryBlobStore()
        store.put("job/k", blob)
        fragments = [
            WireFragment(records=1, wire_bytes=len(blob), blob_key="job/k")
            for _ in range(5)
        ]
        with FragmentReader(store) as reader:
            merged = merge_fragments(fragments, codec, reader=reader)
            assert reader.blob_gets == 1
            assert reader.counters.blob_get_bytes == len(blob)
        assert store.gets == 1  # content-addressed dedup: one get per key
        assert merged == {7: [1, 1, 1, 1, 1]}

    def test_blob_fragment_requires_a_store(self):
        fragment = WireFragment(records=1, wire_bytes=3, blob_key="job/k")
        with pytest.raises(MapReduceError, match="FragmentReader"):
            fragment.read()
        with FragmentReader() as reader:
            with pytest.raises(MapReduceError, match="no.*blob store"):
                reader.read(fragment)

    def test_inline_fragments_never_open_anything(self, monkeypatch):
        def forbidden_open(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("inline fragments must not touch the disk")

        monkeypatch.setattr(builtins, "open", forbidden_open)
        codec = make_codec("compact")
        blob = codec.encode_bucket({1: [2]})
        with FragmentReader() as reader:
            assert reader.read(
                WireFragment(records=1, wire_bytes=len(blob), data=blob)
            ) == blob


# ------------------------------------------------- spill-leak regression
class ExplodingCodec:
    """Wraps a codec; ``encode_bucket`` raises on the Nth call."""

    def __init__(self, fail_on: int) -> None:
        self._codec = make_codec("compact")
        self._calls = 0
        self.fail_on = fail_on

    def encode_bucket(self, payload):
        self._calls += 1
        if self._calls == self.fail_on:
            raise MapReduceError("codec boom")
        return self._codec.encode_bucket(payload)


class TestStorePayloadsLeak:
    def test_encoding_failure_mid_task_leaves_only_whole_blobs(self):
        """A map task that fails mid-encode has put only complete payloads,
        all under the job prefix the driver's namespace cleanup deletes."""
        codec = ExplodingCodec(fail_on=4)
        namespace = FragmentStore(InMemoryBlobStore(), "job")

        def encoded():
            for index in range(8):
                blob = codec.encode_bucket({index: [1, 2, 3]})
                yield index, blob, 3

        with pytest.raises(MapReduceError, match="codec boom"):
            store_payloads(encoded(), fragment_store=namespace)
        stored = namespace.blobs.blobs
        assert len(stored) == 3 and all(key.startswith("job/") for key in stored)
        reference = make_codec("compact")
        decoded = [reference.decode_bucket(blob) for blob in stored.values()]
        assert sorted(decoded, key=list) == [{index: [1, 2, 3]} for index in range(3)]

    def test_successful_task_returns_its_stored_fragments(self):
        codec = make_codec("compact")
        namespace = FragmentStore(InMemoryBlobStore(), "job")
        encoded = [(0, codec.encode_bucket({0: [1]}), 1), (1, codec.encode_bucket({1: [2]}), 1)]
        fragments, stats = store_payloads(iter(encoded), fragment_store=namespace)
        assert all(f.data is None and f.blob_key is not None for _, f in fragments)
        assert stats.blob_put_count == namespace.blobs.puts == 2
        assert stats.blob_put_bytes == stats.wire_bytes == sum(len(e[1]) for e in encoded)
