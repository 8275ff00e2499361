"""Cross-backend tests: every execution backend must produce identical results.

The backends share one stage driver and one set of worker-side tasks, so
pattern sets and shuffle metrics must match exactly; only the timing figures
may differ.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import build_parser, main
from repro.core import DCandMiner, DSeqMiner, NaiveMiner
from repro.errors import MapReduceError
from repro.mapreduce import (
    BACKENDS,
    ClusterConfig,
    MapReduceJob,
    MultiHostCluster,
    PersistentProcessPoolCluster,
    SimulatedCluster,
    StageDriverCluster,
    make_cluster,
    make_codec,
    run_map_task,
    stable_hash,
)
from repro.mapreduce.base import REDUCE_TASKS_PER_WORKER
from repro.sequences import EncodedSequenceStore, SequenceStoreError
from repro.sequential import GapConstrainedMiner

from tests.conftest import RUNNING_EXAMPLE_PATEX

REAL_BACKENDS = ("persistent-processes",)

#: Backends whose map tasks get materialized records (any record type); the
#: process pool ships store chunk descriptors instead, so its records must be
#: fid sequences.
GENERIC_BACKENDS = ("simulated",)

#: Spellings that select a backend, and the class each one builds.
KEPT_SPELLINGS = {
    "simulated": SimulatedCluster,
    "Simulated": SimulatedCluster,
    "persistent-processes": PersistentProcessPoolCluster,
    "processes": PersistentProcessPoolCluster,
    "multihost": MultiHostCluster,
    "multi-host": MultiHostCluster,
    "blob": MultiHostCluster,
}

#: Spellings that used to be accepted and now are not.
DROPPED_SPELLINGS = (
    "sim", "simulation", "thread", "threadpool", "process", "processpool",
    "multiprocessing", "persistent_processes", "persistent", "shared-memory",
    "shm", "multi_host", "blob-shuffle", "threads",
)

#: The smallest command lines that reach ``--backend`` parsing.
BACKEND_COMMANDS = (
    ("mine", "--sequences", "unused.txt", "--pattern", "(a)", "--sigma", "2"),
    ("experiment", "--name", "fig9a"),
)


class WordCountJob(MapReduceJob):
    """String-keyed word count: exercises cross-process stable partitioning."""

    use_combiner = True

    def map(self, record):
        for word in record.split():
            yield word, 1

    def combine(self, key, values):
        yield key, sum(values)

    def reduce(self, key, values):
        yield key, sum(values)


WORDS = ["a b a", "b c", "a", "c c c", "d a b", "e"]
WORD_COUNTS = {"a": 4, "b": 3, "c": 4, "d": 1, "e": 1}


class FidCountJob(MapReduceJob):
    """Integer word count: runnable on every backend, incl. the store-backed one."""

    use_combiner = True

    def map(self, record):
        for fid in record:
            yield fid, 1

    def combine(self, key, values):
        yield key, sum(values)

    def reduce(self, key, values):
        yield key, sum(values)


FID_RECORDS = [(1, 2, 2), (2, 3), (1,), (3, 3, 3, 1)]
FID_COUNTS = {1: 3, 2: 3, 3: 4}


# ------------------------------------------------------------------- factory
class TestMakeCluster:
    def test_backend_names(self):
        assert BACKENDS == ("simulated", "persistent-processes", "multihost")
        assert isinstance(make_cluster("simulated"), SimulatedCluster)
        assert isinstance(make_cluster("persistent-processes"), PersistentProcessPoolCluster)
        assert isinstance(make_cluster("multihost"), MultiHostCluster)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_is_one_row_of_the_stage_driver(self, backend):
        """No backend inherits from another: each is the driver plus components."""
        assert type(make_cluster(backend)).__bases__ == (StageDriverCluster,)

    @pytest.mark.parametrize("alias,cls", sorted(KEPT_SPELLINGS.items()))
    def test_aliases(self, alias, cls):
        assert isinstance(make_cluster(alias), cls)
        assert isinstance(ClusterConfig(backend=alias).build(), cls)

    @pytest.mark.parametrize("alias", DROPPED_SPELLINGS)
    def test_dropped_spellings_are_unknown(self, alias):
        with pytest.raises(MapReduceError, match="unknown execution backend"):
            make_cluster(alias)
        with pytest.raises(MapReduceError, match="unknown execution backend"):
            ClusterConfig(backend=alias).build()

    @pytest.mark.parametrize("command", BACKEND_COMMANDS, ids=lambda argv: argv[0])
    def test_cli_accepts_kept_spellings(self, command):
        parser = build_parser()
        for alias, cls in KEPT_SPELLINGS.items():
            args = parser.parse_args([*command, "--backend", alias])
            assert isinstance(make_cluster(args.backend), cls)
        assert parser.parse_args([*command, "--backend", "processes"]).backend == (
            "persistent-processes"
        )

    @pytest.mark.parametrize("command", BACKEND_COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("alias", DROPPED_SPELLINGS)
    def test_cli_rejects_dropped_spellings(self, command, alias, capsys):
        with pytest.raises(SystemExit) as caught:
            main([*command, "--backend", alias])
        assert caught.value.code == 2
        assert "unknown execution backend" in capsys.readouterr().err

    def test_removed_threads_backend_names_the_survivors(self, capsys):
        survivors = "choose one of simulated, persistent-processes, multihost"
        with pytest.raises(MapReduceError, match=survivors):
            make_cluster("threads")
        with pytest.raises(SystemExit) as caught:
            main([*BACKEND_COMMANDS[0], "--backend", "threads"])
        assert caught.value.code == 2
        assert survivors in capsys.readouterr().err

    def test_options_are_threaded_through(self, reduce_tasks_per_worker):
        reduce_tasks_per_worker(3)
        cluster = make_cluster("persistent-processes", num_workers=3)
        assert cluster.num_workers == 3
        assert cluster.num_reduce_tasks == 9

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_bucket_count_is_no_setting(self, backend):
        """Reduce buckets are ``REDUCE_TASKS_PER_WORKER`` per worker on every
        backend; neither the config nor a cluster class takes a count."""
        assert len(dataclasses.fields(ClusterConfig)) == 5
        with pytest.raises(TypeError, match="num_reduce_tasks"):
            ClusterConfig(backend=backend, num_reduce_tasks=8)
        cluster_class = type(make_cluster(backend))
        with pytest.raises(TypeError, match="num_reduce_tasks"):
            cluster_class(num_workers=2, num_reduce_tasks=8)
        assert cluster_class(num_workers=3).num_reduce_tasks == 3 * REDUCE_TASKS_PER_WORKER == 12

    def test_unknown_backend(self):
        with pytest.raises(MapReduceError, match="unknown execution backend"):
            make_cluster("spark")

    def test_build_passes_instances_through(self):
        cluster = SimulatedCluster(num_workers=2)
        assert ClusterConfig(backend=cluster).build() is cluster
        assert isinstance(
            ClusterConfig(backend="processes", num_workers=2).build(),
            PersistentProcessPoolCluster,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_make_cluster_is_config_build(self, backend, tmp_path):
        """``make_cluster(name, **fields)`` is ``ClusterConfig(...).build()``:
        the same class, every field landing on the cluster alike."""
        fields = {
            "num_workers": 3,
            "codec": "zlib",
            "spill_dir": str(tmp_path),
            "max_task_attempts": 1,
        }

        def settings(cluster):
            return (
                type(cluster),
                cluster.num_workers,
                cluster.num_reduce_tasks,
                cluster.codec.name,
                cluster.spill_dir,
                cluster.max_task_attempts,
            )

        built = ClusterConfig(backend=backend, **fields).build()
        shortcut = make_cluster(backend, **fields)
        assert settings(built) == settings(shortcut)
        assert settings(built)[1:] == (
            3, 12, "zlib", str(tmp_path), 1,
        )


    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", ["int", "bytes", "a file", "missing"])
    def test_a_bad_spill_dir_is_a_typed_error_and_a_missing_one_is_made(
        self, backend, case, tmp_path
    ):
        a_file = tmp_path / "a-file"
        a_file.write_bytes(b"")
        missing = tmp_path / "missing" / "deeper"
        spill_dir = {"int": 5, "bytes": b"/tmp", "a file": str(a_file), "missing": missing}[case]
        if case in ("int", "bytes"):  # refused when the cluster is built
            with pytest.raises(MapReduceError, match="spill_dir must be a path"):
                ClusterConfig(backend=backend, spill_dir=spill_dir).build()
            return
        cluster = make_cluster(backend, num_workers=2, spill_dir=spill_dir)
        if case == "a file":
            with pytest.raises(MapReduceError, match="not a usable directory"):
                cluster.run(FidCountJob(), FID_RECORDS)
            return
        assert dict(cluster.run(FidCountJob(), FID_RECORDS).outputs) == FID_COUNTS
        assert list(missing.iterdir()) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "name, value",
        [
            ("num_workers", 2.5),
            ("num_workers", True),
            ("num_workers", 0),
            ("num_workers", "2"),
        ],
    )
    def test_a_size_that_is_not_an_int_in_range_is_a_typed_error(self, backend, name, value):
        """A float count would fail mid-run and ``True`` would run as one
        worker, so the config and the cluster class both refuse them."""
        with pytest.raises(MapReduceError, match=f"{name} must be"):
            ClusterConfig(backend=backend, **{name: value})
        cluster_class = type(make_cluster(backend))
        with pytest.raises(MapReduceError, match=f"{name} must be"):
            cluster_class(**{name: value})


# ------------------------------------------------------------ stage driver
class TestWorkerSideShuffle:
    def test_map_task_returns_per_bucket_payloads(self):
        """Map tasks partition and encode locally; the driver never re-buckets pairs."""
        job = WordCountJob()
        codec = make_codec("compact")
        result = run_map_task(job, WORDS, num_reduce_tasks=8)
        assert result.buckets  # encoded per-bucket fragments, not (key, value) pairs
        for bucket_index, fragment in result.buckets:
            payload = codec.decode_bucket(fragment.read())
            assert payload  # empty buckets are not shipped
            for key in payload:
                assert job.partition(key, 8) == bucket_index
        total = sum(
            len(values)
            for _, fragment in result.buckets
            for values in codec.decode_bucket(fragment.read()).values()
        )
        counters = result.counters
        assert total == counters.shuffle_records
        assert counters.wire_bytes == sum(f.wire_bytes for _, f in result.buckets)
        assert counters.blob_put_count == 0

    def test_stable_hash_types(self):
        assert stable_hash(42) == 42
        assert stable_hash("word") == stable_hash("word")
        assert stable_hash(b"nfa") == stable_hash(b"nfa")
        assert stable_hash((1, 2, 3)) == stable_hash((1, 2, 3))
        assert stable_hash(("mixed", 1)) == stable_hash(("mixed", 1))
        # Containers of strings recurse element-wise: a frozenset's pickle
        # (and hence a naive pickle-based hash) depends on per-process
        # iteration order, so equality must hold regardless of build order.
        assert stable_hash(frozenset(["x", "y", "z"])) == stable_hash(frozenset(["z", "y", "x"]))
        assert stable_hash(("a", frozenset([1, 2]))) == stable_hash(("a", frozenset([2, 1])))
        assert stable_hash(("a", "b")) != stable_hash(("b", "a"))  # tuples stay ordered

    @pytest.mark.parametrize("backend", GENERIC_BACKENDS)
    def test_word_count_on_generic_backends(self, backend):
        result = make_cluster(backend, num_workers=2).run(WordCountJob(), WORDS)
        assert dict(result.outputs) == WORD_COUNTS
        assert result.metrics.input_records == len(WORDS)
        assert result.metrics.output_records == len(WORD_COUNTS)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fid_count_on_every_backend(self, backend):
        result = make_cluster(backend, num_workers=2).run(FidCountJob(), FID_RECORDS)
        assert dict(result.outputs) == FID_COUNTS
        assert result.metrics.input_records == len(FID_RECORDS)
        assert result.metrics.output_records == len(FID_COUNTS)

    def test_persistent_backend_requires_fid_records(self):
        cluster = PersistentProcessPoolCluster(num_workers=2)
        with pytest.raises(SequenceStoreError, match="non-negative integers"):
            cluster.run(WordCountJob(), WORDS)

    def test_processes_spelling_runs_the_shared_store_row(self, ex_dictionary, ex_database):
        """``processes`` publishes a store: descriptor-sized task inputs, and
        records that are not fid sequences have no process-pool path."""
        cluster = make_cluster("processes", num_workers=2)
        result = DSeqMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=ClusterConfig(backend=cluster)
        ).mine(ex_database)
        reference = DSeqMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        assert result.patterns() == reference.patterns()
        assert 0 < result.metrics.map_input_pickle_bytes < 1024
        with pytest.raises(SequenceStoreError, match="non-negative integers"):
            cluster.run(WordCountJob(), WORDS)

    @pytest.mark.parametrize("backend", GENERIC_BACKENDS)
    def test_in_process_backends_accept_unpicklable_records(self, backend):
        """The input-shipping metric must not crash backends that never pickle."""
        import threading

        class KeyOnly(MapReduceJob):
            def map(self, record):
                yield record[0], 1

            def reduce(self, key, values):
                yield key, sum(values)

        records = [("k", threading.Lock()), ("k", threading.Lock())]
        result = make_cluster(backend, num_workers=2).run(KeyOnly(), records)
        assert dict(result.outputs) == {"k": 2}
        assert result.metrics.map_input_pickle_bytes == 0  # unmeasurable, not fatal

    def test_persistent_backend_empty_input(self):
        result = PersistentProcessPoolCluster(num_workers=2).run(FidCountJob(), [])
        assert result.outputs == []
        assert result.metrics.input_records == 0

    def test_persistent_backend_file_transport(self, ex_dictionary, ex_database):
        """The store file the workers map changes nothing about the results."""
        reference = DSeqMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=ClusterConfig(num_workers=2)
        ).mine(ex_database)
        cluster = PersistentProcessPoolCluster(num_workers=2)
        result = DSeqMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=ClusterConfig(backend=cluster)
        ).mine(ex_database)
        assert result.patterns() == reference.patterns()
        assert result.metrics.wire_bytes == reference.metrics.wire_bytes

    def test_removed_store_transport_arguments_are_type_errors(self):
        """The store is always a file in the run directory; nothing selects it."""
        for cluster_class in (PersistentProcessPoolCluster, MultiHostCluster):
            with pytest.raises(TypeError, match="store_transport"):
                cluster_class(num_workers=2, store_transport="file")
        store = EncodedSequenceStore.from_sequences([[1]])
        with pytest.raises(TypeError, match="transport"):
            store.publish(transport="file")

    @pytest.mark.parametrize("backend", ("persistent-processes", "multihost"))
    def test_shuffle_metrics_match_simulated(self, backend):
        job = FidCountJob()
        simulated = SimulatedCluster(num_workers=2).run(job, FID_RECORDS)
        real = make_cluster(backend, num_workers=2).run(job, FID_RECORDS)
        assert dict(real.outputs) == dict(simulated.outputs)
        assert real.metrics.shuffle_records == simulated.metrics.shuffle_records
        assert real.metrics.shuffle_bytes == simulated.metrics.shuffle_bytes
        assert real.metrics.wire_bytes == simulated.metrics.wire_bytes
        assert real.metrics.wire_bytes > 0
        assert real.metrics.map_output_records == simulated.metrics.map_output_records
        # The pools ship store descriptors, not the records themselves.
        assert real.metrics.map_input_pickle_bytes > 0

    def test_empty_buckets_cost_nothing(self, reduce_tasks_per_worker):
        """A million buckets for four records allocate only the three that
        receive data; reduce order, outputs and every counter are those of
        the 8-bucket run."""
        import tracemalloc

        from repro.mapreduce.metrics import COUNTER_NAMES

        small = SimulatedCluster(num_workers=2).run(FidCountJob(), FID_RECORDS)
        reduce_tasks_per_worker(10**6 // 2)
        tracemalloc.start()
        try:
            huge = SimulatedCluster(num_workers=2).run(FidCountJob(), FID_RECORDS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024
        assert huge.outputs == small.outputs
        assert huge.metrics.reduce_bucket_bytes == small.metrics.reduce_bucket_bytes
        for name in COUNTER_NAMES:
            assert getattr(huge.metrics, name) == getattr(small.metrics, name), name

    def test_simulated_reduce_attribution_models_all_workers(self):
        result = SimulatedCluster(num_workers=3).run(WordCountJob(), WORDS)
        # One modeled entry per worker; times assigned to real (non-empty)
        # buckets only, spread by the greedy least-loaded schedule.
        assert len(result.metrics.reduce_task_seconds) == 3

    @pytest.mark.parametrize("cls", (SimulatedCluster, PersistentProcessPoolCluster))
    def test_shared_cluster_supports_concurrent_runs(self, cls):
        """One cluster instance serves overlapping run() calls safely."""
        from concurrent.futures import ThreadPoolExecutor as Pool

        cluster = cls(num_workers=2)
        with Pool(max_workers=4) as pool:
            futures = [pool.submit(cluster.run, FidCountJob(), FID_RECORDS) for _ in range(4)]
            results = [future.result() for future in futures]
        for result in results:
            assert dict(result.outputs) == FID_COUNTS

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_real_reduce_attribution_is_per_worker(self, backend):
        result = make_cluster(backend, num_workers=2).run(FidCountJob(), FID_RECORDS)
        seconds = result.metrics.reduce_task_seconds
        # Times are grouped by the worker that actually ran each bucket, so
        # there are at most num_workers entries (not one per reduce task).
        assert 1 <= len(seconds) <= 2
        assert all(value >= 0.0 for value in seconds)


# ------------------------------------------------------------------- miners
@pytest.mark.parametrize("backend", REAL_BACKENDS)
class TestMinerEquivalence:
    """D-SEQ, D-CAND, NAÏVE, and LASH produce identical patterns per backend."""

    @pytest.fixture(autouse=True)
    def _remember_backend(self, backend):
        self.backend = backend

    def assert_equivalent(self, make_miner, database):
        base = make_miner(ClusterConfig(num_workers=2)).mine(database)
        other = make_miner(ClusterConfig(backend=self.backend, num_workers=2)).mine(database)
        assert other.patterns() == base.patterns()
        assert other.metrics.shuffle_records == base.metrics.shuffle_records
        assert other.metrics.shuffle_bytes == base.metrics.shuffle_bytes
        assert other.metrics.wire_bytes == base.metrics.wire_bytes
        assert other.metrics.wire_bytes > 0

    def test_dseq(self, ex_dictionary, ex_database):
        self.assert_equivalent(
            lambda cluster: DSeqMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=cluster),
            ex_database,
        )

    def test_dcand(self, ex_dictionary, ex_database):
        self.assert_equivalent(
            lambda cluster: DCandMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=cluster),
            ex_database,
        )

    def test_naive(self, ex_dictionary, ex_database):
        self.assert_equivalent(
            lambda cluster: NaiveMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=cluster),
            ex_database,
        )

    def test_lash(self, ex_dictionary, ex_database):
        self.assert_equivalent(
            lambda cluster: GapConstrainedMiner(
                2, ex_dictionary, max_gap=1, max_length=3, cluster=cluster
            ),
            ex_database,
        )

    def test_cluster_instance_accepted(self, ex_dictionary, ex_database, backend):
        cluster = ClusterConfig(backend=make_cluster(backend, num_workers=2))
        miner = DSeqMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=cluster)
        reference = DSeqMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        assert miner.mine(ex_database).patterns() == reference.patterns()
