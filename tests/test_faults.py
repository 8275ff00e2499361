"""Fault-tolerant execution: retry policy, injection, failover, GC.

Acceptance criteria of the fault layer (ISSUE 10): with a deterministic
injector killing one host mid-stage and failing a fraction of blob gets, all
five cluster miners on the multihost backend complete with patterns and
modeled metrics byte-identical to the fault-free run, with the retries visible
in the job metrics; with ``max_task_attempts=1`` the same injection raises
``MapReduceError`` and leaves the spill directory empty; and the run-directory
sweep reclaims expired run directories without touching young ones, foreign
files, symlinks or names that state no birth.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DCandMiner, DSeqMiner, NaiveMiner, SemiNaiveMiner
from repro.errors import CandidateExplosionError, MapReduceError
from repro.mapreduce import (
    BatchOutcome,
    ClusterConfig,
    Counters,
    DirectoryBlobStore,
    FaultInjectingBlobStore,
    FaultInjector,
    InjectedFault,
    InMemoryBlobStore,
    MapReduceJob,
    MultiHostCluster,
    PersistentProcessPoolCluster,
    ScriptedInjector,
    SimulatedCluster,
    TaskContext,
    get_with_retry,
    is_retryable,
    make_cluster,
    put_with_retry,
    write_lease,
)
from repro.mapreduce import base, blobstore, faults
from repro.mapreduce.base import expired_run_dirs, run_dir_birth, sweep_run_dirs
from repro.mapreduce.blobstore import BlobStoreError, delete_prefix
from repro.mapreduce.faults import full_jitter_delay, stable_fraction
from repro.sequential import GapConstrainedMiner

from tests.conftest import StoringSimulatedCluster
from tests.test_differential import MATRIX_PATEX, make_differential_database
from tests.test_multihost import FID_RECORDS, FidCountJob


@pytest.fixture(scope="module")
def corpus():
    return make_differential_database(count=40, seed=31)


# ----------------------------------------------------------- policy & jitter
class TestFaultPolicy:
    def test_defaults_give_one_retry(self):
        assert ClusterConfig().max_task_attempts == 2
        assert SimulatedCluster().max_task_attempts == 2

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"max_task_attempts": 0},
            {"max_task_attempts": 2.5},
            {"max_task_attempts": True},
            {"max_task_attempts": "2"},
        ),
    )
    def test_validation(self, kwargs):
        # Refused when the config is built and by the backend constructors.
        with pytest.raises(MapReduceError, match="max_task_attempts"):
            ClusterConfig(**kwargs)
        for cls in (SimulatedCluster, PersistentProcessPoolCluster, MultiHostCluster):
            with pytest.raises(MapReduceError, match="max_task_attempts"):
                cls(num_workers=2, **kwargs)

    def test_stable_fraction_is_deterministic_and_bounded(self):
        values = {stable_fraction("a", 1, 2.5) for _ in range(10)}
        assert len(values) == 1
        value = values.pop()
        assert 0.0 <= value < 1.0
        assert stable_fraction("a", 1, 2.5) != stable_fraction("a", 1, 2.6)

    def test_full_jitter_delay_is_deterministic_and_capped(self):
        for attempt in (1, 2, 3, 8):
            delay = full_jitter_delay(0.05, 0.2, attempt, "map", 3)
            assert delay == full_jitter_delay(0.05, 0.2, attempt, "map", 3)
            assert 0.0 <= delay < min(0.2, 0.05 * 2 ** (attempt - 1))
        assert full_jitter_delay(0.0, 0.2, 1, "x") == 0.0
        with pytest.raises(MapReduceError):
            full_jitter_delay(0.05, 0.2, 0)

    def test_backoff_delays_vary_with_token(self):
        def task_delay(*token):
            return full_jitter_delay(
                faults.TASK_BACKOFF_BASE_S, faults.TASK_BACKOFF_CAP_S, 1, "task", *token
            )

        def blob_delay(*token):
            return full_jitter_delay(
                blobstore.BLOB_BACKOFF_BASE_S, blobstore.BLOB_BACKOFF_CAP_S, 1, "blob", *token
            )

        assert task_delay("map", 0) == task_delay("map", 0)
        assert task_delay("map", 0) != task_delay("map", 1)
        assert blob_delay("get", "k") != blob_delay("get", "j")

    def test_is_retryable_classification(self):
        assert is_retryable(MapReduceError("host down"))
        assert is_retryable(InjectedFault("boom"))
        assert is_retryable(OSError("connection reset"))
        assert not is_retryable(CandidateExplosionError("accepting runs", 100))

    def test_cluster_fingerprint_covers_fault_knobs(self):
        base = ClusterConfig(num_workers=2).fingerprint()
        retried = ClusterConfig(num_workers=2, max_task_attempts=3).fingerprint()
        clean = ClusterConfig(backend=SimulatedCluster(num_workers=2)).fingerprint()
        fail_fast = ClusterConfig(
            backend=SimulatedCluster(num_workers=2, max_task_attempts=1)
        ).fingerprint()
        injected = ClusterConfig(
            backend=SimulatedCluster(
                num_workers=2, fault_injector=ScriptedInjector(kill_map_task=0)
            )
        ).fingerprint()
        assert len({base, retried, clean, fail_fast, injected}) == 5


# -------------------------------------------------------- injector mechanics
class TestScriptedInjector:
    def test_validation(self):
        with pytest.raises(MapReduceError):
            ScriptedInjector(kill_mode="maim")
        with pytest.raises(MapReduceError):
            ScriptedInjector(blob_get_failure_rate=1.5)
        with pytest.raises(MapReduceError):
            ScriptedInjector(blob_put_failure_rate=-0.1)

    @pytest.mark.parametrize(
        "knob", ("delay_stage", "delay_task", "delay_s", "delay_attempts")
    )
    def test_has_no_delay_knobs(self, knob):
        # Delays existed only to trip the post-hoc task timeout, now gone.
        with pytest.raises(TypeError):
            ScriptedInjector(**{knob: 1})

    def test_satisfies_protocol_and_pickles(self):
        injector = ScriptedInjector(kill_map_task=1, blob_get_failure_rate=0.2)
        assert isinstance(injector, FaultInjector)
        clone = pickle.loads(pickle.dumps(injector))
        assert clone == injector

    def test_kill_raises_only_for_scheduled_attempts(self):
        injector = ScriptedInjector(kill_map_task=2, kill_attempts=2)
        with pytest.raises(InjectedFault, match="map-task 2.*attempt 1"):
            injector.on_task_start("map", 2, 1)
        with pytest.raises(InjectedFault, match="attempt 2"):
            injector.on_task_start("map", 2, 2)
        injector.on_task_start("map", 2, 3)  # past the kill budget
        injector.on_task_start("map", 1, 1)  # different task
        injector.on_task_start("reduce", 2, 1)  # different stage

    def test_blob_decisions_are_pure_functions_of_seed(self):
        keys = [f"job-x/{index:02d}" for index in range(50)]

        def decide(injector):
            flaky = []
            for key in keys:
                try:
                    injector.on_blob_get(key, 0)
                    flaky.append(False)
                except BlobStoreError:
                    flaky.append(True)
            return flaky

        first = decide(ScriptedInjector(seed=3, blob_get_failure_rate=0.3))
        second = decide(ScriptedInjector(seed=3, blob_get_failure_rate=0.3))
        other_seed = decide(ScriptedInjector(seed=4, blob_get_failure_rate=0.3))
        assert first == second
        assert first != other_seed
        assert 0 < sum(first) < len(keys)

    def test_blob_failures_stop_after_per_key_budget(self):
        injector = ScriptedInjector(blob_put_failure_rate=1.0, blob_failures_per_key=2)
        with pytest.raises(BlobStoreError):
            injector.on_blob_put("k", 0)
        with pytest.raises(BlobStoreError):
            injector.on_blob_put("k", 1)
        injector.on_blob_put("k", 2)

    def test_injecting_store_wraps_put_get_only(self):
        inner = InMemoryBlobStore()
        store = FaultInjectingBlobStore(
            inner,
            ScriptedInjector(
                blob_get_failure_rate=1.0,
                blob_put_failure_rate=1.0,
                blob_failures_per_key=1,
            ),
        )
        with pytest.raises(BlobStoreError):
            store.put("k", b"v")
        store.put("k", b"v")  # second put of the key passes
        with pytest.raises(BlobStoreError):
            store.get("k")
        assert store.get("k") == b"v"
        assert store.list("") == ["k"]  # list is never injected
        store.delete("k")  # delete is never injected
        assert inner.list("") == []

    @pytest.mark.usefixtures("no_backoff")
    def test_store_retries_absorb_injected_failures(self):
        inner = InMemoryBlobStore()
        store = FaultInjectingBlobStore(
            inner,
            ScriptedInjector(
                blob_get_failure_rate=1.0,
                blob_put_failure_rate=1.0,
                blob_failures_per_key=2,
            ),
        )
        put_stats = Counters()
        put_with_retry(store, "k", b"payload", stats=put_stats)
        assert put_stats == Counters(blob_retry_count=2)
        get_stats = Counters()
        assert get_with_retry(store, "k", stats=get_stats) == b"payload"
        assert get_stats == Counters(blob_retry_count=2)

    @pytest.mark.usefixtures("no_backoff")
    def test_store_retries_exhaust_with_original_error(self):
        store = FaultInjectingBlobStore(
            InMemoryBlobStore(),
            ScriptedInjector(blob_get_failure_rate=1.0, blob_failures_per_key=99),
        )
        with pytest.raises(BlobStoreError, match="injected blob get failure"):
            get_with_retry(store, "k")
        assert store._get_calls == {"k": blobstore.BLOB_ATTEMPTS}


# ------------------------------------------------------- driver retry logic
class PoisonJob(MapReduceJob):
    """Fid count whose map can sleep or fail on marker records."""

    SLOW, FAST = (1,), (2,)

    def map(self, record):
        if record == self.SLOW:
            time.sleep(0.3)
            raise MapReduceError("slow poison")
        if record == self.FAST:
            raise MapReduceError("fast poison")
        yield record[0], 1

    def reduce(self, key, values):
        yield key, sum(values)


class ReduceFailsOnceJob(FidCountJob):
    """Fid count whose first reduce call of the run fails, after its task's
    blob gets: that caller creates ``marker`` (``O_EXCL``), later ones find it."""

    def __init__(self, marker):
        self.marker = str(marker)

    def reduce(self, key, values):
        try:
            os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            yield from super().reduce(key, values)
            return
        raise InjectedFault("first reduce call fails")


class ExplodingJob(FidCountJob):
    """Raises the non-retryable explosion error, counting its invocations."""

    def __init__(self):
        self.explosions = 0

    def map(self, record):
        if record == (99,):
            self.explosions += 1
            raise CandidateExplosionError("accepting runs", 100)
        yield from super().map(record)


@pytest.mark.usefixtures("no_backoff")
class TestDriverRetries:
    @pytest.mark.parametrize("cls", (SimulatedCluster, PersistentProcessPoolCluster))
    def test_transient_map_failure_is_retried_transparently(self, cls):
        baseline = cls(num_workers=3).run(FidCountJob(), FID_RECORDS)
        cluster = cls(
            num_workers=3,
            fault_injector=ScriptedInjector(kill_map_task=1, kill_attempts=1),
        )
        result = cluster.run(FidCountJob(), FID_RECORDS)
        assert sorted(result.outputs) == sorted(baseline.outputs)
        assert result.metrics.tasks_failed == 1
        assert result.metrics.task_retry_count == 1
        assert result.metrics.recovered_host_count == 0
        # The one successful attempt per task is the only one metered.
        for metric in ("shuffle_bytes", "shuffle_records", "wire_bytes",
                       "map_output_records", "combined_records", "output_records"):
            assert getattr(result.metrics, metric) == getattr(baseline.metrics, metric)

    def test_transient_reduce_failure_is_retried(self):
        baseline = make_cluster("simulated", num_workers=3).run(FidCountJob(), FID_RECORDS)
        cluster = SimulatedCluster(
            num_workers=3,
            fault_injector=ScriptedInjector(kill_reduce_task=0, kill_attempts=1),
        )
        result = cluster.run(FidCountJob(), FID_RECORDS)
        assert sorted(result.outputs) == sorted(baseline.outputs)
        assert result.metrics.task_retry_count == 1

    def test_exit_kill_degrades_to_raise_in_driver_process(self):
        # simulated runs tasks in the driver process, where an os._exit
        # would kill the test run itself; the injector degrades to a raised
        # fault there, and the retry still recovers the job.
        cluster = SimulatedCluster(
            num_workers=3,
            fault_injector=ScriptedInjector(kill_map_task=0, kill_mode="exit"),
        )
        result = cluster.run(FidCountJob(), FID_RECORDS)
        assert result.metrics.task_retry_count == 1

    def test_exhausted_attempts_reraise_original_chained_to_first_cause(self):
        cluster = SimulatedCluster(  # the default policy: max_task_attempts=2
            num_workers=3,
            fault_injector=ScriptedInjector(kill_map_task=0, kill_attempts=5),
        )
        with pytest.raises(InjectedFault, match="attempt 2") as excinfo:
            cluster.run(FidCountJob(), FID_RECORDS)
        # The final attempt's own exception propagates, chained onto the
        # stage's first observed failure (attempt 1).
        cause = excinfo.value.__cause__
        assert isinstance(cause, InjectedFault)
        assert "attempt 1" in str(cause)
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("map task 0 failed on attempt 2/2" in note for note in notes)

    def test_fail_fast_raises_first_observed_failure(self):
        # Two failing map tasks on a 2-worker process pool: the quick failure
        # is observed first even though the slow one was submitted first.
        cluster = make_cluster("persistent-processes", num_workers=2, max_task_attempts=1)
        with pytest.raises(MapReduceError, match="fast poison"):
            cluster.run(PoisonJob(), [PoisonJob.SLOW, PoisonJob.FAST])

    def test_non_retryable_explosion_fails_immediately(self):
        job = ExplodingJob()
        cluster = make_cluster("simulated", num_workers=3, max_task_attempts=4)
        with pytest.raises(CandidateExplosionError):
            cluster.run(job, FID_RECORDS + [(99,)])
        assert job.explosions == 1  # never retried, whatever the budget

    def test_default_executor_reports_batch_outcome(self, tmp_path):
        # The serial reference executor: failures are reported, not raised,
        # and fail_fast stops scheduling after the first one.
        cluster = make_cluster("simulated", num_workers=2)
        with cluster.executor.scope(cluster, [], None, str(tmp_path)) as (
            _chunks, _job, execute
        ):
            def boom():
                raise MapReduceError("boom")

            outcome = execute([(boom, ()), (lambda: "ok", ())], False)
            assert isinstance(outcome, BatchOutcome)
            assert outcome.results == {1: "ok"}
            assert [index for index, _ in outcome.failures] == [0]
            fast = execute([(boom, ()), (lambda: "ok", ())], True)
            assert fast.results == {}  # fail-fast stopped before task 1


#: The clusters that put every payload into the run's fragment store: in this
#: process, and on a process pool.
STORING_CLUSTERS = {"simulated-stored": StoringSimulatedCluster, "multihost": MultiHostCluster}


@pytest.mark.usefixtures("no_backoff")
class TestInjectedBlobCounts:
    def test_blob_faults_are_counted_per_attempt_on_every_backend(self, tmp_path):
        """Every task attempt wraps the store for the injector itself, so the
        in-process and the process-pool backend meter the same schedule: a
        reduce attempt that fails after its gets, then every put and every
        get of a flaky key failing once per attempt, the retried one's too."""
        injector = ScriptedInjector(
            blob_put_failure_rate=1.0,
            blob_get_failure_rate=1.0,
            blob_failures_per_key=1,
        )
        metrics = [
            build(num_workers=2, fault_injector=injector)
            .run(ReduceFailsOnceJob(tmp_path / name), FID_RECORDS)
            .metrics
            for name, build in STORING_CLUSTERS.items()
        ]
        simulated, pooled = metrics
        assert simulated.tasks_failed == pooled.tasks_failed == 1
        assert simulated.blob_retry_count == pooled.blob_retry_count
        for run in metrics:
            assert run.blob_put_count > 0 and run.blob_get_count > 0
            # The successful attempts' puts and gets each absorbed one fault.
            assert run.blob_retry_count == run.blob_put_count + run.blob_get_count

    @pytest.mark.usefixtures("no_backoff")
    @pytest.mark.parametrize("backend", STORING_CLUSTERS)
    def test_a_seeded_blob_schedule_replays_exactly(
        self, backend, corpus, tmp_path, monkeypatch
    ):
        """Blob keys are a pure function of the payloads, so one seeded
        schedule puts the same keys, fails the same ones and meters the same
        retries on every run."""
        dictionary, database = corpus
        log = tmp_path / "puts.log"
        real_put = DirectoryBlobStore.put

        def logged_put(store, key, data):  # forked hosts inherit it
            with open(log, "a") as handle:
                handle.write(key + "\n")
            real_put(store, key, data)

        monkeypatch.setattr(DirectoryBlobStore, "put", logged_put)
        runs = []
        for _ in range(2):
            cluster = STORING_CLUSTERS[backend](
                num_workers=2,
                fault_injector=ScriptedInjector(blob_get_failure_rate=0.2, seed=3),
            )
            result = DSeqMiner(
                MATRIX_PATEX, 2, dictionary, cluster=ClusterConfig(backend=cluster)
            ).mine(database)
            runs.append((sorted(log.read_text().split()), result.metrics.blob_retry_count))
            log.unlink()
        assert runs[0][0] and runs[0][1] > 0  # this seed fails a key
        assert runs[0] == runs[1]


@pytest.mark.usefixtures("no_backoff")
class TestHostFailover:
    def test_dead_host_tasks_are_redispatched(self):
        baseline = make_cluster("persistent-processes", num_workers=2).run(
            FidCountJob(), FID_RECORDS
        )
        cluster = PersistentProcessPoolCluster(
            num_workers=2,
            fault_injector=ScriptedInjector(kill_map_task=0, kill_mode="exit"),
        )
        result = cluster.run(FidCountJob(), FID_RECORDS)
        assert sorted(result.outputs) == sorted(baseline.outputs)
        assert result.metrics.recovered_host_count >= 1
        assert result.metrics.task_retry_count >= 1
        for metric in ("shuffle_bytes", "wire_bytes", "output_records"):
            assert getattr(result.metrics, metric) == getattr(baseline.metrics, metric)


# ----------------------------------------------- acceptance: injected miners
def _acceptance_miner(name, dictionary, cluster):
    if name == "dseq":
        return DSeqMiner(MATRIX_PATEX, 2, dictionary, cluster=cluster)
    if name == "dcand":
        return DCandMiner(MATRIX_PATEX, 2, dictionary, cluster=cluster)
    if name == "naive":
        return NaiveMiner(MATRIX_PATEX, 2, dictionary, cluster=cluster)
    if name == "semi-naive":
        return SemiNaiveMiner(MATRIX_PATEX, 2, dictionary, cluster=cluster)
    if name == "lash":
        return GapConstrainedMiner(
            2, dictionary, max_gap=1, max_length=3, cluster=cluster
        )
    raise AssertionError(name)


MINER_NAMES = ("dseq", "dcand", "naive", "semi-naive", "lash")


@pytest.mark.usefixtures("no_backoff")
class TestInjectedMultiHost:
    @pytest.mark.parametrize("miner_name", MINER_NAMES)
    def test_host_kill_and_flaky_blobs_stay_byte_identical(self, miner_name, corpus):
        """ISSUE 10 acceptance: one host killed mid-map + 20% flaky blob gets."""
        dictionary, database = corpus
        reference = _acceptance_miner(
            miner_name, dictionary, ClusterConfig(backend="simulated", num_workers=2)
        ).mine(database)
        injected = _acceptance_miner(
            miner_name,
            dictionary,
            ClusterConfig(
                backend=MultiHostCluster(
                    num_workers=2,
                            fault_injector=ScriptedInjector(
                        kill_map_task=0, kill_mode="exit", blob_get_failure_rate=0.2
                    ),
                ),
            ),
        ).mine(database)
        assert injected.patterns() == reference.patterns()
        for metric in ("shuffle_bytes", "shuffle_records", "wire_bytes",
                       "map_output_records", "combined_records", "output_records"):
            assert getattr(injected.metrics, metric) == (
                getattr(reference.metrics, metric)
            ), metric
        assert injected.metrics.task_retry_count > 0
        assert injected.metrics.recovered_host_count >= 1
        assert reference.metrics.task_retry_count == 0

    def test_host_killed_mid_reduce_recovers(self, corpus):
        dictionary, database = corpus
        reference = DSeqMiner(
            MATRIX_PATEX, 2, dictionary,
            cluster=ClusterConfig(backend="simulated", num_workers=2),
        ).mine(database)
        injected = DSeqMiner(
            MATRIX_PATEX, 2, dictionary,
            cluster=ClusterConfig(
                backend=MultiHostCluster(
                    num_workers=2,
                            fault_injector=ScriptedInjector(kill_reduce_task=0, kill_mode="exit"),
                ),
            ),
        ).mine(database)
        assert injected.patterns() == reference.patterns()
        assert injected.metrics.task_retry_count > 0
        assert injected.metrics.recovered_host_count >= 1

    def test_flaky_blob_gets_surface_as_blob_retries(self, corpus):
        dictionary, database = corpus
        reference = DSeqMiner(
            MATRIX_PATEX, 2, dictionary,
            cluster=ClusterConfig(backend="simulated", num_workers=2),
        ).mine(database)
        injected = DSeqMiner(
            MATRIX_PATEX, 2, dictionary,
            cluster=ClusterConfig(
                backend=MultiHostCluster(
                    num_workers=2,
                            fault_injector=ScriptedInjector(
                        blob_get_failure_rate=1.0,
                        blob_put_failure_rate=1.0,
                        blob_failures_per_key=2,
                    ),
                ),
            ),
        ).mine(database)
        assert injected.patterns() == reference.patterns()
        assert injected.metrics.blob_retry_count > 0
        assert injected.metrics.task_retry_count == 0  # absorbed below task level

    def test_exhausted_attempts_raise_and_leave_spill_dir_clean(self, corpus, tmp_path):
        dictionary, database = corpus
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        miner = DSeqMiner(
            MATRIX_PATEX, 2, dictionary,
            cluster=ClusterConfig(
                backend=MultiHostCluster(
                    num_workers=2,
                    spill_dir=str(spill_dir),
                    max_task_attempts=1,
                    fault_injector=ScriptedInjector(kill_map_task=0),
                ),
            ),
        )
        with pytest.raises(MapReduceError):
            miner.mine(database)
        # The run directory (blobs and store file alike) goes on failure.
        assert DirectoryBlobStore(str(spill_dir)).list("") == []


# ------------------------------------------------------ run-directory GC
def make_run_dirs(parent, *names):
    for name in names:
        (parent / name).mkdir()
        (parent / name / "blob").write_bytes(name.encode())


class TestRunDirGc:
    def test_lease_round_trip(self):
        store = InMemoryBlobStore()
        key = write_lease(store, "job-a", now=123.0)
        assert key == "job-a/.lease"
        stamp = json.loads(store.get(key))
        assert stamp["created_at"] == 123.0
        assert stamp["pid"] and stamp["host"]

    def test_a_run_directory_name_states_its_birth(self, tmp_path):
        before = int(time.time())
        path = Path(base.make_run_dir(tmp_path))
        assert path.parent == tmp_path
        assert before <= run_dir_birth(path.name) <= time.time()

    def test_gc_sweeps_only_expired_run_dirs(self, tmp_path):
        now = 1_000_000
        make_run_dirs(tmp_path, f"repro-run-{now - 10_000}-dead", f"repro-run-{now - 10}-live")
        (tmp_path / "unstamped").mkdir()
        (tmp_path / "repro-run-abc12345").mkdir()  # made before the stamp
        swept = sweep_run_dirs(tmp_path, 3600, now=now)
        assert swept == [str(tmp_path / f"repro-run-{now - 10_000}-dead")]
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            f"repro-run-{now - 10}-live", "repro-run-abc12345", "unstamped",
        ]

    def test_gc_zero_ttl_sweeps_every_past_run_dir(self, tmp_path):
        make_run_dirs(tmp_path, "repro-run-5-a", "repro-run-6-b")
        assert sweep_run_dirs(tmp_path, 0.0, now=7) == [
            str(tmp_path / "repro-run-5-a"), str(tmp_path / "repro-run-6-b"),
        ]
        assert list(tmp_path.iterdir()) == []

    def test_delete_prefix_tolerates_concurrent_deletion(self, tmp_path):
        store = DirectoryBlobStore(str(tmp_path))
        store.put("job-x/a", b"1")
        store.put("job-x/b", b"2")

        class RacingStore:
            """First delete also removes the other key, as a racing GC would."""

            def __init__(self, inner):
                self.inner = inner
                self.raced = False

            def list(self, prefix=""):
                return self.inner.list(prefix)

            def delete(self, key):
                if not self.raced:
                    self.raced = True
                    for other in list(self.inner.list("job-x")):
                        self.inner.delete(other)
                self.inner.delete(key)

        dropped = delete_prefix(RacingStore(store), "job-x")
        assert dropped >= 1
        assert store.list("job-x") == []

    def test_gc_tolerates_a_vanishing_run_dir(self, tmp_path, monkeypatch):
        make_run_dirs(tmp_path, "repro-run-1-gone", "repro-run-2-kept")
        real = base.expired_run_dirs

        def racing(*args, **kwargs):
            expired = real(*args, **kwargs)
            base.shutil.rmtree(expired[0])  # a racing sweep got there first
            return expired

        monkeypatch.setattr(base, "expired_run_dirs", racing)
        assert len(sweep_run_dirs(tmp_path, 0.0, now=10)) == 2
        assert list(tmp_path.iterdir()) == []

    def test_a_failing_sweep_never_fails_the_run(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise PermissionError("cannot list the spill dir")

        monkeypatch.setattr(base, "sweep_run_dirs", broken)
        result = SimulatedCluster(num_workers=2, spill_dir=str(tmp_path)).run(
            FidCountJob(), FID_RECORDS
        )
        assert len(result.outputs) == 7


class TestHostileRunDirNames:
    """A spill directory holds foreign names: none may crash a sweep or be
    swept unless it states a birth, and the dry run and the sweep share one
    expiry rule."""

    TTL = 3600.0
    NOW = 1_000_000.0

    def _sweep(self, tmp_path, name: str) -> None:
        live = tmp_path / f"repro-run-{int(self.NOW)}-live"
        live.mkdir(exist_ok=True)
        birth = run_dir_birth(name)
        assert birth is None or isinstance(birth, int)
        if not name or "/" in name or "\x00" in name or name in (".", ".."):
            return  # not a directory entry's name
        (tmp_path / name).mkdir(exist_ok=True)
        expired = expired_run_dirs(tmp_path, self.TTL, now=self.NOW)
        assert sweep_run_dirs(tmp_path, self.TTL, now=self.NOW) == expired
        assert set(expired) <= {str(tmp_path / name)}
        assert live.is_dir()
        if (tmp_path / name).exists():
            (tmp_path / name).rmdir()

    @pytest.mark.parametrize(
        "name",
        [
            "repro-run-nan-x",
            "repro-run--1-x",
            "repro-run-" + "9" * 5000 + "-x",
            "repro-run-" + "9" * 21 + "-x",
            "repro-run-inf-x",
            "repro-run-1e3-x",
            "repro-run-+1-x",
            "repro-run- 1-x",
            "repro-run-1_0-x",
            "repro-run-0x1-x",
            "repro-run-\uff11-x",  # a fullwidth digit one
            "repro-run-\u0661-x",  # an Arabic-Indic digit one
            "repro-run-1",
            "repro-run-1-",
            "repro-run-",
            "repro-run",
            "Repro-run-1-x",
        ],
        ids=lambda name: name[:24],
    )
    def test_names_stating_no_birth_are_never_swept(self, tmp_path, name):
        assert run_dir_birth(name) is None
        if len(name.encode()) > 255:  # no file system stores it; parsed above
            return
        (tmp_path / name).mkdir()
        assert sweep_run_dirs(tmp_path, 0.0, now=self.NOW) == []
        assert (tmp_path / name).is_dir()

    def test_an_old_stamp_is_swept(self, tmp_path):
        make_run_dirs(tmp_path, "repro-run-1-x")
        assert sweep_run_dirs(tmp_path, self.TTL, now=self.NOW) == [
            str(tmp_path / "repro-run-1-x")
        ]

    def test_a_symlink_with_a_run_dir_name_is_never_followed(self, tmp_path):
        spill_dir, target = tmp_path / "spill", tmp_path / "target"
        spill_dir.mkdir()
        make_run_dirs(tmp_path, "target")
        (spill_dir / "repro-run-1-x").symlink_to(target, target_is_directory=True)
        (spill_dir / "repro-run-2-x").write_bytes(b"a file, not a directory")
        assert sweep_run_dirs(spill_dir, 0.0, now=self.NOW) == []
        assert (target / "blob").read_bytes() == b"target"

    def test_every_truncation_and_character_change_of_a_name(self, tmp_path):
        name = "repro-run-900000-ab_9x"
        for end in range(len(name) + 1):
            self._sweep(tmp_path, name[:end])
        for index in range(len(name)):
            for replacement in "0-9a_.\x00/ \u0663":
                self._sweep(tmp_path, name[:index] + replacement + name[index + 1:])

    def test_random_strings_as_names(self, tmp_path):
        rng = random.Random(30)
        alphabet = "repro-un0123456789x_ .\u0661"
        for _ in range(300):
            length = rng.randrange(40)
            self._sweep(tmp_path, "".join(rng.choice(alphabet) for _ in range(length)))


# -------------------------------------------------------------- property tests
class TestRetryProperties:
    @pytest.mark.usefixtures("no_backoff")
    @given(k=st.integers(min_value=1, max_value=3))
    @settings(max_examples=6, deadline=None)
    def test_k_retries_stay_byte_identical_without_double_counting(self, k):
        baseline = make_cluster("simulated", num_workers=3).run(
            FidCountJob(), FID_RECORDS
        )
        cluster = SimulatedCluster(
            num_workers=3,
            max_task_attempts=k + 1,
            fault_injector=ScriptedInjector(kill_map_task=0, kill_attempts=k),
        )
        result = cluster.run(FidCountJob(), FID_RECORDS)
        assert sorted(result.outputs) == sorted(baseline.outputs)
        assert result.metrics.tasks_failed == k
        assert result.metrics.task_retry_count == k
        # Retried attempts never double-count the modeled or measured traffic.
        for metric in ("shuffle_bytes", "shuffle_records", "wire_bytes",
                       "map_output_records", "combined_records",
                       "map_input_pickle_bytes", "output_records"):
            assert getattr(result.metrics, metric) == (
                getattr(baseline.metrics, metric)
            ), metric

    @given(
        attempt=st.integers(min_value=1, max_value=6),
        slot=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_jitter_is_replayable_and_within_window(self, attempt, slot):
        base, cap = faults.TASK_BACKOFF_BASE_S, faults.TASK_BACKOFF_CAP_S
        delay = full_jitter_delay(base, cap, attempt, "task", "map", slot)
        assert delay == full_jitter_delay(base, cap, attempt, "task", "map", slot)
        assert 0.0 <= delay < min(cap, base * 2 ** (attempt - 1))


# --------------------------------------------------------------- task context
class TestTaskContext:
    def test_pickles_and_begins(self):
        context = TaskContext(
            stage="map", index=3, attempt=2,
            injector=ScriptedInjector(kill_map_task=3, kill_attempts=2),
        )
        clone = pickle.loads(pickle.dumps(context))
        with pytest.raises(InjectedFault):
            clone.begin()
        TaskContext(stage="map", index=0, attempt=1).begin()  # no injector: no-op
