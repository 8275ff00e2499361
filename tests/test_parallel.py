"""Tests for the process-pool MapReduce cluster."""

from __future__ import annotations

import functools
import gc
import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import pytest

from repro.core import DSeqMiner
from repro.core.dseq import DSeqJob
from repro.errors import MapReduceError
from repro.mapreduce import (
    ClusterConfig,
    FaultPolicy,
    JobNotDeliveredError,
    JobRef,
    MapReduceJob,
    PersistentProcessPoolCluster,
    ProcessExecutor,
    ScriptedInjector,
    SimulatedCluster,
    TaskContext,
    is_retryable,
    make_cluster,
    parallel,
    run_map_task,
    run_reduce_task,
)
from repro.sequences import as_mining_records

from tests.conftest import RUNNING_EXAMPLE_PATEX


class WordCountJob(MapReduceJob):
    """Top-level (picklable) word-count job used by the tests."""

    use_combiner = True

    def map(self, record):
        for item in record:
            yield item, 1

    def combine(self, key, values):
        yield key, sum(values)

    def reduce(self, key, values):
        yield key, sum(values)

    def record_size(self, key, value):
        return 12


class PlainWordCountJob(WordCountJob):
    """Word count without a combiner (exercises the no-combine path)."""

    use_combiner = False


RECORDS = [(1, 2, 2, 3), (2, 3), (3, 3, 3), (1,)]
EXPECTED = {1: 2, 2: 3, 3: 5}


def process_pool(num_workers: int, **options):
    """The ``processes`` spelling: the shared-store process-pool backend."""
    return make_cluster("processes", num_workers=num_workers, **options)


class TestProcessPoolCluster:
    def test_word_count_matches_expected(self):
        cluster = process_pool(2)
        result = cluster.run(WordCountJob(), RECORDS)
        assert dict(result.outputs) == EXPECTED
        assert result.metrics.input_records == len(RECORDS)
        assert result.metrics.output_records == len(EXPECTED)
        assert result.metrics.shuffle_bytes > 0
        assert len(result.metrics.map_task_seconds) == 2

    def test_matches_simulated_cluster_outputs(self):
        job = WordCountJob()
        parallel = process_pool(2).run(job, RECORDS)
        simulated = SimulatedCluster(num_workers=2).run(job, RECORDS)
        assert dict(parallel.outputs) == dict(simulated.outputs)
        assert parallel.metrics.shuffle_records == simulated.metrics.shuffle_records
        assert parallel.metrics.shuffle_bytes == simulated.metrics.shuffle_bytes

    def test_without_combiner(self):
        result = process_pool(2).run(PlainWordCountJob(), RECORDS)
        assert dict(result.outputs) == EXPECTED
        # Without a combiner every map output record is shuffled.
        assert result.metrics.shuffle_records == sum(len(record) for record in RECORDS)

    def test_single_worker(self):
        result = process_pool(1).run(WordCountJob(), RECORDS)
        assert dict(result.outputs) == EXPECTED

    def test_empty_input(self):
        result = process_pool(2).run(WordCountJob(), [])
        assert result.outputs == []
        assert result.metrics.total_seconds == 0.0

    def test_rejects_bad_worker_count(self):
        with pytest.raises(MapReduceError):
            process_pool(0)
        with pytest.raises(MapReduceError, match="num_workers must be >= 1"):
            process_pool(-1)
        # The bucket count is REDUCE_TASKS_PER_WORKER per worker, no setting.
        with pytest.raises(TypeError, match="num_reduce_tasks"):
            process_pool(2, num_reduce_tasks=0)

    def test_dseq_job_runs_on_process_pool(self, ex_dictionary, ex_database):
        """The real D-SEQ job is picklable and produces the paper's result."""
        miner = DSeqMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=ClusterConfig(num_workers=2)
        )
        expected = miner.mine(ex_database).patterns()

        fst = miner.patex.compile(ex_dictionary)
        job = DSeqJob(fst, ex_dictionary, 2)
        result = process_pool(2).run(job, as_mining_records(ex_database))
        assert dict(result.outputs) == expected


# ------------------------------------------------- the job reaches a worker once
POOL_BACKENDS = ("persistent-processes", "multihost")
IN_PROCESS_BACKENDS = ("simulated",)


class BulkyJob(WordCountJob):
    """Pickles to ~64 KB, like a job holding an FST and a dictionary."""

    def __init__(self) -> None:
        self.ballast = os.urandom(64 * 1024)


class UnpicklableJob(WordCountJob):
    def __getstate__(self):
        raise RuntimeError("this job must ride the fork, never a pickle")


#: Appended to by :class:`PickleCountingJob` in the process that pickles it.
PICKLES: list[int] = []


class PickleCountingJob(WordCountJob):
    def __getstate__(self):
        PICKLES.append(os.getpid())
        return {}


class ScaledCountJob(WordCountJob):
    """Counts times ``factor``: two of them can be told apart by their output."""

    def __init__(self, factor: int) -> None:
        self.factor = factor

    def reduce(self, key, values):
        yield key, self.factor * sum(values)


class StrangerRefExecutor(ProcessExecutor):
    """A process pool whose tasks name a job no worker was ever handed."""

    @contextmanager
    def scope(self, cluster, records, job, run_dir):
        with super().scope(cluster, records, job, run_dir) as (chunks, _ref, execute):
            yield chunks, JobRef(424242), execute


def task_context(stage: str, index: int = 0) -> TaskContext:
    return TaskContext(stage, index, 1, None)


def first_tasks(cluster, job):
    """The arguments of the first map task and of the first reduce task that
    ``cluster``'s driver schedules in a run of ``job`` over ``RECORDS``."""
    executor = cluster.executor
    scheduled = []

    class RecordingExecutor(type(executor)):
        @contextmanager
        def scope(self, *args):
            with executor.scope(*args) as (chunks, task_job, execute):

                def record(tasks, fail_fast=True):
                    scheduled.append(tasks[0])
                    return execute(tasks, fail_fast)

                yield chunks, task_job, record

    cluster.executor = RecordingExecutor()
    try:
        cluster.run(job, RECORDS)
    finally:
        cluster.executor = executor
    (map_function, map_args), (reduce_function, reduce_args) = scheduled
    # The two tasks every backend schedules.
    assert (map_function, reduce_function) == (run_map_task, run_reduce_task)
    return map_args, reduce_args


forked_pools = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="initializer arguments ride a fork only where pools fork",
)


class TestJobDelivery:
    @pytest.mark.parametrize("backend", POOL_BACKENDS)
    def test_pool_tasks_carry_a_reference_not_the_job(self, backend):
        cluster = make_cluster(backend, num_workers=2)
        job = BulkyJob()
        assert len(pickle.dumps(job)) > 64 * 1024
        map_args, reduce_args = first_tasks(cluster, job)
        for arguments in (map_args, reduce_args):
            assert isinstance(arguments[0], JobRef)
            assert not any(argument is job for argument in arguments)
            assert len(pickle.dumps(arguments, protocol=pickle.HIGHEST_PROTOCOL)) < 1024

    @pytest.mark.parametrize("backend", IN_PROCESS_BACKENDS)
    def test_in_process_tasks_keep_the_object(self, backend):
        cluster = make_cluster(backend, num_workers=2)
        job = UnpicklableJob()
        map_args, reduce_args = first_tasks(cluster, job)
        assert map_args[0] is job and reduce_args[0] is job
        assert dict(cluster.run(job, RECORDS).outputs) == EXPECTED

    @forked_pools
    @pytest.mark.parametrize("backend", POOL_BACKENDS)
    def test_a_job_that_cannot_pickle_completes_on_forked_pools(self, backend):
        result = make_cluster(backend, num_workers=2).run(UnpicklableJob(), RECORDS)
        assert dict(result.outputs) == EXPECTED
        assert result.metrics.tasks_failed == 0

    @forked_pools
    @pytest.mark.usefixtures("no_backoff")
    def test_a_pool_rebuilt_after_a_host_death_is_handed_the_job_again(self):
        cluster = PersistentProcessPoolCluster(
            num_workers=2,
            fault_injector=ScriptedInjector(kill_map_task=0, kill_mode="exit"),
        )
        result = cluster.run(UnpicklableJob(), RECORDS)
        assert dict(result.outputs) == EXPECTED
        assert result.metrics.recovered_host_count >= 1

    def test_spawned_workers_are_sent_the_job_once_each(self, monkeypatch):
        monkeypatch.setattr(
            parallel,
            "ProcessPoolExecutor",
            functools.partial(
                ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
            ),
        )
        PICKLES.clear()
        cluster = make_cluster("persistent-processes", num_workers=2)
        result = cluster.run(PickleCountingJob(), RECORDS)
        assert dict(result.outputs) == EXPECTED
        # Two map tasks and three reduce tasks ran; the job travelled per worker.
        assert len(result.metrics.map_task_seconds) == 2
        assert 1 <= len(PICKLES) <= cluster.num_workers
        assert set(PICKLES) == {os.getpid()}

    def test_a_stranger_reference_fails_loudly_and_is_not_retried(self):
        with pytest.raises(JobNotDeliveredError) as caught:
            run_map_task(JobRef(7), [], 4, context=task_context("map", 3))
        assert "map task 3" in str(caught.value) and "token 7" in str(caught.value)
        with pytest.raises(JobNotDeliveredError, match="reduce task 5.*token 7"):
            run_reduce_task(JobRef(7), [], context=task_context("reduce", 5))
        assert not is_retryable(caught.value)
        # The same through a pool: the typed error crosses the process
        # boundary and aborts on the first attempt of a two-attempt policy.
        cluster = make_cluster("persistent-processes", num_workers=2)
        cluster.executor = StrangerRefExecutor()
        assert cluster.fault_policy.max_task_attempts == 2
        with pytest.raises(JobNotDeliveredError, match="map task [01].*token 424242") as caught:
            cluster.run(WordCountJob(), RECORDS)
        if hasattr(caught.value, "__notes__"):
            assert any("attempt 1/2" in note for note in caught.value.__notes__)

    def test_two_threads_sharing_a_cluster_each_get_their_own_job(self):
        run_two_jobs_at_once(make_cluster("persistent-processes", num_workers=2))

    @pytest.mark.parametrize("backend", ("simulated", "multihost"))
    def test_every_backend_keeps_concurrent_jobs_apart(self, backend):
        run_two_jobs_at_once(make_cluster(backend, num_workers=2))


def run_two_jobs_at_once(cluster) -> None:
    """Two threads run differently scaled jobs on one cluster, three rounds
    each; every run must see its own job's output."""
    start = threading.Barrier(2)
    outputs: dict[int, dict] = {}

    def run(factor: int) -> None:
        start.wait(timeout=30)
        for _round in range(3):
            result = cluster.run(ScaledCountJob(factor), RECORDS)
            outputs.setdefault(factor, dict(result.outputs))
            assert dict(result.outputs) == outputs[factor]

    threads = [
        threading.Thread(target=run, args=(factor,), daemon=True) for factor in (2, 5)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for factor in (2, 5):
        assert outputs[factor] == {key: factor * count for key, count in EXPECTED.items()}


# --------------------------------------------- forked workers freeze their heap
class HeapProbeJob(WordCountJob):
    """Every reduce reports the collector state of the process that ran it."""

    def reduce(self, key, values):
        yield key, (gc.get_freeze_count(), len(gc.get_objects()))


class FailingJob(WordCountJob):
    def map(self, record):
        raise MapReduceError("this run fails")


def collector_state() -> tuple:
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


class TestFrozenWorkerHeap:
    @pytest.mark.parametrize("backend", POOL_BACKENDS)
    def test_pool_workers_collect_only_what_they_allocate(self, backend):
        tracked_by_driver = len(gc.get_objects())
        result = make_cluster(backend, num_workers=2).run(HeapProbeJob(), RECORDS)
        assert len(result.outputs) == len(EXPECTED)
        for _key, (frozen, tracked) in result.outputs:
            assert frozen > 0
            assert tracked < tracked_by_driver // 4

    @pytest.mark.parametrize("backend", IN_PROCESS_BACKENDS)
    def test_in_process_backends_freeze_nothing(self, backend):
        frozen_before = gc.get_freeze_count()
        result = make_cluster(backend, num_workers=2).run(HeapProbeJob(), RECORDS)
        assert {frozen for _key, (frozen, _tracked) in result.outputs} == {frozen_before}

    @pytest.mark.parametrize("backend", IN_PROCESS_BACKENDS + POOL_BACKENDS)
    def test_the_calling_process_keeps_its_collector_state(self, backend):
        before = collector_state()
        make_cluster(backend, num_workers=2).run(WordCountJob(), RECORDS)
        assert collector_state() == before
        failing = make_cluster(
            backend, num_workers=2, fault_policy=FaultPolicy(max_task_attempts=1)
        )
        with pytest.raises(MapReduceError, match="this run fails"):
            failing.run(FailingJob(), RECORDS)
        assert collector_state() == before
