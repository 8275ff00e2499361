"""Thread- and process-pool execution of MapReduce jobs.

:class:`~repro.mapreduce.engine.SimulatedCluster` executes jobs in a single
process and *models* the makespan of ``num_workers`` workers; the clusters in
this module execute the same jobs on real local workers so that wall-clock
speed-ups can be demonstrated on a multi-core machine.

All backends run the exact same worker-side tasks as the simulated cluster
(:mod:`repro.mapreduce.tasks`): map tasks partition and combine locally and
return per-reduce-bucket payloads, so the driver never re-buckets individual
(key, value) pairs, and reduce tasks merge their bucket's fragments on the
worker.  Stage times are measured inside the workers and attributed to the
worker that actually ran each task.

The job reaches each pool worker once, as in the paper's Alg. 1 (one round in
which the constraint — FST + dictionary — is broadcast): every process-pool
backend hands it over through the pool initializer and its map and reduce
tasks carry a few-byte :class:`~repro.mapreduce.tasks.JobRef`.  Where workers
are forked (the default on Linux) the initializer arguments ride the fork
and the job is never pickled at all; under a spawn context it is pickled
once per worker, so jobs should be picklable (all jobs in this library are:
they hold only plain data such as FSTs, dictionaries and thresholds).  The
initializer ends by freezing the heap the worker inherited
(``gc.freeze()``): a worker only reads the driver's database, dictionary
and modules, so its collections never traverse them or dirty their
copy-on-write pages.  Workers are this library's own one-job processes; the
calling process's collector is never touched.

:class:`ProcessPoolCluster` still pickles each task's *input chunk* — a tax
that grows with the database and eats the speed-up in exactly the regime the
paper targets (database ≫ dictionary).  :class:`PersistentProcessPoolCluster`
removes it: the input database is packed once into a shared
:class:`~repro.sequences.store.EncodedSequenceStore`, every worker attaches
it once when the pool is initialized, and tasks carry only
:class:`~repro.sequences.store.StoreChunk` descriptors (store handle + offset
range).  :class:`ThreadPoolCluster` pickles nothing but shares the GIL, so it
helps only I/O-bound or GIL-releasing jobs; it is mainly useful as a cheap
sanity backend with real concurrent scheduling.
"""

from __future__ import annotations

import gc
from collections.abc import Sequence
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from contextlib import contextmanager
from typing import Any

from repro.mapreduce.base import BatchOutcome, StageDriverCluster, Task, split_ranges
from repro.mapreduce.faults import TaskContext
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.tasks import JobRef, deliver_job, run_store_map_task
from repro.sequences.store import StoreChunk, StoreHandle, as_encoded_store, attach_store

__all__ = ["PersistentProcessPoolCluster", "ProcessPoolCluster", "ThreadPoolCluster"]


class ExecutorCluster(StageDriverCluster):
    """Stage driver backed by a :class:`concurrent.futures.Executor`.

    One executor is created per :meth:`run` call, shared by the map and
    reduce stages, and kept out of instance state so a single cluster can
    serve concurrent runs.  When a *host* dies mid-round — a worker process
    exiting hard breaks the whole :class:`ProcessPoolExecutor`, surfacing as
    :class:`BrokenExecutor` on every in-flight future — the scope discards
    the broken pool, builds a fresh one from the same chunks/job (the shared
    store stays published for the whole run, so new workers re-attach it and
    are handed the job by the same initializer), and reports the casualties
    as per-task failures for the driver to retry on the surviving pool.
    """

    default_num_workers = 2

    def _make_executor(self, chunks: Sequence[Any], job: MapReduceJob) -> Executor:
        raise NotImplementedError

    @contextmanager
    def _executor_scope(self, chunks: Sequence[Any], job: MapReduceJob):
        pool = self._make_executor(chunks, job)

        def execute(tasks: list[Task], fail_fast: bool = True) -> BatchOutcome:
            nonlocal pool
            outcome = BatchOutcome()
            futures: dict[Any, int] = {}
            cancelled = False
            broken = False
            try:
                for index, (function, args) in enumerate(tasks):
                    futures[pool.submit(function, *args)] = index
            except BrokenExecutor as error:
                # The pool died at (or before) submit time; the tasks that
                # never launched fail right here, the ones already submitted
                # resolve through as_completed below with the pool's error.
                broken = True
                outcome.failures.extend(
                    (index, error) for index in range(len(futures), len(tasks))
                )
            for future in as_completed(list(futures)):
                if future.cancelled():
                    continue
                error = future.exception()
                if error is None:
                    outcome.results[futures[future]] = future.result()
                    continue
                # Failures land here in *observation* order — the first
                # entry is the batch's first cause, which the driver chains
                # onto the error that finally aborts the job.
                outcome.failures.append((futures[future], error))
                if isinstance(error, BrokenExecutor):
                    broken = True
                if fail_fast and not cancelled:
                    # Drop tasks that have not started yet — at the moment
                    # of failure, not after every earlier future drains — so
                    # the pool (and the driver's spill-directory cleanup
                    # that follows it) is not held up by doomed work.  Tasks
                    # already running finish before the scope exits (the
                    # executor's shutdown joins them), which is what
                    # guarantees no spill file is written after the driver
                    # removes the per-job spill directory.
                    cancelled = True
                    for other in futures:
                        other.cancel()
            if broken:
                # Host failover: replace the dead pool so retries (and the
                # next stage) run on fresh workers instead of failing on a
                # permanently broken executor.
                pool.shutdown(wait=False)
                pool = self._make_executor(chunks, job)
                outcome.recovered_hosts += 1
            return outcome

        try:
            yield execute
        finally:
            pool.shutdown(wait=True)


class ThreadPoolCluster(ExecutorCluster):
    """Executes MapReduce jobs on a local thread pool (no pickling tax)."""

    backend_name = "threads"

    def _make_executor(self, chunks: Sequence[Any], job: MapReduceJob) -> Executor:
        return ThreadPoolExecutor(max_workers=self.num_workers)


def _initialize_worker(ref: JobRef, job: MapReduceJob, handle: StoreHandle | None) -> None:
    """Pool initializer: what a worker process is given once, before any task.

    The job, held under the reference its tasks will carry; the job batch's
    shared store, attached; and a frozen heap — everything alive at this
    point was inherited from (or sent by) the driver and is only read from
    here on, so the worker's collector is told never to walk it.
    """
    deliver_job(ref, job)
    if handle is not None:
        attach_store(handle)
    gc.freeze()


class ProcessPoolCluster(ExecutorCluster):
    """Executes MapReduce jobs on a local process pool.

    The interface mirrors :class:`~repro.mapreduce.engine.SimulatedCluster`:
    ``run(job, records)`` returns a :class:`~repro.mapreduce.base.JobResult`
    with outputs and :class:`~repro.mapreduce.metrics.JobMetrics`.  Map and
    reduce task times are measured inside the workers; the reported
    ``map_seconds`` / ``reduce_seconds`` are therefore the per-stage maxima
    (the barrier semantics of the BSP model), while actual wall-clock time
    additionally includes pickling and scheduling overhead.
    """

    backend_name = "processes"

    def _task_job(self, job: MapReduceJob) -> JobRef:
        # Unique among the jobs alive in this process, which is all a worker
        # of this run's own pool needs to tell its job from a stranger's.
        return JobRef(id(job))

    def _make_executor(
        self, chunks: Sequence[Any], job: MapReduceJob, handle: StoreHandle | None = None
    ) -> Executor:
        return ProcessPoolExecutor(
            max_workers=self.num_workers,
            initializer=_initialize_worker,
            initargs=(self._task_job(job), job, handle),
        )


class PersistentProcessPoolCluster(ProcessPoolCluster):
    """Process pool whose workers attach a shared sequence store once.

    Per :meth:`run` call, the input records are packed into an
    :class:`~repro.sequences.store.EncodedSequenceStore` (reusing the cached
    store when the records *are* a :class:`~repro.sequences.database.SequenceDatabase`
    or a store already) and published via ``multiprocessing.shared_memory``
    (with a mmap'd temp-file fallback on hosts without a usable ``/dev/shm``).
    The pool's workers are initialized exactly once per job batch with the
    attached store; map tasks receive :class:`~repro.sequences.store.StoreChunk`
    descriptors and decode their slice zero-copy inside the worker, so the
    per-task input pickling cost (``map_input_pickle_bytes``) stays a few
    dozen bytes no matter how large the database is.  Outputs, shuffle
    metrics, and measured wire bytes are byte-identical to every other
    backend.

    ``store_transport`` forwards to
    :meth:`~repro.sequences.store.EncodedSequenceStore.publish`:
    ``"auto"`` (default), ``"shm"``, or ``"file"``.
    """

    backend_name = "persistent-processes"

    def __init__(self, *args, store_transport: str = "auto", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.store_transport = store_transport

    @contextmanager
    def _input_scope(self, records: Sequence[Any]):
        store = as_encoded_store(records)
        with store.published(self.spill_dir, self.store_transport) as handle:
            yield [
                StoreChunk(handle, start, stop)
                for start, stop in split_ranges(len(store), self.num_workers)
            ]

    def _map_task(
        self,
        job: MapReduceJob,
        chunk: StoreChunk,
        job_spill_dir: str | None,
        shuffle: Any = None,
        context: TaskContext | None = None,
    ) -> Task:
        return (
            run_store_map_task,
            (
                self._task_job(job),
                chunk,
                self.num_reduce_tasks,
                self.measure_shuffle,
                self.codec,
                self.spill_budget_bytes,
                job_spill_dir,
                context,
            ),
        )

    def _make_executor(self, chunks: Sequence[StoreChunk], job: MapReduceJob) -> Executor:
        return super()._make_executor(chunks, job, chunks[0].handle if chunks else None)
