"""The process-pool executor, and the two backends built on it.

The :class:`~repro.mapreduce.base.InlineExecutor` runs tasks in the calling
process and *models* the makespan of ``num_workers`` workers; the executor in
this module runs the same worker-side tasks (:mod:`repro.mapreduce.tasks`) on
real local worker processes so that wall-clock speed-ups can be demonstrated
on a multi-core machine.  Stage times are measured inside the workers and
attributed to the worker that actually ran each task.

:class:`ProcessExecutor` never pickles the database per task — a tax that
grows with the database and eats the speed-up in exactly the regime the paper
targets (database ≫ dictionary).  Per run, it packs the input records into an
:class:`~repro.sequences.store.EncodedSequenceStore` (reusing the cached store
when the records *are* a :class:`~repro.sequences.database.SequenceDatabase`
or a store already), so they must be fid sequences, and publishes it as one
file in the run directory.  Every worker maps that file once, and map tasks
carry :class:`~repro.sequences.store.StoreChunk` descriptors (store handle +
offset range) that they decode zero-copy inside the worker.  The file goes
when the stage driver removes the run directory.

The job reaches each pool worker once, as in the paper's Alg. 1 (one round in
which the constraint — FST + dictionary — is broadcast): the pool initializer
hands it over and the map and reduce tasks carry a few-byte
:class:`~repro.mapreduce.tasks.JobRef`.  Where workers are forked (the
default on Linux) the initializer arguments ride the fork and the job is
never pickled at all; under a spawn context it is pickled once per worker, so
jobs should be picklable (all jobs in this library are: they hold only plain
data such as FSTs, dictionaries and thresholds).  The initializer ends by
freezing the heap the worker inherited (``gc.freeze()``): a worker only reads
the driver's database, dictionary and modules, so its collections never
traverse them or dirty their copy-on-write pages.  Workers are this library's
own one-job processes; the calling process's collector is never touched.

Both pool backends are a row of the stage driver (see
:mod:`repro.mapreduce.base`).  :class:`MultiHostCluster` differs from
:class:`PersistentProcessPoolCluster` only in putting every encoded payload
into the run's fragment store, so map and reduce hosts exchange nothing but
blob keys through the driver — the shape of a fleet of stateless hosts
shuffling through an object store.
"""

from __future__ import annotations

import gc
from collections.abc import Callable, Sequence
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from typing import Any

from repro.mapreduce.base import BatchOutcome, StageDriverCluster, Task, split_ranges
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.tasks import JobRef, ReduceTaskResult, deliver_job
from repro.sequences.store import StoreChunk, StoreHandle, as_encoded_store, attach_store

__all__ = ["MultiHostCluster", "PersistentProcessPoolCluster", "ProcessExecutor"]


@contextmanager
def _pool_scope(make_pool: Callable[[], Executor]):
    """One run's ``execute`` callable over a pool built by ``make_pool``.

    One pool serves both stages and is shut down when the scope exits, which
    joins every still-running task.  When a *host* dies mid-round — a worker
    process exiting hard breaks the whole :class:`ProcessPoolExecutor`,
    surfacing as :class:`BrokenExecutor` on every in-flight future —
    ``execute`` discards the broken pool, builds a fresh one (the store file
    stays in the run directory for the whole run, so new workers re-attach it
    and are handed the job by the same initializer), and reports the
    casualties as per-task failures for the driver to retry on the new pool.
    """
    pool = make_pool()

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
            # Failures land here in *observation* order — the first entry is
            # the batch's first cause, which the driver chains onto the error
            # that finally aborts the job.
            outcome.failures.append((futures[future], error))
            if isinstance(error, BrokenExecutor):
                broken = True
            if fail_fast and not cancelled:
                # Drop tasks that have not started yet — at the moment of
                # failure, not after every earlier future drains — so the
                # pool (and the driver's run-directory cleanup that follows
                # it) is not held up by doomed work.  Tasks already running
                # finish before the scope exits (the pool's shutdown joins
                # them), which is what guarantees no blob is written after
                # the driver removes the run directory.
                cancelled = True
                for other in futures:
                    other.cancel()
        if broken:
            # Host failover: replace the dead pool so retries (and the next
            # stage) run on fresh workers instead of failing on a permanently
            # broken executor.
            pool.shutdown(wait=False)
            pool = make_pool()
            outcome.recovered_hosts += 1
        return outcome

    try:
        yield execute
    finally:
        pool.shutdown(wait=True)


def _initialize_worker(ref: JobRef, job: MapReduceJob, handle: StoreHandle | None) -> None:
    """Pool initializer: what a worker process is given once, before any task.

    The job, held under the reference its tasks will carry; the run's input
    store, attached; and a frozen heap — everything alive at this point was
    inherited from (or sent by) the driver and is only read from here on, so
    the worker's collector is told never to walk it.
    """
    deliver_job(ref, job)
    if handle is not None:
        attach_store(handle)
    gc.freeze()


class ProcessExecutor:
    """Tasks run on a local process pool whose workers attach the input store once."""

    @contextmanager
    def scope(
        self, cluster: StageDriverCluster, records: Sequence[Any], job: MapReduceJob, run_dir: str
    ):
        store = as_encoded_store(records)
        # Unique among the jobs alive in this process, which is all a worker
        # of this run's own pool needs to tell its job from a stranger's.
        ref = JobRef(id(job))
        # No release: the file lives as long as the run directory.
        handle, _release = store.publish(run_dir)
        chunks = [
            StoreChunk(handle, start, stop)
            for start, stop in split_ranges(len(store), cluster.num_workers)
        ]
        initargs = (ref, job, handle if chunks else None)

        def make_pool() -> Executor:
            return ProcessPoolExecutor(
                max_workers=cluster.num_workers,
                initializer=_initialize_worker,
                initargs=initargs,
            )

        with _pool_scope(make_pool) as execute:
            yield chunks, ref, execute

    @staticmethod
    def worker_times(results: Sequence[ReduceTaskResult], num_workers: int) -> list[float]:
        """Reduce seconds per OS worker, attributed to the workers that ran them."""
        totals: dict[tuple[int, int], float] = {}
        for result in results:
            totals[result.worker] = totals.get(result.worker, 0.0) + result.seconds
        return list(totals.values())


class PersistentProcessPoolCluster(StageDriverCluster):
    """The ``persistent-processes`` backend (also spelled ``processes``): a
    process pool whose workers attach the input once, and the local shuffle.

    Outputs, shuffle metrics, and measured wire bytes are byte-identical to
    every other backend, while the per-task input pickling cost
    (``map_input_pickle_bytes``) stays a few dozen bytes no matter how large
    the database is.
    """

    backend_name = "persistent-processes"
    default_num_workers = 2
    executor = ProcessExecutor()


class MultiHostCluster(StageDriverCluster):
    """The ``multihost`` backend: the process pool, and every payload in the
    fragment store.

    Reduce tasks fetch their bucket's blobs by key (with retry-with-backoff,
    one get per distinct key) and run the same streamed merge as everywhere
    else, so patterns and every shuffle and spill metric are byte-identical
    to the other backends; only the blob put/get counters differ.  The store
    lives in the run directory under ``spill_dir``, which a deployment
    without a shared file system between hosts points at a shared mount.
    """

    backend_name = "multihost"
    default_num_workers = 2
    executor = ProcessExecutor()
    stores_every_payload = True
