"""Execution-backend substrate: the :class:`Cluster` protocol and the stage driver.

Every backend runs a :class:`~repro.mapreduce.job.MapReduceJob` through the
same four phases — map, combine, partition (worker-side shuffle write), and
reduce — with identical metrics accounting.  One class drives every run,
:class:`StageDriverCluster`: it splits the input into map tasks, routes the
per-bucket payloads returned by the map tasks to reduce tasks, retries failed
attempts, and folds every task's :class:`~repro.mapreduce.metrics.Counters`
into one :class:`~repro.mapreduce.metrics.JobMetrics`, field by field.  A
backend is that driver plus an **executor**, which decides where tasks run
and how the input and the job reach them.  :class:`InlineExecutor` runs
tasks serially in the calling process and models the makespan of
``num_workers`` workers, handing tasks record chunks and the job object
itself; :class:`~repro.mapreduce.parallel.ProcessExecutor` publishes the
input once as an :class:`~repro.sequences.store.EncodedSequenceStore` file,
hands every worker the job once, and ships chunk descriptors and a job
reference.

Encoded reduce buckets travel inline through the driver, or, on
``multihost``, all of them as keys into the run's one
:class:`~repro.mapreduce.spill.FragmentStore`.  Each backend is one row
(``processes`` is a spelling of ``persistent-processes``):

==========================  ============  ================================
backend                     executor      stored payloads
==========================  ============  ================================
``simulated``               inline        none
``persistent-processes``    process pool  none
``multihost``               process pool  all
==========================  ============  ================================

The paper's experiments run on an 8-worker Spark/Hadoop cluster; the
``simulated`` row (:class:`SimulatedCluster`) substitutes that substrate.  It
runs every phase in-process, measures per-task compute time and communicated
bytes, and reports the *makespan* that ``num_workers`` parallel workers would
have achieved.  The simulation is faithful for the algorithms studied here
because they are compute-bound, perform exactly one shuffle, and have no
inter-task dependencies within a stage (bulk-synchronous model).

Every row schedules the same two worker-side tasks
(:func:`~repro.mapreduce.tasks.run_map_task` and
:func:`~repro.mapreduce.tasks.run_reduce_task`) over the same map-task
boundaries (:func:`split_ranges`), so patterns and every shuffle and wire
metric are byte-identical across backends.

Every run gets one scratch directory under ``spill_dir`` (the system temp
directory by default; a shared mount on a multi-host deployment), and
everything the run writes lives in it: the published input store and the
fragment store.  The driver removes it whole once the executor scope has
joined every worker task — one cleanup exit, whether the run succeeded, a
task failed, or a host died.  A driver killed mid-run cannot do that, so the
directory's name is its lease: ``repro-run-<unix seconds>-<random>``.  At
run start the driver sweeps the siblings older than :data:`RUN_TTL_S`
(:func:`sweep_run_dirs`), and ``repro gc`` runs the same sweep by hand.
"""

from __future__ import annotations

import os
import pickle
import re
import shutil
import tempfile
import time
from collections import Counter
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from repro.errors import MapReduceError, check_int
from repro.mapreduce import faults
from repro.mapreduce.faults import FaultInjector, TaskContext, is_retryable
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.metrics import JobMetrics, lpt_worker_loads
from repro.mapreduce.spill import FragmentStore, WireFragment
from repro.mapreduce.tasks import (
    MapTaskResult,
    ReduceTaskResult,
    run_map_task,
    run_reduce_task,
)
from repro.mapreduce.wire import make_codec

#: A task scheduled by the driver: (function, positional arguments).
Task = tuple[Callable[..., Any], tuple[Any, ...]]

#: Reduce buckets per worker: the usual over-partitioning of Spark/Hadoop
#: deployments.  Only the non-empty buckets cost anything, and neither 1 nor
#: 16 buckets per worker ran a query faster in fresh-process sizing.
REDUCE_TASKS_PER_WORKER = 4


@dataclass
class BatchOutcome:
    """What one executor round reports back to the stage driver.

    ``results`` maps each task's *batch index* to its result; ``failures``
    pairs batch indexes with the exception that felled them, **in the order
    the failures were observed** — the first entry is the round's first
    cause, which the driver chains onto whatever error finally aborts the
    job.  A task can appear in neither dict (fail-fast cancelled it before it
    started); it is simply still pending.  ``recovered_hosts`` counts worker
    pools the executor had to rebuild after losing a host mid-round.
    """

    results: dict[int, Any] = field(default_factory=dict)
    failures: list[tuple[int, BaseException]] = field(default_factory=list)
    recovered_hosts: int = 0


@dataclass
class JobResult:
    """Outputs and metrics of one job run (identical across backends)."""

    outputs: list[Any]
    metrics: JobMetrics


@runtime_checkable
class Cluster(Protocol):
    """Anything that can execute a MapReduce job and report job metrics."""

    num_workers: int
    num_reduce_tasks: int

    def run(self, job: MapReduceJob, records: Sequence[Any]) -> JobResult:
        """Execute ``job`` over ``records`` and return outputs plus metrics."""
        ...  # pragma: no cover - protocol definition


class InlineExecutor:
    """Runs every task serially in the calling process (the ``simulated`` row).

    Map tasks get record chunks and the job object itself, so nothing is
    pickled.  All tasks ran here, so reduce times go to ``num_workers``
    *modelled* workers by the longest-processing-time-first schedule of
    :func:`~repro.mapreduce.metrics.lpt_worker_loads`, the way a real
    scheduler balances over-partitioned buckets.

    This is the executor contract.  :meth:`scope` spans both stages of one
    run, is handed the run directory for anything it must write, and yields
    ``(chunks, task_job, execute)``: the map inputs, what every
    task carries as its job, and a ``(tasks, fail_fast) -> BatchOutcome``
    callable that reports task failures instead of raising them (with
    ``fail_fast`` it may stop scheduling after the first).  Executors keep no
    per-run state, so one cluster can serve concurrent runs.
    :meth:`worker_times` turns the reduce results into per-worker seconds.
    """

    @contextmanager
    def scope(
        self, cluster: StageDriverCluster, records: Sequence[Any], job: MapReduceJob, run_dir: str
    ):
        yield split_records(records, cluster.num_workers), job, self.execute

    @staticmethod
    def execute(tasks: list[Task], fail_fast: bool = True) -> BatchOutcome:
        outcome = BatchOutcome()
        for index, (function, args) in enumerate(tasks):
            try:
                outcome.results[index] = function(*args)
            except Exception as error:
                outcome.failures.append((index, error))
                if fail_fast:
                    break
        return outcome

    @staticmethod
    def worker_times(results: Sequence[ReduceTaskResult], num_workers: int) -> list[float]:
        loads = lpt_worker_loads((result.seconds for result in results), num_workers)
        return [float(load) for load in loads]


class StageDriverCluster:
    """The map → combine → partition → reduce driver of every backend.

    ``executor`` and ``stores_every_payload`` make the backend's row (see
    the module docstring); the class attributes below are the ``simulated``
    row, and each backend class sets its own.  Every key goes to bucket
    ``job.partition(key, ...)``, the stable hash on every backend.

    Parameters
    ----------
    num_workers:
        Number of workers, an int >= 1; map input is split into at most this
        many map tasks.
    codec:
        Shuffle serialization codec, a name from
        :data:`~repro.mapreduce.wire.CODECS`.  The cluster builds the codec
        once (``self.codec``) and hands that object to its tasks.  Encoding
        is deterministic, so the measured wire bytes are identical across
        backends.
    spill_dir:
        Parent of each run's scratch directory, which holds everything the
        run writes (defaults to the system temp directory; created if
        missing).  A multi-host deployment points it at a shared mount.
    max_task_attempts:
        How many times a failed map or reduce task may run, an int >= 1.
        The default gives every task one retry; ``1`` restores strict
        fail-fast.  Whatever the budget, a non-retryable
        failure (a candidate/run explosion — deterministic in the data)
        aborts the job immediately, and when attempts are exhausted the
        *original* task exception is re-raised, chained from the stage's
        first observed failure.
    fault_injector:
        Optional :class:`~repro.mapreduce.faults.FaultInjector` shipped into
        every task for deterministic chaos testing; ``None`` (the default)
        injects nothing and costs nothing.  Only this constructor takes it:
        tests and the chaos benchmark build the cluster themselves and pass
        it as ``ClusterConfig(backend=cluster)``.
    """

    #: Human-readable backend identifier (also used by :func:`repr`).
    backend_name = "abstract"

    #: Worker count used when ``num_workers`` is not given.
    default_num_workers = 4

    executor: Any = InlineExecutor()

    #: Whether every payload goes to the run's fragment store; otherwise every
    #: payload travels inline and the run opens no store.
    stores_every_payload = False

    def __init__(
        self,
        num_workers: int | None = None,
        codec: str = "compact",
        spill_dir: str | None = None,
        max_task_attempts: int = 2,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if num_workers is None:
            num_workers = self.default_num_workers
        check_int(num_workers, "num_workers", 1, MapReduceError)
        check_int(max_task_attempts, "max_task_attempts", 1, MapReduceError)
        self.num_workers = num_workers
        self.num_reduce_tasks = REDUCE_TASKS_PER_WORKER * num_workers
        self.codec = make_codec(codec)
        if spill_dir is not None and not isinstance(spill_dir, (str, os.PathLike)):
            raise MapReduceError(
                f"spill_dir must be a path or None, got {type(spill_dir).__name__}"
            )
        self.spill_dir = spill_dir
        self.max_task_attempts = max_task_attempts
        self.fault_injector = fault_injector

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(backend={self.backend_name!r}, "
            f"num_workers={self.num_workers}, num_reduce_tasks={self.num_reduce_tasks})"
        )

    # --------------------------------------------------------------------- run
    def run(self, job: MapReduceJob, records: Sequence[Any]) -> JobResult:
        """Execute ``job`` over ``records`` and return outputs plus metrics."""
        metrics = JobMetrics(num_workers=self.num_workers)

        # Everything the run writes — the published input, the fragment
        # store — lives in this one directory, removed wholesale below, so a
        # failing map or reduce task (e.g. a candidate explosion) or a dead
        # host cannot strand the files of the tasks before it.
        run_dir = make_run_dir(self.spill_dir)
        try:
            fragment_store = blob_store = None
            if self.stores_every_payload:
                from repro.mapreduce.blobstore import DirectoryBlobStore

                # Tasks get the raw store; each attempt wraps it for the
                # fault injector itself.  The key prefix is a constant, so
                # keys are a pure function of the payloads and a seeded
                # blob-fault schedule replays exactly.
                blob_store = DirectoryBlobStore(run_dir)
                fragment_store = FragmentStore(blob_store, "blobs")
            # The executor scope's shutdown joins every still-running worker
            # task, so nothing writes into the run directory once it goes.
            with self.executor.scope(self, records, job, run_dir) as (
                chunks, task_job, execute
            ):
                metrics.map_input_pickle_bytes = sum(map(pickled_size, chunks))
                # Map stage: each task partitions, combines, and encodes its
                # reduce buckets locally (worker-side shuffle write), putting
                # every payload into the fragment store when the run has
                # one.  Failed attempts are retried up to
                # ``max_task_attempts``; only the one successful attempt per
                # task is folded into the metrics below, so retries never
                # double-count shuffle or wire bytes.
                map_results: list[MapTaskResult] = self._run_stage(
                    "map",
                    [
                        lambda context, chunk=chunk: (
                            run_map_task,
                            (
                                task_job,
                                chunk,
                                self.num_reduce_tasks,
                                self.codec,
                                fragment_store,
                                context,
                            ),
                        )
                        for chunk in chunks
                    ],
                    execute,
                    metrics,
                )
                # Only the non-empty buckets get a list: the bucket count
                # may be far larger than the map output.
                fragments: dict[int, list[WireFragment]] = {}
                bucket_bytes: Counter[int] = Counter()
                for result in map_results:
                    metrics.add(result.counters)
                    bucket_bytes.update(result.bucket_shuffle_bytes)
                    metrics.map_task_seconds.append(result.seconds)
                    for bucket_index, fragment in result.buckets:
                        fragments.setdefault(bucket_index, []).append(fragment)
                metrics.reduce_bucket_bytes = [list(pair) for pair in sorted(bucket_bytes.items())]

                # Reduce stage: one task per non-empty bucket, in bucket
                # order; the streamed key-group merge (shuffle read) happens
                # inside the task, i.e. on the worker.
                reduce_results: list[ReduceTaskResult] = self._run_stage(
                    "reduce",
                    [
                        lambda context, bucket_fragments=bucket_fragments: (
                            run_reduce_task,
                            (task_job, bucket_fragments, self.codec, blob_store, context),
                        )
                        for _, bucket_fragments in sorted(fragments.items())
                    ],
                    execute,
                    metrics,
                )
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

        outputs: list[Any] = []
        for result in reduce_results:
            outputs.extend(result.outputs)
            metrics.add(result.counters)
        metrics.reduce_task_seconds.extend(
            self.executor.worker_times(reduce_results, self.num_workers)
        )
        return JobResult(outputs=outputs, metrics=metrics)

    # ------------------------------------------------------------ fault logic
    def _run_stage(
        self,
        stage: str,
        builders: Sequence[Callable[[TaskContext], Task]],
        execute: Callable[..., BatchOutcome],
        metrics: JobMetrics,
    ) -> list[Any]:
        """Run one stage's tasks with attempt-aware retries; results in order.

        Each entry of ``builders`` constructs one task from a fresh
        :class:`~repro.mapreduce.faults.TaskContext` (the attempt number must
        reach the worker: the fault injector keys on it).  A round executes
        every still-pending task; failures are retried in the next round
        after a deterministic jittered backoff, until ``max_task_attempts`` is
        exhausted or the error is non-retryable, at which point the original
        exception is re-raised, chained from the stage's first observed
        failure (``raise error from first_cause``).  Exactly one successful
        result per task is ever returned, so a retried task's earlier
        attempts can never be double-counted downstream.
        """
        fail_fast = self.max_task_attempts <= 1
        pending = list(range(len(builders)))
        attempts = dict.fromkeys(pending, 1)
        results: dict[int, Any] = {}
        first_cause: BaseException | None = None
        while pending:
            contexts = [
                TaskContext(
                    stage=stage,
                    index=slot,
                    attempt=attempts[slot],
                    injector=self.fault_injector,
                )
                for slot in pending
            ]
            outcome = execute(
                [builders[slot](context) for slot, context in zip(pending, contexts)],
                fail_fast,
            )
            metrics.recovered_host_count += outcome.recovered_hosts
            for batch_index, result in outcome.results.items():
                results[pending[batch_index]] = result
            retry_slots: list[int] = []
            backoff = 0.0
            for batch_index, error in outcome.failures:
                slot = pending[batch_index]
                attempt = attempts[slot]
                metrics.tasks_failed += 1
                if first_cause is None:
                    first_cause = error
                if not is_retryable(error) or attempt >= self.max_task_attempts:
                    self._raise_stage_failure(stage, slot, attempt, error, first_cause)
                retry_slots.append(slot)
                attempts[slot] = attempt + 1
                # The constants are read at call time, so tests can patch them.
                delay = faults.full_jitter_delay(
                    faults.TASK_BACKOFF_BASE_S,
                    faults.TASK_BACKOFF_CAP_S,
                    attempt,
                    "task",
                    stage,
                    slot,
                )
                backoff = max(backoff, delay)
            metrics.task_retry_count += len(retry_slots)
            # Only failed slots go another round.  An executor that reported
            # neither a result nor a failure for some task can only have
            # fail-fast-cancelled it, and fail-fast implies a failure that
            # already raised above; the KeyError a missing slot would cause
            # at return is the loud guard against a misbehaving executor.
            pending = retry_slots
            if pending and backoff > 0:
                time.sleep(backoff)
        return [results[slot] for slot in range(len(builders))]

    def _raise_stage_failure(
        self,
        stage: str,
        index: int,
        attempt: int,
        error: BaseException,
        first_cause: BaseException | None,
    ) -> None:
        """Abort the job with a task's own exception, chaining the first cause.

        The original exception object propagates (harness code dispatches on
        its type, tests match its message); the retry history rides along as
        a note, and when a *different* task failed first, that failure is
        chained so the traceback shows the true origin of the cascade.
        """
        if hasattr(error, "add_note"):  # pragma: no branch - py3.11+
            error.add_note(
                f"{stage} task {index} failed on attempt {attempt}"
                f"/{self.max_task_attempts}"
            )
        if first_cause is not None and first_cause is not error:
            raise error from first_cause
        raise error


class SimulatedCluster(StageDriverCluster):
    """Executes MapReduce jobs and models a cluster of ``num_workers`` workers.

    The ``simulated`` row: the inline executor and the local shuffle, which
    are the stage driver's own components.  Tasks run sequentially in the
    calling process; reduce buckets are assigned to the least-loaded modelled
    worker (greedy LPT-style schedule), matching how a real cluster's
    scheduler balances over-partitioned buckets.
    """

    backend_name = "simulated"


#: Age past which a run directory counts as orphaned by a killed driver: the
#: sweep every run makes of its ``spill_dir`` at start, and ``repro gc``'s
#: default ``--ttl``.
RUN_TTL_S = 24 * 3600

#: A run directory's name, ``repro-run-<unix seconds>-<random>``: its birth.
_RUN_DIR = re.compile(r"repro-run-([0-9]{1,20})-.+", re.ASCII)


def make_run_dir(spill_dir: str | os.PathLike | None) -> str:
    """Make a run's scratch directory under ``spill_dir``, named for its
    birth, after a best-effort sweep of the expired siblings there."""
    parent = tempfile.gettempdir() if spill_dir is None else os.fspath(spill_dir)
    try:
        os.makedirs(parent, exist_ok=True)
    except OSError as error:
        raise MapReduceError(
            f"spill_dir {parent!r} is not a usable directory: {error}"
        ) from error
    try:
        sweep_run_dirs(parent, RUN_TTL_S)
    except OSError:
        pass
    return tempfile.mkdtemp(prefix=f"repro-run-{int(time.time())}-", dir=parent)


def run_dir_birth(name: str) -> int | None:
    """The unix second a run directory named ``name`` was made, or ``None``
    when the name is not one :func:`make_run_dir` gives."""
    match = _RUN_DIR.fullmatch(name)
    return int(match.group(1)) if match else None


def expired_run_dirs(parent: str, ttl_s: float, now: float | None = None) -> list[str]:
    """The run directories in ``parent`` born more than ``ttl_s`` seconds
    before ``now``, sorted: what :func:`sweep_run_dirs` removes and ``repro gc
    --dry-run`` lists.  A symlink, a file or a name stating no birth never is."""
    clock = time.time() if now is None else now
    expired = []
    with os.scandir(parent) as entries:
        for entry in entries:
            birth = run_dir_birth(entry.name)
            if birth is not None and clock - birth > ttl_s and entry.is_dir(
                follow_symlinks=False
            ):
                expired.append(entry.path)
    return sorted(expired)


def sweep_run_dirs(parent: str, ttl_s: float, now: float | None = None) -> list[str]:
    """Remove the :func:`expired_run_dirs` of ``parent``; returns them.  A
    directory another sweep removes first is no error."""
    expired = expired_run_dirs(parent, ttl_s, now)
    for path in expired:
        shutil.rmtree(path, ignore_errors=True)
    return expired


def pickled_size(value: Any) -> int:
    """Pickled size of a map task's input (its shipping cost); 0 when it
    cannot be pickled, which the inline executor never needs it to be."""
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


def split_ranges(count: int, parts: int) -> list[tuple[int, int]]:
    """Non-empty ``(start, stop)`` ranges tiling ``[0, count)`` into ``parts``.

    The single source of truth for map-task boundaries: :func:`split_records`
    slices materialized records with it and the process-pool executor
    addresses its store chunks with it, which is what makes map-task
    composition — and therefore combiner output, shuffle metrics, and
    measured wire bytes — byte-identical across backends.
    """
    if count <= 0:
        return []
    if parts <= 1:
        return [(0, count)]
    chunk = (count + parts - 1) // parts
    return [(start, min(start + chunk, count)) for start in range(0, count, chunk)]


def split_records(records: Sequence[Any], parts: int) -> list[Sequence[Any]]:
    """Split records into at most ``parts`` contiguous non-empty chunks."""
    ranges = split_ranges(len(records), parts)
    if ranges == [(0, len(records))]:
        return [records]
    return [records[start:stop] for start, stop in ranges]
