"""Worker-side map and reduce tasks shared by every execution backend.

A map task maps and combines its input chunk, *partitions the result locally*,
and serializes every reduce bucket with the job's shuffle codec (the shuffle
write of a real cluster).  What the driver routes from map to reduce tasks are
therefore :class:`~repro.mapreduce.spill.WireFragment` objects — encoded
payloads, inline or, on ``multihost``, put into the run's
:class:`~repro.mapreduce.spill.FragmentStore` — never raw (key, value) pairs.  A
reduce task receives the fragments addressed to one bucket, fetches the stored
ones, decodes and merges them key by key (the streamed shuffle read), and
reduces every key group.

These two functions are the only tasks any backend schedules.  Both are
module-level so that the process-pool executor can pickle them for its
workers.  What it cannot afford to pickle per task is the
job (FST + dictionary, tens of KB): a pool hands it to each worker once
through :func:`deliver_job` and its tasks carry a :class:`JobRef`, which
both functions resolve before anything else.  Each task reports the worker
that executed it (process id, thread id) so the driver can attribute
per-worker stage times.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Any

from repro.mapreduce.faults import JobNotDeliveredError, TaskContext
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.metrics import Counters
from repro.mapreduce.spill import (
    FragmentReader,
    FragmentStore,
    WireFragment,
    merge_fragments,
    store_payloads,
)
from repro.mapreduce.wire import Codec, CompactCodec
from repro.sequences.store import StoreChunk, resolve_chunk

#: A payload addressed to one reduce bucket: key -> values emitted by one map task.
BucketPayload = dict[Any, list[Any]]


def worker_token() -> tuple[int, int]:
    """Identify the OS worker executing the current task."""
    return os.getpid(), threading.get_ident()


@dataclass(frozen=True)
class JobRef:
    """What a pooled task carries in place of its job: the token under which
    the pool's initializer delivered that job to every worker."""

    token: int


#: The jobs this worker process was handed by its pools' initializers.
_DELIVERED: dict[int, MapReduceJob] = {}


def deliver_job(ref: JobRef, job: MapReduceJob) -> None:
    """Hold ``job`` in this process for every later task that names ``ref``."""
    _DELIVERED[ref.token] = job


def _held_job(job: MapReduceJob | JobRef, stage: str, context: TaskContext | None):
    """The job a task runs: the object it was given, or the one a ref names."""
    if not isinstance(job, JobRef):
        return job
    held = _DELIVERED.get(job.token)
    if held is None:
        index = "?" if context is None else context.index
        raise JobNotDeliveredError(
            f"{stage} task {index}: worker process {os.getpid()} was never "
            f"handed a job under token {job.token}"
        )
    return held


@dataclass
class MapTaskResult:
    """Output of one map task: per-bucket fragments plus shuffle accounting.

    ``counters`` holds the task's records in, mapped and combined, the
    *modeled* ``shuffle_bytes`` and *measured* ``wire_bytes`` (see
    :class:`~repro.mapreduce.metrics.Counters`), and its fragment-store
    writes.
    """

    buckets: list[tuple[int, WireFragment]] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    #: Modeled shuffle bytes per destination reduce bucket (the partition
    #: write split).
    bucket_shuffle_bytes: dict[int, int] = field(default_factory=dict)
    seconds: float = 0.0
    worker: tuple[int, int] = (0, 0)


@dataclass
class ReduceTaskResult:
    """Output of one reduce task over a single bucket; ``counters`` holds its
    output records, its fragment-store reads and the retries they absorbed."""

    outputs: list[Any] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    seconds: float = 0.0
    worker: tuple[int, int] = (0, 0)


def run_map_task(
    job: MapReduceJob | JobRef,
    records: Sequence[Any] | StoreChunk,
    num_reduce_tasks: int,
    codec: Codec = CompactCodec(),
    fragment_store: FragmentStore | None = None,
    context: TaskContext | None = None,
) -> MapTaskResult:
    """Map ``records``, combine per key, partition, and encode reduce buckets.

    ``records`` is a chunk of records or, from a process pool, a
    :class:`~repro.sequences.store.StoreChunk` descriptor: the worker resolves
    it against the store it attached once and decodes its slice zero-copy,
    so the task's pickled input is the few dozen bytes of the descriptor.
    ``codec`` is the cluster's codec object.  With a ``fragment_store``
    every payload is put into it, with the store retries counted on the
    result; without one every payload travels inline.  ``context``
    identifies the attempt for fault tolerance: its injector (if any)
    observes the task start — and may kill this very attempt — before any
    work happens, so a retried attempt reruns the task from scratch, and it
    observes the attempt's own puts
    (:meth:`~repro.mapreduce.faults.TaskContext.wrap_store`).
    """
    if isinstance(records, StoreChunk):
        records = resolve_chunk(records)
    started = time.perf_counter()
    job = _held_job(job, "map", context)
    if context is not None:
        context.begin()
        if fragment_store is not None:
            fragment_store = replace(fragment_store, blobs=context.wrap_store(fragment_store.blobs))
    task_output: dict[Any, list[Any]] = defaultdict(list)
    map_output_records = 0
    for record in records:
        for key, value in job.map(record):
            task_output[key].append(value)
            map_output_records += 1

    if job.use_combiner:
        emitted: Any = (
            pair for key, values in task_output.items() for pair in job.combine(key, values)
        )
    else:
        emitted = ((key, value) for key, values in task_output.items() for value in values)

    buckets: dict[int, BucketPayload] = {}
    shuffle_bytes = 0
    shuffle_records = 0
    bucket_shuffle_bytes: dict[int, int] = {}
    for key, value in emitted:
        shuffle_records += 1
        bucket_index = job.partition(key, num_reduce_tasks)
        size = job.record_size(key, value)
        shuffle_bytes += size
        bucket_shuffle_bytes[bucket_index] = bucket_shuffle_bytes.get(bucket_index, 0) + size
        payload = buckets.setdefault(bucket_index, {})
        payload.setdefault(key, []).append(value)

    # Shuffle write: serialize each bucket, storing it if the run has a store.
    encoded = (
        (
            bucket_index,
            codec.encode_bucket(payload),
            sum(len(values) for values in payload.values()),
        )
        for bucket_index, payload in sorted(buckets.items())
    )
    fragments, counters = store_payloads(encoded, fragment_store=fragment_store)
    counters.input_records = len(records)
    counters.map_output_records = map_output_records
    counters.shuffle_records = shuffle_records
    counters.shuffle_bytes = shuffle_bytes
    return MapTaskResult(
        buckets=fragments,
        counters=counters,
        bucket_shuffle_bytes=bucket_shuffle_bytes,
        seconds=time.perf_counter() - started,
        worker=worker_token(),
    )


def run_reduce_task(
    job: MapReduceJob | JobRef,
    fragments: Sequence[WireFragment],
    codec: Codec = CompactCodec(),
    blob_store: Any = None,
    context: TaskContext | None = None,
) -> ReduceTaskResult:
    """Merge the encoded fragments of one bucket and reduce every key group.

    ``blob_store`` is the store of the run's fragment store: fragments that
    carry blob keys instead of inline bytes are fetched from it (with retry,
    one get per distinct key) through a
    :class:`~repro.mapreduce.spill.FragmentReader`.  With a ``context``, the
    injector observes the attempt start and the attempt's own gets.
    """
    started = time.perf_counter()
    job = _held_job(job, "reduce", context)
    if context is not None:
        context.begin()
        blob_store = context.wrap_store(blob_store)
    reader = FragmentReader(blob_store)
    grouped = merge_fragments(fragments, codec, reader=reader)
    outputs: list[Any] = []
    for key, values in grouped.items():
        outputs.extend(job.reduce(key, values))
    reader.counters.output_records = len(outputs)
    return ReduceTaskResult(
        outputs=outputs,
        counters=reader.counters,
        seconds=time.perf_counter() - started,
        worker=worker_token(),
    )
