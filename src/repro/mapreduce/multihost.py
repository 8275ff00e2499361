"""The multi-host backend: blob-staged shuffle between subprocess hosts.

:class:`MultiHostCluster` executes jobs the way a fleet of stateless hosts
would.  Its executor is the ``persistent-processes`` process pool
(:class:`~repro.mapreduce.parallel.ProcessExecutor`): input never travels with
tasks, it is published once as an
:class:`~repro.sequences.store.EncodedSequenceStore` that each subprocess
"host" attaches.  Its shuffle transport, :class:`BlobTransport`, is where it
departs from every other backend: map tasks encode their reduce buckets with
the configured wire codec as usual (spilling past the in-memory budget), then
upload every
encoded bucket payload into a pluggable
:class:`~repro.mapreduce.blobstore.BlobStore` under a per-job,
content-addressed key — spilled payloads stream from the spill file straight
into the store — and hand the driver only blob-referencing
:class:`~repro.mapreduce.spill.WireFragment` descriptors.  Reduce tasks fetch
their bucket's blobs by key (with retry-with-backoff, one get per distinct
key) and run the same streamed ``merge_fragments`` read as everywhere else.
The spill format *is* the shuffle transport, so patterns, supports, and all
modeled/measured shuffle metrics stay byte-identical to the other three
backends; only the blob put/get counters are non-zero.

Without a ``blob_dir`` the blob store is private to the run: it lives in the
stage driver's run directory and goes with it.  A shared ``blob_dir`` gets a
per-job namespace in the transport's scope, which the stage driver closes
strictly after the executor scope: a mid-stage worker failure first joins the
surviving tasks, then every key under the job prefix is deleted, so no blob
outlives a failed job.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.mapreduce.base import StageDriverCluster, Task
from repro.mapreduce.blobstore import (
    BlobRetryStats,
    BlobStore,
    DirectoryBlobStore,
    content_key,
    delete_prefix,
    gc_expired,
    put_with_retry,
    write_lease,
)
from repro.mapreduce.faults import FaultInjectingBlobStore, TaskContext
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.parallel import ProcessExecutor
from repro.mapreduce.spill import (
    FragmentReader,
    WireFragment,
    remove_spill_files,
)
from repro.mapreduce.tasks import JobRef, MapTaskResult, run_map_task, run_reduce_task
from repro.mapreduce.wire import Codec
from repro.sequences.store import StoreChunk

__all__ = ["BlobShuffle", "BlobTransport", "MultiHostCluster", "run_blob_map_task"]


@dataclass(frozen=True)
class BlobShuffle:
    """One job's shuffle namespace: a blob store plus a unique key prefix.

    The driver builds the run's tasks from it, and it ships with every map and
    reduce task (the store implementations hold only a root path, so this
    pickles at descriptor size, like a
    :class:`~repro.sequences.store.StoreChunk`).
    """

    store: BlobStore
    prefix: str

    def map_task(self, args: tuple, context: TaskContext) -> Task:
        """``args`` are :func:`run_blob_map_task`'s, up to its ``spill_dir``."""
        return run_blob_map_task, (*args, self, context)

    def reduce_task(
        self, job: Any, fragments: list[WireFragment], codec: Codec, context: TaskContext
    ) -> Task:
        return run_reduce_task, (job, fragments, codec, self.store, context)


def run_blob_map_task(
    job: MapReduceJob | JobRef,
    chunk: Sequence[Any] | StoreChunk,
    num_reduce_tasks: int,
    codec: Codec | str,
    spill_budget_bytes: int | None,
    spill_dir: str | None,
    shuffle: BlobShuffle,
    context: TaskContext | None = None,
) -> MapTaskResult:
    """Run a map task, then stage every bucket in the blob store.

    Everything up to and including the encoded fragments is byte-identical to
    :func:`~repro.mapreduce.tasks.run_map_task` — same codec, same spill
    budget, same accounting.  Each fragment's payload then goes into
    the store under its content-addressed key: inline fragments upload from
    memory, spilled fragments stream from the task's spill file (one shared
    handle via :class:`~repro.mapreduce.spill.FragmentReader`).  Uploads
    retry transient store failures in-task with the fault policy's blob
    knobs — safe at any repetition, because a content-addressed re-upload is
    idempotent — and the retries taken are metered on the result.  The
    task's spill file is deleted right away — its contents live in the store
    now — and the returned fragments carry only blob keys.
    """
    result = run_map_task(
        job,
        chunk,
        num_reduce_tasks,
        codec=codec,
        spill_budget_bytes=spill_budget_bytes,
        spill_dir=spill_dir,
        context=context,
    )
    started = time.perf_counter()
    policy = context.policy if context is not None else None
    put_stats = BlobRetryStats()
    staged: list[tuple[int, WireFragment]] = []
    with FragmentReader() as reader:
        for bucket_index, fragment in result.buckets:
            blob = reader.read(fragment)
            key = content_key(blob, shuffle.prefix)
            put_with_retry(shuffle.store, key, blob, policy=policy, stats=put_stats)
            result.blob_put_count += 1
            result.blob_put_bytes += len(blob)
            staged.append(
                (
                    bucket_index,
                    WireFragment(
                        records=fragment.records,
                        wire_bytes=fragment.wire_bytes,
                        blob_key=key,
                    ),
                )
            )
    result.buckets = staged
    result.blob_retry_count += put_stats.retries
    remove_spill_files([result.spill_path])
    result.spill_path = None
    result.seconds += time.perf_counter() - started
    return result


class BlobTransport:
    """The blob shuffle transport: one fresh namespace in a blob store per run.

    ``blob_dir`` selects the directory backing the
    :class:`~repro.mapreduce.blobstore.DirectoryBlobStore` (think: the mount
    point or bucket of a shared object store).  ``None`` — the default —
    keeps the store in the run directory, which the stage driver removes
    whole; a caller-provided directory is shared, so only the job's own key
    prefix is deleted and the directory itself is left exactly as found.
    """

    def __init__(self, blob_dir: str | None = None) -> None:
        self.blob_dir = blob_dir

    @contextmanager
    def scope(self, cluster: StageDriverCluster, run_dir: str):
        shared = self.blob_dir is not None
        store = DirectoryBlobStore(self.blob_dir if shared else run_dir)
        prefix = f"job-{os.urandom(8).hex()}"
        if shared:
            os.makedirs(self.blob_dir, exist_ok=True)
            # A shared --blob-dir accumulates namespaces orphaned by killed
            # drivers; sweep the expired ones opportunistically at job start
            # (``repro blob-gc`` is the explicit path).  Best effort: GC
            # trouble must never fail a healthy job.
            try:
                gc_expired(store, cluster.fault_policy.blob_namespace_ttl_s)
            except Exception:
                pass
            # The lease stamps the namespace's birth, so a later GC pass can
            # tell this job's leftovers (if we die before the cleanup below)
            # from live namespaces and from foreign files in the directory.
            write_lease(store, prefix)
        task_store: BlobStore = store
        if cluster.fault_injector is not None:
            task_store = FaultInjectingBlobStore(store, cluster.fault_injector)
        try:
            yield BlobShuffle(store=task_store, prefix=prefix)
        finally:
            # Runs after the executor scope has joined every worker task, so
            # no host can upload a blob once its job's namespace is gone.
            # Cleanup always goes through the raw store: injected faults
            # must never leak a namespace.  A private store goes with the
            # run directory.
            if shared:
                delete_prefix(store, prefix)


class MultiHostCluster(StageDriverCluster):
    """The ``multihost`` backend: subprocess hosts exchanging encoded reduce
    buckets through blob storage — the process pool and the blob transport.

    ``blob_dir`` is the :class:`BlobTransport`'s.
    """

    backend_name = "multihost"
    default_num_workers = 2
    executor = ProcessExecutor()

    def __init__(self, *args, blob_dir: str | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.shuffle = BlobTransport(blob_dir)
