"""MapReduce / bulk-synchronous-parallel substrate with pluggable backends.

One job model (:class:`MapReduceJob`), one stage driver
(:class:`~repro.mapreduce.base.StageDriverCluster`) composed of an executor
and a shuffle transport, three execution backends:

* ``simulated`` — in-process execution that models the makespan of
  ``num_workers`` workers (deterministic, no parallelism overhead);
* ``persistent-processes`` (also spelled ``processes``) — a local process
  pool (real wall-clock speed-ups) whose workers attach the input database
  once via a shared-memory
  :class:`~repro.sequences.store.EncodedSequenceStore`; tasks carry chunk
  descriptors, so there is no per-task database pickling tax;
* ``multihost`` — the same process pool, but the hosts exchange their encoded
  reduce buckets through a pluggable
  :class:`~repro.mapreduce.blobstore.BlobStore` (content-addressed blobs in
  a shared directory), the shape of a serverless/object-store deployment.

``ClusterConfig(backend=..., ...).build()`` picks a backend by name;
:func:`make_cluster` is its one-line shortcut.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.mapreduce.base": ("BatchOutcome", "Cluster", "JobResult", "StageDriverCluster"),
        "repro.mapreduce.blobstore": (
            "BlobNotFoundError",
            "BlobRetryStats",
            "BlobStore",
            "BlobStoreError",
            "DirectoryBlobStore",
            "InMemoryBlobStore",
            "content_key",
            "expired_namespaces",
            "gc_expired",
            "get_with_retry",
            "put_with_retry",
            "read_lease",
            "write_lease",
        ),
        "repro.mapreduce.engine": ("SimulatedCluster",),
        "repro.mapreduce.factory": (
            "BACKENDS",
            "ClusterConfig",
            "canonical_backend",
            "make_cluster",
        ),
        "repro.mapreduce.faults": (
            "DEFAULT_FAULT_POLICY",
            "FaultInjectingBlobStore",
            "FaultInjector",
            "FaultPolicy",
            "InjectedFault",
            "JobNotDeliveredError",
            "ScriptedInjector",
            "TaskContext",
            "TaskTimeoutError",
            "is_retryable",
        ),
        "repro.mapreduce.job": (
            "DEFAULT_GRID",
            "DEFAULT_PARTITIONER",
            "GRIDS",
            "PARTITIONERS",
            "MapReduceJob",
            "normalize_partitioner",
            "stable_hash",
        ),
        "repro.mapreduce.metrics": ("JobMetrics", "lpt_worker_loads"),
        "repro.mapreduce.multihost": ("BlobShuffle", "MultiHostCluster", "run_blob_map_task"),
        "repro.mapreduce.parallel": ("PersistentProcessPoolCluster", "ProcessExecutor"),
        "repro.mapreduce.spill": ("FragmentReader", "WireFragment", "merge_fragments"),
        "repro.mapreduce.tasks": (
            "JobRef",
            "MapTaskResult",
            "ReduceTaskResult",
            "run_map_task",
            "run_reduce_task",
        ),
        "repro.mapreduce.wire": ("CODECS", "Codec", "CompactCodec", "make_codec"),
    },
)
