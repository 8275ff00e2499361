"""MapReduce / bulk-synchronous-parallel substrate with pluggable backends.

One job model (:class:`MapReduceJob`), one stage driver
(:class:`~repro.mapreduce.base.StageDriverCluster`) with an executor and one
fragment store per run, three execution backends:

* ``simulated`` — in-process execution that models the makespan of
  ``num_workers`` workers (deterministic, no parallelism overhead);
* ``persistent-processes`` (also spelled ``processes``) — a local process
  pool (real wall-clock speed-ups) whose workers attach the input database
  once as an :class:`~repro.sequences.store.EncodedSequenceStore` file;
  tasks carry chunk
  descriptors, so there is no per-task database pickling tax;
* ``multihost`` — the same process pool, but the hosts exchange every encoded
  reduce bucket through a pluggable
  :class:`~repro.mapreduce.blobstore.BlobStore` (content-addressed blobs in
  the run directory under ``spill_dir``), the shape of a
  serverless/object-store deployment.

``ClusterConfig(backend=..., ...).build()`` picks a backend by name;
:func:`make_cluster` is its one-line shortcut.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.mapreduce.base": (
            "BatchOutcome",
            "Cluster",
            "JobResult",
            "SimulatedCluster",
            "StageDriverCluster",
        ),
        "repro.mapreduce.blobstore": (
            "BlobNotFoundError",
            "BlobStore",
            "BlobStoreError",
            "DirectoryBlobStore",
            "InMemoryBlobStore",
            "content_key",
            "get_with_retry",
            "put_with_retry",
            "write_lease",
        ),
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
            "GRIDS",
            "MapReduceJob",
            "stable_hash",
        ),
        "repro.mapreduce.metrics": ("Counters", "JobMetrics", "lpt_worker_loads"),
        "repro.mapreduce.parallel": (
            "MultiHostCluster",
            "PersistentProcessPoolCluster",
            "ProcessExecutor",
        ),
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
