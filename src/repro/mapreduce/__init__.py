"""MapReduce / bulk-synchronous-parallel substrate with pluggable backends.

One job model (:class:`MapReduceJob`), one stage driver
(:class:`~repro.mapreduce.base.StageDriverCluster`), five execution backends:

* ``simulated`` — in-process execution that models the makespan of
  ``num_workers`` workers (deterministic, no parallelism overhead);
* ``threads`` — a local thread pool (real concurrent scheduling, no pickling);
* ``processes`` — a local process pool (real wall-clock speed-ups);
* ``persistent-processes`` — a local process pool whose workers attach the
  input database once via a shared-memory
  :class:`~repro.sequences.store.EncodedSequenceStore`; tasks carry chunk
  descriptors, so the per-task database pickling tax disappears;
* ``multihost`` — subprocess hosts that attach the published store the same
  way but exchange their encoded reduce buckets through a pluggable
  :class:`~repro.mapreduce.blobstore.BlobStore` (content-addressed blobs in
  a shared directory), the shape of a serverless/object-store deployment.

Use :func:`make_cluster` to pick a backend by name.
"""

from repro._lazy import lazy_exports
from repro.mapreduce.base import BatchOutcome, Cluster, JobResult, StageDriverCluster
from repro.mapreduce.engine import SimulatedCluster, run_job
from repro.mapreduce.faults import (
    DEFAULT_FAULT_POLICY,
    FaultInjectingBlobStore,
    FaultInjector,
    FaultPolicy,
    InjectedFault,
    ScriptedInjector,
    TaskContext,
    TaskTimeoutError,
    is_retryable,
)
from repro.mapreduce.factory import (
    BACKENDS,
    ClusterConfig,
    make_cluster,
    resolve_cluster,
)
from repro.mapreduce.job import (
    DEFAULT_PARTITIONER,
    PARTITIONERS,
    MapReduceJob,
    iter_map_output,
    normalize_partitioner,
    stable_hash,
)
from repro.mapreduce.metrics import JobMetrics, lpt_worker_loads
from repro.mapreduce.parallel import (
    PersistentProcessPoolCluster,
    ProcessPoolCluster,
    ThreadPoolCluster,
)
from repro.mapreduce.spill import FragmentReader, WireFragment, merge_fragments
from repro.mapreduce.tasks import (
    MapTaskResult,
    ReduceTaskResult,
    run_map_task,
    run_reduce_task,
    run_store_map_task,
)
from repro.mapreduce.wire import CODECS, Codec, CompactCodec, PickleCodec, make_codec

# Only a multihost run needs these two modules; see repro._lazy.
__getattr__ = lazy_exports(
    __name__,
    {
        "repro.mapreduce.blobstore": (
            "BlobNotFoundError",
            "BlobRetryStats",
            "BlobStore",
            "BlobStoreError",
            "DirectoryBlobStore",
            "InMemoryBlobStore",
            "content_key",
            "gc_expired",
            "get_with_retry",
            "put_with_retry",
            "read_lease",
            "write_lease",
        ),
        "repro.mapreduce.multihost": (
            "BlobShuffle",
            "MultiHostCluster",
            "run_blob_map_task",
        ),
    },
)

__all__ = [
    "BACKENDS",
    "CODECS",
    "BatchOutcome",
    "BlobNotFoundError",
    "BlobRetryStats",
    "BlobShuffle",
    "BlobStore",
    "BlobStoreError",
    "Cluster",
    "ClusterConfig",
    "Codec",
    "CompactCodec",
    "DEFAULT_FAULT_POLICY",
    "DEFAULT_PARTITIONER",
    "DirectoryBlobStore",
    "FaultInjectingBlobStore",
    "FaultInjector",
    "FaultPolicy",
    "FragmentReader",
    "InMemoryBlobStore",
    "InjectedFault",
    "PARTITIONERS",
    "JobMetrics",
    "ScriptedInjector",
    "TaskContext",
    "TaskTimeoutError",
    "JobResult",
    "MapReduceJob",
    "MapTaskResult",
    "MultiHostCluster",
    "PersistentProcessPoolCluster",
    "PickleCodec",
    "ProcessPoolCluster",
    "ReduceTaskResult",
    "SimulatedCluster",
    "StageDriverCluster",
    "ThreadPoolCluster",
    "WireFragment",
    "content_key",
    "gc_expired",
    "get_with_retry",
    "is_retryable",
    "iter_map_output",
    "lpt_worker_loads",
    "make_cluster",
    "make_codec",
    "merge_fragments",
    "normalize_partitioner",
    "put_with_retry",
    "read_lease",
    "resolve_cluster",
    "write_lease",
    "run_blob_map_task",
    "run_job",
    "run_map_task",
    "run_reduce_task",
    "run_store_map_task",
    "stable_hash",
]
