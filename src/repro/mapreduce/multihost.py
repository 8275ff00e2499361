"""The multi-host backend: every shuffle payload goes through blob storage.

:class:`MultiHostCluster` executes jobs the way a fleet of stateless hosts
would.  Its executor is the ``persistent-processes`` process pool
(:class:`~repro.mapreduce.parallel.ProcessExecutor`): input never travels with
tasks, it is published once as an
:class:`~repro.sequences.store.EncodedSequenceStore` file that each subprocess
"host" attaches.  Where it departs from every other backend is the shuffle:
map tasks encode their reduce buckets with the configured wire codec as
usual, then put *every* encoded payload — not only those past the spill
budget — into the run's :class:`~repro.mapreduce.spill.FragmentStore`, one
namespace in a pluggable :class:`~repro.mapreduce.blobstore.BlobStore` under
content-addressed keys, and hand the driver only blob-referencing
:class:`~repro.mapreduce.spill.WireFragment` descriptors.  Reduce tasks fetch
their bucket's blobs by key (with retry-with-backoff, one get per distinct
key) and run the same streamed ``merge_fragments`` read as everywhere else.
The tasks are the same two every backend schedules, so patterns, supports,
and all modeled/measured shuffle and spill metrics stay byte-identical to the
other backends; only the blob put/get counters differ.

Without a ``blob_dir`` the blob store is private to the run: it lives in the
stage driver's run directory and goes with it.  A shared ``blob_dir`` gets a
per-job leased namespace, which the stage driver deletes strictly after the
executor scope: a mid-stage worker failure first joins the surviving tasks,
then every key under the job prefix is deleted, so no blob outlives a failed
job.
"""

from __future__ import annotations

from repro.mapreduce.base import StageDriverCluster
from repro.mapreduce.parallel import ProcessExecutor

__all__ = ["MultiHostCluster"]


class MultiHostCluster(StageDriverCluster):
    """The ``multihost`` backend: subprocess hosts exchanging encoded reduce
    buckets through blob storage — the process pool, and every payload in the
    fragment store.

    ``blob_dir`` is the directory backing a shared blob store (think: the
    mount point or bucket of a shared object store); ``None`` keeps a private
    store in the run directory.
    """

    backend_name = "multihost"
    default_num_workers = 2
    executor = ProcessExecutor()
    stores_every_payload = True

    def __init__(self, *args, blob_dir: str | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.blob_dir = blob_dir
