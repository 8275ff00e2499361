"""Backend selection: :class:`ClusterConfig`, names/aliases, and the factory."""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib import import_module

from repro.errors import MapReduceError, check_int
from repro.mapreduce.base import Cluster
from repro.mapreduce.wire import make_codec

#: Canonical backend names, in the order shown by ``--help``.
BACKENDS = ("simulated", "persistent-processes", "multihost")

#: Accepted spellings (matched case-insensitively) -> canonical backend name:
#: the canonical names and the spellings README documents.
_ALIASES = {
    **{name: name for name in BACKENDS},
    "processes": "persistent-processes",
    "multi-host": "multihost",
    "blob": "multihost",
}

#: Canonical backend name -> ``"module:Class"``, imported by the first
#: :meth:`ClusterConfig.build` that builds it: a run pays for the backend it uses.
_CLUSTER_CLASSES = {
    "simulated": "repro.mapreduce.base:SimulatedCluster",
    "persistent-processes": "repro.mapreduce.parallel:PersistentProcessPoolCluster",
    "multihost": "repro.mapreduce.parallel:MultiHostCluster",
}

#: The :class:`ClusterConfig` fields :meth:`ClusterConfig.build` does not hand
#: the backend: its selector.
_NOT_FOR_BACKEND = ("backend",)


def canonical_backend(name: str) -> str:
    """The canonical name of a backend spelling; unknown ones raise."""
    key = _ALIASES.get(str(name).strip().lower())
    if key is None:
        raise MapReduceError(
            f"unknown execution backend {name!r}; choose one of {', '.join(BACKENDS)}"
            " ('processes' is a spelling of 'persistent-processes')"
        )
    return key


@dataclass(frozen=True)
class ClusterConfig:
    """One value object for everything that configures a mining run's substrate.

    The fields are written out here and nowhere else: every cluster miner,
    the experiment harness, the figure and table functions and both CLI
    commands take exactly one of these as ``cluster=`` (or ``config=``), and
    :meth:`build` turns it into the backend (:func:`make_cluster` is its
    one-line shortcut).  ``backend`` may be a backend name or a ready-made
    :class:`~repro.mapreduce.base.Cluster` instance, whose own settings then
    win over the fields a backend reads; a fault injector for chaos tests is
    handed to a backend's constructor that way, never through a config.
    The worker count, the codec and the task-attempt budget are validated
    when the config is built: the counts must be ints, the codec a name from
    :data:`~repro.mapreduce.wire.CODECS`.  The reduce-bucket count is no
    field: every backend runs
    :data:`~repro.mapreduce.base.REDUCE_TASKS_PER_WORKER` buckets per worker.
    """

    backend: str | Cluster = "simulated"
    num_workers: int | None = None
    codec: str = "compact"
    #: Parent of each run's scratch directory, which holds everything the
    #: run writes, the ``multihost`` fragment store included (``None``: the
    #: system temp directory); a multi-host deployment sets a shared mount.
    spill_dir: str | None = None
    #: How many times a failed map or reduce task may run, an int >= 1 (the
    #: default gives every task one retry).  Part of the fingerprint.
    max_task_attempts: int = 2

    def __post_init__(self) -> None:
        if self.num_workers is not None:
            check_int(self.num_workers, "num_workers", 1, MapReduceError)
        make_codec(self.codec)  # a name from CODECS, or MapReduceError
        check_int(self.max_task_attempts, "max_task_attempts", 1, MapReduceError)

    def build(self) -> Cluster:
        """Build the execution backend this config describes.

        A ready-made :class:`~repro.mapreduce.base.Cluster` in ``backend``
        is returned as-is (its own settings win).  A backend name is one of
        :data:`BACKENDS` or a spelling :func:`canonical_backend` accepts:
        ``"simulated"`` models the makespan of ``num_workers`` workers
        in-process, ``"persistent-processes"`` (also spelled
        ``"processes"``) runs on a local process pool and publishes the input
        database once as an
        :class:`~repro.sequences.store.EncodedSequenceStore` file in the run
        directory, which every worker maps, so tasks ship chunk descriptors
        instead of pickled sequence lists (its records must be fid
        sequences), and ``"multihost"`` runs the same process pool but puts
        every encoded reduce bucket into the run's fragment store, a blob
        store in the run directory under ``spill_dir``, so map and reduce
        hosts exchange nothing but blob keys through the driver.
        Every field not in :data:`_NOT_FOR_BACKEND` is handed to the
        backend's constructor under its own name.
        """
        if isinstance(self.backend, Cluster):
            return self.backend
        key = canonical_backend(self.backend)
        settings = {
            field.name: getattr(self, field.name)
            for field in fields(self)
            if field.name not in _NOT_FOR_BACKEND
        }
        module, _, class_name = _CLUSTER_CLASSES[key].partition(":")
        return getattr(import_module(module), class_name)(**settings)

    def fingerprint(self) -> str:
        """A stable string identifying this execution substrate.

        Used (with the corpus content hash, constraint, σ, and algorithm) as
        part of the service-layer query-cache key: two configs with the same
        fingerprint run queries on an equivalent substrate.  Patterns are
        backend-independent (the differential matrix proves it), but the
        cached :class:`~repro.mapreduce.metrics.JobMetrics` are not — so each
        distinct substrate caches its own entry.  The parts are read off the
        cluster :meth:`build` returns, so every spelling of one substrate
        (backend alias, codec case, a defaulted worker count) gives one
        fingerprint: its class name, worker count, codec, task-attempt budget
        and fault injector, and whether the cluster came ready-made (the
        caller's object, shared by every query that names it) or was built.
        """
        cluster = self.build()
        # A Cluster promises only its worker and bucket counts (the bucket
        # count follows from the worker count); every cluster this library
        # builds also carries the other settings.
        codec = getattr(cluster, "codec", None)
        parts = (
            type(cluster).__name__,
            cluster.num_workers,
            getattr(codec, "name", None),
            f"attempts={getattr(cluster, 'max_task_attempts', None)}",
            repr(getattr(cluster, "fault_injector", None)),
            "given" if cluster is self.backend else "built",
        )
        return "|".join(str(part) for part in parts)


def make_cluster(backend: str = "simulated", **fields) -> Cluster:
    """Build an execution backend by name: the one-line shortcut for
    ``ClusterConfig(backend=backend, **fields).build()``."""
    return ClusterConfig(backend=backend, **fields).build()
