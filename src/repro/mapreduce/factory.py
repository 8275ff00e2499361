"""Backend selection: :class:`ClusterConfig`, names/aliases, and the factory."""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib import import_module

from repro.errors import MapReduceError
from repro.mapreduce.base import Cluster, check_sizes
from repro.mapreduce.faults import DEFAULT_FAULT_POLICY, FaultPolicy
from repro.mapreduce.job import DEFAULT_GRID, normalize_grid
from repro.mapreduce.wire import Codec

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
#: the backend: its selector, and the one the miners read.
_NOT_FOR_BACKEND = ("backend", "grid")


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
    ``grid`` selects the pivot-grid engine (``"flat"`` or ``"legacy"``): the
    miners read it, the cluster never sees it.  ``grid`` is validated (and
    made canonical) when the config is built, and so are the worker count
    and the spill budget, which must be ints.  The reduce-bucket count is no
    field: every backend runs
    :data:`~repro.mapreduce.base.REDUCE_TASKS_PER_WORKER` buckets per worker.
    """

    backend: str | Cluster = "simulated"
    num_workers: int | None = None
    codec: str | Codec = "compact"
    spill_budget_bytes: int | None = None
    #: Parent of each run's scratch directory, which holds everything the
    #: run writes, the ``multihost`` fragment store included (``None``: the
    #: system temp directory); a multi-host deployment sets a shared mount.
    spill_dir: str | None = None
    grid: str = DEFAULT_GRID
    #: Task attempts and per-task timeout
    #: (:class:`~repro.mapreduce.faults.FaultPolicy`; ``None`` → the library
    #: default, which gives every task one retry).  Part of the fingerprint.
    fault_policy: FaultPolicy | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", normalize_grid(self.grid))
        check_sizes(self.num_workers, self.spill_budget_bytes)

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
        distinct substrate caches its own entry.  A ready-made cluster
        instance runs on its own settings, not the config's, so it
        fingerprints by its class name and its own worker count, codec, spill
        budget, fault policy and fault injector.
        """
        if isinstance(self.backend, Cluster):
            source, backend = self.backend, type(self.backend).__name__
        else:
            source, backend = self, self.backend
        # A Cluster promises only its worker and bucket counts (the bucket
        # count follows from the worker count); every cluster this library
        # builds also carries the other settings.
        codec = getattr(source, "codec", None)
        policy = getattr(source, "fault_policy", None) or DEFAULT_FAULT_POLICY
        parts = (
            backend,
            source.num_workers,
            getattr(codec, "name", codec),
            getattr(source, "spill_budget_bytes", None),
            self.grid,
            policy.fingerprint(),
            repr(getattr(source, "fault_injector", None)),
        )
        return "|".join(str(part) for part in parts)


def make_cluster(backend: str = "simulated", **fields) -> Cluster:
    """Build an execution backend by name: the one-line shortcut for
    ``ClusterConfig(backend=backend, **fields).build()``."""
    return ClusterConfig(backend=backend, **fields).build()
