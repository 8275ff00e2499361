"""Backend selection: :class:`ClusterConfig`, names/aliases, and the factory."""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import import_module

from repro.errors import MapReduceError
from repro.mapreduce.base import Cluster
from repro.mapreduce.faults import DEFAULT_FAULT_POLICY, FaultInjector, FaultPolicy
from repro.mapreduce.wire import Codec

#: Canonical backend names, in the order shown by ``--help``.
BACKENDS = ("simulated", "threads", "persistent-processes", "multihost")

#: Accepted spellings (matched case-insensitively) -> canonical backend name:
#: the canonical names and the spellings README documents.
_ALIASES = {
    **{name: name for name in BACKENDS},
    "processes": "persistent-processes",
    "multi-host": "multihost",
    "blob": "multihost",
}

#: Canonical backend name -> ``"module:Class"``, imported by the first
#: :func:`make_cluster` that builds it: a run pays for the backend it uses.
_CLUSTER_CLASSES = {
    "simulated": "repro.mapreduce.engine:SimulatedCluster",
    "threads": "repro.mapreduce.parallel:ThreadPoolCluster",
    "persistent-processes": "repro.mapreduce.parallel:PersistentProcessPoolCluster",
    "multihost": "repro.mapreduce.multihost:MultiHostCluster",
}


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

    Collapses the previously copy-pasted ``backend=`` / ``codec=`` /
    ``spill_budget_bytes=`` plumbing: the miners, the experiment harness, and
    both CLI commands build exactly one of these and hand it around.
    ``backend`` may be a backend name or a ready-made
    :class:`~repro.mapreduce.base.Cluster` instance (which then wins over the
    worker/codec/spill fields, as before).  ``grid`` selects the pivot-grid
    engine (``"flat"`` or ``"legacy"``) and ``partitioner`` the reduce-bucket
    assignment (``"hash"`` or ``"planned"``); both are consumed by the miners
    rather than the cluster itself.
    """

    backend: str | Cluster = "simulated"
    num_workers: int | None = None
    num_reduce_tasks: int | None = None
    measure_shuffle: bool = True
    codec: str | Codec = "compact"
    spill_budget_bytes: int | None = None
    spill_dir: str | None = None
    #: Directory backing the ``multihost`` backend's blob store (``None``
    #: uses a private temp directory per run); other backends ignore it.
    blob_dir: str | None = None
    grid: str | None = None
    partitioner: str | None = None
    #: Stride-sampling fraction in (0, 1] for the ``"planned"`` partitioner's
    #: load-estimation pass (``None`` estimates over every record); consumed
    #: by the miners when they build their partition plan.
    plan_sample: float | None = None
    #: Task-retry / timeout / blob-retry knobs
    #: (:class:`~repro.mapreduce.faults.FaultPolicy`; ``None`` → the library
    #: default, which gives every task one retry).  Part of the fingerprint.
    fault_policy: FaultPolicy | None = None
    #: Deterministic chaos source shipped into every task
    #: (:class:`~repro.mapreduce.faults.FaultInjector`); test/CI-only.  Part
    #: of the fingerprint (by repr), so an injected run can never be served
    #: from — or poison — a fault-free run's service-cache entry.
    fault_injector: FaultInjector | None = None

    @classmethod
    def resolve(
        cls, value: "ClusterConfig | str | Cluster | None" = None, /, **defaults
    ) -> "ClusterConfig":
        """Normalize a config, backend name, or cluster instance to a config.

        ``value=None`` builds a config from ``defaults`` (the caller's legacy
        keyword arguments); a :class:`ClusterConfig` is used as-is (it
        specifies the run); a backend name or cluster instance becomes the
        ``backend`` of a config built from the remaining defaults.  One
        exception to "the config wins": explicit non-None ``grid`` /
        ``partitioner`` defaults override the config's, so
        ``miner(..., cluster=config, grid="legacy")`` reliably selects the
        legacy grid.
        """
        overrides = {name: defaults.pop(name, None) for name in ("grid", "partitioner")}
        if value is None:
            config = cls(**defaults, **overrides)
        elif isinstance(value, ClusterConfig):
            config = value
        else:
            config = cls(**{**defaults, "backend": value}, **overrides)
        for field_name, override in overrides.items():
            if override is not None and getattr(config, field_name) != override:
                config = config.merged(**{field_name: override})
        return config

    def merged(self, **overrides) -> "ClusterConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    @property
    def grid_name(self) -> str:
        """The effective grid-engine name (falling back to the cluster's, then
        the library default)."""
        from repro.core.grid_engine import DEFAULT_GRID

        if self.grid is not None:
            return self.grid
        backend = self.backend
        attached = None if isinstance(backend, str) else getattr(backend, "grid", None)
        return attached or DEFAULT_GRID

    @property
    def partitioner_name(self) -> str:
        """The effective reduce-partitioner name (falling back to the
        cluster's, then the ``"hash"`` reference)."""
        from repro.mapreduce.job import DEFAULT_PARTITIONER, normalize_partitioner

        if self.partitioner is not None:
            return normalize_partitioner(self.partitioner)
        backend = self.backend
        attached = (
            None if isinstance(backend, str) else getattr(backend, "partitioner", None)
        )
        return attached or DEFAULT_PARTITIONER

    def build(self) -> Cluster:
        """Build (or pass through) the execution backend for this config."""
        return resolve_cluster(self)

    def fingerprint(self) -> str:
        """A stable string identifying this execution substrate.

        Used (with the corpus content hash, constraint, σ, and algorithm) as
        part of the service-layer query-cache key: two configs with the same
        fingerprint run queries on an equivalent substrate.  Patterns are
        backend-independent (the differential matrix proves it), but the
        cached :class:`~repro.mapreduce.metrics.JobMetrics` are not — so each
        distinct substrate caches its own entry.  Ready-made cluster
        instances fingerprint by class name and their declared knobs.
        """
        backend = self.backend
        if not isinstance(backend, str):
            backend = type(backend).__name__
        codec = self.codec if isinstance(self.codec, str) else type(self.codec).__name__
        parts = (
            backend,
            self.num_workers,
            self.num_reduce_tasks,
            self.measure_shuffle,
            codec,
            self.spill_budget_bytes,
            self.blob_dir,
            self.grid_name,
            self.partitioner_name,
            self.plan_sample,
            (self.fault_policy or DEFAULT_FAULT_POLICY).fingerprint(),
            repr(self.fault_injector),
        )
        return "|".join(str(part) for part in parts)


def make_cluster(
    backend: str | ClusterConfig = "simulated",
    num_workers: int | None = None,
    num_reduce_tasks: int | None = None,
    measure_shuffle: bool = True,
    codec: str | Codec = "compact",
    spill_budget_bytes: int | None = None,
    spill_dir: str | None = None,
    blob_dir: str | None = None,
    grid: str | None = None,
    partitioner: str | None = None,
    fault_policy: FaultPolicy | None = None,
    fault_injector: FaultInjector | None = None,
) -> Cluster:
    """Build an execution backend by name or from a :class:`ClusterConfig`.

    ``backend`` is one of :data:`BACKENDS` or a spelling
    :func:`canonical_backend` accepts: ``"simulated"`` models the makespan of
    ``num_workers`` workers in-process, ``"threads"`` runs on a local thread
    pool, ``"persistent-processes"`` (also spelled ``"processes"``) runs on a
    local process pool for real wall-clock speed-ups and publishes the input
    database once as a shared
    :class:`~repro.sequences.store.EncodedSequenceStore` so tasks ship chunk
    descriptors instead of pickled sequence lists (its records must be fid
    sequences), and ``"multihost"`` runs the same process pool but
    additionally exchanges the encoded reduce buckets through a pluggable
    blob store (a local directory rooted at ``blob_dir``; a per-run temp
    directory when ``None``) so map and reduce hosts never share memory or a
    spill file system.
    ``num_workers=None`` uses the backend's default worker count.  ``codec``
    picks the shuffle wire format (:data:`~repro.mapreduce.wire.CODECS`) and
    ``spill_budget_bytes`` caps the encoded payload bytes a map task keeps in
    memory before spilling to ``spill_dir``.  ``grid`` records the pivot-grid
    engine choice and ``partitioner`` the reduce-partitioner choice on the
    cluster so miners handed a ready-made instance inherit them.
    """
    if isinstance(backend, ClusterConfig):
        config = backend
        if not isinstance(config.backend, str):
            raise MapReduceError(
                "make_cluster() requires a backend name; the config already "
                "holds a cluster instance"
            )
        return make_cluster(
            config.backend,
            num_workers=config.num_workers,
            num_reduce_tasks=config.num_reduce_tasks,
            measure_shuffle=config.measure_shuffle,
            codec=config.codec,
            spill_budget_bytes=config.spill_budget_bytes,
            spill_dir=config.spill_dir,
            blob_dir=config.blob_dir,
            grid=config.grid,
            partitioner=config.partitioner,
            fault_policy=config.fault_policy,
            fault_injector=config.fault_injector,
        )
    key = canonical_backend(backend)
    if blob_dir is not None and key != "multihost":
        raise MapReduceError(
            f"blob_dir applies only to the 'multihost' backend, not {key!r}"
        )
    module, _, class_name = _CLUSTER_CLASSES[key].partition(":")
    cluster_class = getattr(import_module(module), class_name)
    extra = {"blob_dir": blob_dir} if key == "multihost" else {}
    return cluster_class(
        num_workers=num_workers,
        num_reduce_tasks=num_reduce_tasks,
        measure_shuffle=measure_shuffle,
        codec=codec,
        spill_budget_bytes=spill_budget_bytes,
        spill_dir=spill_dir,
        grid=grid,
        partitioner=partitioner,
        fault_policy=fault_policy,
        fault_injector=fault_injector,
        **extra,
    )


def resolve_cluster(
    backend: str | Cluster | ClusterConfig,
    num_workers: int | None = None,
    num_reduce_tasks: int | None = None,
    measure_shuffle: bool = True,
    codec: str | Codec = "compact",
    spill_budget_bytes: int | None = None,
    spill_dir: str | None = None,
    blob_dir: str | None = None,
    grid: str | None = None,
    partitioner: str | None = None,
    fault_policy: FaultPolicy | None = None,
    fault_injector: FaultInjector | None = None,
) -> Cluster:
    """Return ``backend`` itself if it already is a cluster, else build one.

    Miners accept a backend name, a ready-made cluster instance, or a
    :class:`ClusterConfig`; this helper normalizes all three to a
    :class:`~repro.mapreduce.base.Cluster`.  When an instance is passed, its
    own configuration wins and the remaining arguments are ignored (job
    metrics always report the cluster's actual worker count, so timings stay
    correctly attributed either way).
    """
    if isinstance(backend, ClusterConfig):
        config = backend
        if not isinstance(config.backend, str) and isinstance(config.backend, Cluster):
            return config.backend
        return make_cluster(config)
    if not isinstance(backend, str) and isinstance(backend, Cluster):
        return backend
    return make_cluster(
        backend,
        num_workers=num_workers,
        num_reduce_tasks=num_reduce_tasks,
        measure_shuffle=measure_shuffle,
        codec=codec,
        spill_budget_bytes=spill_budget_bytes,
        spill_dir=spill_dir,
        blob_dir=blob_dir,
        grid=grid,
        partitioner=partitioner,
        fault_policy=fault_policy,
        fault_injector=fault_injector,
    )
