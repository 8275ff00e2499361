"""Fault-tolerance policy and deterministic fault injection for the substrate.

The paper's distributed miners inherit fault tolerance from the MapReduce
framework they run on: a failed task is retried on another worker, a
dead host's tasks are re-dispatched, and the shuffle data of a finished job is
eventually garbage-collected.  This module supplies the equivalents for the
reproduction's execution backends:

* :func:`is_retryable` and the backoff between task attempts
  (:func:`full_jitter_delay` over :data:`TASK_BACKOFF_BASE_S` /
  :data:`TASK_BACKOFF_CAP_S`), read by the stage driver.  The one knob a
  deployment sets, how many attempts a map/reduce task gets, is
  :attr:`~repro.mapreduce.factory.ClusterConfig.max_task_attempts`; blob
  retries have constants of their own in :mod:`repro.mapreduce.blobstore`.
* :class:`FaultInjector` — the protocol a deterministic chaos source must
  offer, and :class:`ScriptedInjector`, the seedable implementation used by
  tests, CI, and the chaos-smoke benchmark: kill a specific task's host on
  its first N attempts, or fail a deterministic fraction of blob puts/gets.
* :class:`TaskContext` — the per-attempt descriptor the stage driver ships
  into every task (stage, task index, attempt number, injector), so
  workers in other processes observe the same injection schedule as
  in-process backends.

Every decision an injector makes is a pure function of its seed and the
operation's identity (stage/index/attempt or blob key/call number) — never of
wall-clock time or shared mutable state — which is what lets a retried run be
byte-identical to a fault-free one and a CI chaos matrix be reproducible.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from repro.errors import CandidateExplosionError, MapReduceError


class JobNotDeliveredError(MapReduceError):
    """Raised by a pooled task whose worker was never handed the job it names.

    A pool delivers its job to every worker once, through the pool
    initializer; a task reaching a worker that holds another job (or none)
    is a broken pool set-up, which no retry on the same pool can repair.
    """


class InjectedFault(MapReduceError):
    """Raised by a :class:`FaultInjector` standing in for a real task failure."""


def stable_fraction(*parts: Any) -> float:
    """A deterministic pseudo-random fraction in ``[0, 1)`` derived from ``parts``.

    The jitter and injection-schedule primitive: identical inputs produce the
    identical fraction on every platform and in every process, unlike
    ``random.random()`` (whose state would differ between a task's attempts)
    or ``hash()`` (randomized per process).
    """
    token = "|".join(str(part) for part in parts).encode("utf-8")
    digest = hashlib.sha1(token).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def full_jitter_delay(
    base_s: float, cap_s: float, attempt: int, *token: Any
) -> float:
    """Deterministic "full jitter" backoff: uniform in ``[0, min(cap, base·2ᵃ))``.

    The standard full-jitter scheme (AWS architecture blog) avoids retry
    convoys — every waiter picks a different point in the window — but here
    the "random" point is :func:`stable_fraction` of the attempt identity, so
    a replayed run waits exactly as long as the original.
    """
    if attempt < 1:
        raise MapReduceError(f"attempt numbers are 1-based, got {attempt}")
    window = min(cap_s, base_s * (2 ** (attempt - 1)))
    if window <= 0:
        return 0.0
    return stable_fraction("jitter", attempt, *token) * window


#: Backoff before re-running a failed task: deterministic full jitter in
#: ``[0, min(cap, base·2ᵃ⁻¹))``, slept by the driver between retry rounds.
#: Module constants, not policy fields: only tests change them (to zero).
TASK_BACKOFF_BASE_S = 0.05
TASK_BACKOFF_CAP_S = 2.0


def is_retryable(error: BaseException) -> bool:
    """Whether a failed task attempt may be re-run within its attempt budget.

    Candidate/run explosions are deterministic properties of the data and the
    constraint — re-running the task reproduces them exactly — so they fail
    the job immediately no matter the retry budget, and so does a worker
    that does not hold the task's job.  Everything else
    (injected faults, dead hosts, blob-store errors) is treated as
    potentially transient, matching how cluster schedulers retry task
    failures they cannot classify.
    """
    return not isinstance(error, (CandidateExplosionError, JobNotDeliveredError))


# ---------------------------------------------------------------- injection
@runtime_checkable
class FaultInjector(Protocol):
    """A deterministic chaos source observed by tasks and blob operations.

    Implementations must be picklable (they travel inside every task) and
    must decide every hook as a pure function of their configuration and the
    hook's arguments, so all backends — including subprocess hosts — observe
    the same schedule.
    """

    def on_task_start(self, stage: str, index: int, attempt: int) -> None:
        """Called as a task attempt begins; may raise or kill the host."""
        ...  # pragma: no cover - protocol definition

    def on_blob_put(self, key: str, call_index: int) -> None:
        """Called before the ``call_index``-th put of ``key``; may raise."""
        ...  # pragma: no cover - protocol definition

    def on_blob_get(self, key: str, call_index: int) -> None:
        """Called before the ``call_index``-th get of ``key``; may raise."""
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class ScriptedInjector:
    """The seedable :class:`FaultInjector` used by tests, CI, and the chaos bench.

    ``kill_map_task`` / ``kill_reduce_task`` name one task index whose first
    ``kill_attempts`` attempts die: ``kill_mode="raise"`` raises an
    :class:`InjectedFault` inside the task (a clean task failure), while
    ``"exit"`` terminates the worker process outright (``os._exit``), which a
    process-pool backend observes as a dead host taking every in-flight task
    with it.

    ``blob_get_failure_rate`` / ``blob_put_failure_rate`` mark a
    deterministic fraction of blob keys as flaky — whether a *key* is flaky
    is a pure hash of ``(seed, key)``, so every process agrees — and a flaky
    key's first ``blob_failures_per_key`` operations of each kind fail with
    :class:`~repro.mapreduce.blobstore.BlobStoreError`.  Keep
    ``blob_failures_per_key`` below
    :data:`~repro.mapreduce.blobstore.BLOB_ATTEMPTS` and the store-level
    retries absorb every injected failure.
    """

    seed: int = 0
    kill_map_task: int | None = None
    kill_reduce_task: int | None = None
    kill_attempts: int = 1
    kill_mode: str = "raise"
    blob_get_failure_rate: float = 0.0
    blob_put_failure_rate: float = 0.0
    blob_failures_per_key: int = 1

    def __post_init__(self) -> None:
        if self.kill_mode not in ("raise", "exit"):
            raise MapReduceError(
                f"kill_mode must be 'raise' or 'exit', got {self.kill_mode!r}"
            )
        for name in ("blob_get_failure_rate", "blob_put_failure_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise MapReduceError(f"{name} must be in [0, 1], got {rate}")

    # ------------------------------------------------------------------ hooks
    def on_task_start(self, stage: str, index: int, attempt: int) -> None:
        target = self.kill_map_task if stage == "map" else self.kill_reduce_task
        if target == index and attempt <= self.kill_attempts:
            if self.kill_mode == "exit" and multiprocessing.parent_process() is not None:
                # A real host death: only meaningful inside a pool worker —
                # in the driver process (the simulated backend) it would
                # kill the job itself, so those degrade to a raised fault.
                os._exit(86)
            raise InjectedFault(
                f"injected {stage}-task {index} host failure (attempt {attempt})"
            )

    def _flaky(self, kind: str, key: str, rate: float) -> bool:
        return rate > 0 and stable_fraction(self.seed, kind, key) < rate

    def on_blob_put(self, key: str, call_index: int) -> None:
        if call_index < self.blob_failures_per_key and self._flaky(
            "put", key, self.blob_put_failure_rate
        ):
            from repro.mapreduce.blobstore import BlobStoreError

            raise BlobStoreError(f"injected blob put failure for {key!r}")

    def on_blob_get(self, key: str, call_index: int) -> None:
        if call_index < self.blob_failures_per_key and self._flaky(
            "get", key, self.blob_get_failure_rate
        ):
            from repro.mapreduce.blobstore import BlobStoreError

            raise BlobStoreError(f"injected blob get failure for {key!r}")


@dataclass
class FaultInjectingBlobStore:
    """Wraps a blob store so an injector observes (and may fail) put/get calls.

    Per-key call counters live on the wrapper instance, and every task
    attempt wraps the raw store itself (:meth:`TaskContext.wrap_store`), so
    "the first N operations of a flaky key fail" holds inside every attempt
    on every backend — the shape of an object store's transient errors.
    ``delete`` and ``list`` pass through uninjected: cleanup must
    always win.
    """

    inner: Any
    injector: FaultInjector
    _put_calls: dict[str, int] = field(default_factory=dict)
    _get_calls: dict[str, int] = field(default_factory=dict)

    def put(self, key: str, data: bytes) -> None:
        call_index = self._put_calls.get(key, 0)
        self._put_calls[key] = call_index + 1
        self.injector.on_blob_put(key, call_index)
        self.inner.put(key, data)

    def get(self, key: str) -> bytes:
        call_index = self._get_calls.get(key, 0)
        self._get_calls[key] = call_index + 1
        self.injector.on_blob_get(key, call_index)
        return self.inner.get(key)

    def delete(self, key: str) -> None:
        self.inner.delete(key)

    def list(self, prefix: str = "") -> list[str]:
        return self.inner.list(prefix)


# ------------------------------------------------------------------- context
@dataclass(frozen=True)
class TaskContext:
    """Per-attempt execution context shipped into every map/reduce task.

    Identifies the attempt (``stage``, ``index``, ``attempt``) and carries
    the optional :class:`FaultInjector`.  Pickles at descriptor size, like a
    :class:`~repro.sequences.store.StoreChunk`.
    """

    stage: str
    index: int
    attempt: int
    injector: FaultInjector | None = None

    def begin(self) -> None:
        """Observe the attempt's start (the injector may raise or kill here)."""
        if self.injector is not None:
            self.injector.on_task_start(self.stage, self.index, self.attempt)

    def wrap_store(self, store: Any) -> Any:
        """``store`` as this attempt sees it: with an injector, in a fresh
        :class:`FaultInjectingBlobStore`, whose per-key call counts start at 0."""
        if self.injector is None or store is None:
            return store
        return FaultInjectingBlobStore(store, self.injector)
