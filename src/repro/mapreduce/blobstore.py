"""Pluggable blob storage: what every run's fragment store is kept in.

A real multi-host deployment has no shared file system between its map and
reduce workers; what it has is an object store (S3, GCS, a shuffle service).
:class:`BlobStore` is the minimal protocol such a store must offer — ``put`` /
``get`` / ``delete`` / ``list`` over flat string keys — and
:class:`DirectoryBlobStore` implements it on a local directory so the
multi-host backend can be developed and tested without cloud credentials.
:class:`InMemoryBlobStore` is the in-process fake for unit tests; it counts
its operations so tests can assert on access patterns (e.g. one ``get`` per
distinct key on the reduce side).

Keys are *content-addressed*: :func:`content_key` derives the key from a
SHA-1 of the payload under a caller-chosen prefix (the per-job namespace).
Two identical payloads share a key — a harmless dedup, since a blob's bytes
fully determine what any reader decodes — and a whole job's blobs can be
dropped by deleting its prefix, which is what guarantees cleanup even when a
mid-stage worker failure aborts the run.

Object stores are eventually consistent and briefly flaky in ways a local
directory is not, so reads and writes go through :func:`get_with_retry` /
:func:`put_with_retry` — one bounded, deterministically jittered backoff
loop of :data:`BLOB_ATTEMPTS` tries — mirroring how serverless shuffle
implementations poll object storage for fragments that may not be visible
yet.

A job announces its namespace with a *lease* (:func:`write_lease`): one tiny
JSON blob under ``<prefix>/.lease`` stamping when the namespace was created
and by whom.  A driver that dies mid-run orphans its namespace; the lease is
what lets :func:`gc_expired` later distinguish "abandoned job past its TTL"
(:data:`NAMESPACE_TTL_S` by default) from "live job" or "foreign files
somebody parked in the same directory".
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import socket
import tempfile
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import MapReduceError
from repro.mapreduce.faults import full_jitter_delay

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.mapreduce.metrics import Counters


class BlobStoreError(MapReduceError):
    """Raised when a blob-store operation fails."""


class BlobNotFoundError(BlobStoreError):
    """Raised when ``get`` cannot find a key (possibly only *not yet*)."""

    def __init__(self, key: str) -> None:
        super().__init__(f"no blob stored under key {key!r}")
        self.key = key


#: Key of the per-namespace lease blob, relative to the job prefix.
LEASE_NAME = ".lease"

#: Tries one blob get or put gets before its error propagates, and the
#: window of the deterministic full-jitter backoff between them.  Module
#: constants, not policy fields: only tests change them.
BLOB_ATTEMPTS = 4
BLOB_BACKOFF_BASE_S = 0.01
BLOB_BACKOFF_CAP_S = 0.25

#: Age past which a leased namespace counts as orphaned: the default of
#: ``repro blob-gc --ttl`` and of the sweep a shared-store job runs at start.
NAMESPACE_TTL_S = 24 * 3600.0


@runtime_checkable
class BlobStore(Protocol):
    """Anything that can store and serve named byte blobs."""

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` (idempotent for content-addressed keys)."""
        ...  # pragma: no cover - protocol definition

    def get(self, key: str) -> bytes:
        """Return the blob stored under ``key``; raise :class:`BlobNotFoundError`."""
        ...  # pragma: no cover - protocol definition

    def delete(self, key: str) -> None:
        """Remove ``key`` if present (missing keys are not an error)."""
        ...  # pragma: no cover - protocol definition

    def list(self, prefix: str = "") -> list[str]:
        """All stored keys starting with ``prefix``, sorted."""
        ...  # pragma: no cover - protocol definition


def content_key(data: bytes, prefix: str = "") -> str:
    """The content-addressed key for ``data`` under a job's ``prefix``."""
    digest = hashlib.sha1(data).hexdigest()
    return f"{prefix}/{digest}" if prefix else digest


def delete_prefix(store: BlobStore, prefix: str) -> int:
    """Delete every key under ``prefix``; returns the number of keys dropped.

    Tolerates a concurrent cleaner racing over the same namespace (two
    drivers sweeping one shared ``--blob-dir``): a key that vanishes between
    ``list`` and ``delete`` is somebody else's successful delete, not an
    error.
    """
    keys = store.list(prefix)
    dropped = 0
    for key in keys:
        try:
            store.delete(key)
            dropped += 1
        except (BlobStoreError, OSError):
            continue
    return dropped


def _retry_loop(operation, kind: str, key: str, stats: Counters | None):
    """Shared bounded-retry core of :func:`get_with_retry` / :func:`put_with_retry`.

    Makes up to :data:`BLOB_ATTEMPTS` tries and waits between them with
    deterministic full jitter (uniform-by-hash in ``[0, min(cap, base·2ᵃ⁻¹))``),
    so concurrent tasks retrying the same hot store never form a
    synchronized convoy, yet a replayed run backs off identically.  The
    final attempt's error propagates unchanged, so a genuinely missing blob
    still fails the job with :class:`BlobNotFoundError`.  The retries
    actually taken are counted into ``stats.blob_retry_count``.
    """
    for attempt in range(1, BLOB_ATTEMPTS + 1):
        try:
            return operation()
        except BlobStoreError:
            if attempt == BLOB_ATTEMPTS:
                raise
            if stats is not None:
                stats.blob_retry_count += 1
            time.sleep(
                full_jitter_delay(
                    BLOB_BACKOFF_BASE_S, BLOB_BACKOFF_CAP_S, attempt, "blob", kind, key
                )
            )
    raise AssertionError("unreachable")  # pragma: no cover


def get_with_retry(store: BlobStore, key: str, stats: Counters | None = None) -> bytes:
    """``store.get(key)`` with bounded, jittered backoff (:func:`_retry_loop`).

    Object stores serve freshly written keys with a small propagation delay
    and the odd transient error; a reduce task must not die on either.
    """
    return _retry_loop(lambda: store.get(key), "get", key, stats)


def put_with_retry(
    store: BlobStore, key: str, data: bytes, stats: Counters | None = None
) -> None:
    """``store.put(key, data)`` with the same bounded, jittered backoff.

    Safe to repeat because shuffle keys are content-addressed: re-uploading
    after a partial failure writes the identical bytes under the identical
    key, so a retried put (or a retried *task* re-staging its buckets) is
    idempotent by construction.
    """
    _retry_loop(lambda: store.put(key, data), "put", key, stats)


# ------------------------------------------------------------ leases and GC
def write_lease(store: BlobStore, prefix: str, now: float | None = None) -> str:
    """Stamp ``prefix`` as a live job namespace; returns the lease key.

    The lease records the namespace's creation time plus the owning driver's
    pid/host (purely diagnostic).  It is the *manifest* that marks a prefix
    as ours to garbage-collect: :func:`gc_expired` only ever touches leased
    namespaces, so foreign files sharing the directory are never at risk.
    """
    key = f"{prefix}/{LEASE_NAME}"
    stamp = {
        "created_at": time.time() if now is None else now,
        "pid": os.getpid(),
        "host": socket.gethostname(),
    }
    store.put(key, json.dumps(stamp).encode("utf-8"))
    return key


def read_lease(store: BlobStore, prefix: str) -> dict | None:
    """The lease stamp of ``prefix``, or ``None`` if absent or unreadable.

    A stamp is readable only as a JSON object whose ``created_at`` is a
    finite number (not a bool): anything else — bytes that are not JSON,
    nesting too deep to parse, ``NaN``, ``true`` — could not say when the
    namespace was created, so no sweep may act on it.
    """
    try:
        stamp = json.loads(store.get(f"{prefix}/{LEASE_NAME}").decode("utf-8"))
    except (BlobStoreError, ValueError, RecursionError):
        return None
    created = stamp.get("created_at") if isinstance(stamp, dict) else None
    if isinstance(created, bool) or not isinstance(created, (int, float)):
        return None
    try:
        return stamp if math.isfinite(created) else None
    except OverflowError:  # an int past the float range
        return None


def expired_namespaces(
    store: BlobStore, ttl_s: float, now: float | None = None
) -> list[str]:
    """The leased prefixes whose lease is older than ``ttl_s`` seconds, sorted.

    The one expiry rule: :func:`gc_expired` sweeps exactly these, and ``repro
    blob-gc --dry-run`` lists them.  Only namespaces *with* a readable lease
    are candidates — an unleased prefix is either a live pre-lease race,
    foreign data, or an old-format job, and all three are left alone, as is
    a lease :func:`read_lease` cannot read.  A lease younger than the TTL
    marks a live (or recently live) job.
    """
    clock = time.time() if now is None else now
    lease_suffix = f"/{LEASE_NAME}"
    expired = []
    for key in store.list(""):
        if not key.endswith(lease_suffix):
            continue
        prefix = key[: -len(lease_suffix)]
        stamp = read_lease(store, prefix)  # None too if another cleaner won the race
        if stamp is not None and clock - stamp["created_at"] > ttl_s:
            expired.append(prefix)
    return sorted(expired)


def gc_expired(
    store: BlobStore, ttl_s: float, now: float | None = None
) -> list[str]:
    """Sweep the :func:`expired_namespaces` of ``store``; returns them.

    A driver that is killed mid-run leaves its ``job-*`` namespace behind
    forever; this is the reclaim path.  Deletion races with other cleaners
    are tolerated, and a sweep deletes under ``<prefix>/`` only, never a
    neighbour whose name merely starts with the prefix.
    """
    expired = expired_namespaces(store, ttl_s, now)
    for prefix in expired:
        delete_prefix(store, f"{prefix}/")
    return expired


@dataclass(frozen=True)
class DirectoryBlobStore:
    """Blob store backed by a local directory (the dev/test deployment).

    Keys map to files under ``root`` (a ``/`` in the key becomes a
    subdirectory).  Writes are atomic — the payload lands in a temp file and
    is renamed into place — so a concurrent reader never observes a partial
    blob, matching the read-after-write atomicity of real object stores.
    The dataclass holds only the root path, so instances pickle into the
    subprocess host workers at descriptor size.
    """

    root: str

    def _path(self, key: str) -> str:
        path = os.path.normpath(os.path.join(self.root, key))
        if not path.startswith(os.path.normpath(self.root) + os.sep):
            raise BlobStoreError(f"blob key {key!r} escapes the store root")
        return path

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        descriptor, staging = tempfile.mkstemp(
            prefix=".staging-", dir=os.path.dirname(path)
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
            os.replace(staging, path)
        except BaseException:
            try:
                os.remove(staging)
            except OSError:
                pass
            raise

    def get(self, key: str) -> bytes:
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise BlobNotFoundError(key) from None

    def delete(self, key: str) -> None:
        path = self._path(key)
        try:
            os.remove(path)
        except OSError:
            return
        # Drop directories a job prefix leaves empty, so a cleaned store
        # looks exactly like it did before the job ran.
        parent = os.path.dirname(path)
        root = os.path.normpath(self.root)
        while os.path.normpath(parent) != root:
            try:
                os.rmdir(parent)
            except OSError:
                break
            parent = os.path.dirname(parent)

    def list(self, prefix: str = "") -> list[str]:
        keys = []
        for directory, _subdirs, files in os.walk(self.root):
            for name in files:
                if name.startswith(".staging-"):
                    continue
                path = os.path.join(directory, name)
                key = os.path.relpath(path, self.root).replace(os.sep, "/")
                if key.startswith(prefix):
                    keys.append(key)
        return sorted(keys)


@dataclass
class InMemoryBlobStore:
    """Dict-backed fake for unit tests, with operation counters.

    Single-process only (workers in other processes would see an empty
    copy); the stage driver itself always uses a
    :class:`DirectoryBlobStore`.
    """

    blobs: dict[str, bytes] = field(default_factory=dict)
    puts: int = 0
    gets: int = 0
    deletes: int = 0

    def put(self, key: str, data: bytes) -> None:
        self.puts += 1
        self.blobs[key] = bytes(data)

    def get(self, key: str) -> bytes:
        self.gets += 1
        try:
            return self.blobs[key]
        except KeyError:
            raise BlobNotFoundError(key) from None

    def delete(self, key: str) -> None:
        self.deletes += 1
        self.blobs.pop(key, None)

    def list(self, prefix: str = "") -> list[str]:
        return sorted(key for key in self.blobs if key.startswith(prefix))
