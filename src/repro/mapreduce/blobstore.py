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
SHA-1 of the payload under a caller-chosen prefix.  Two identical payloads
share a key — a harmless dedup, since a blob's bytes fully determine what any
reader decodes — and a run's keys are a pure function of its payloads.  The
stage driver keeps the store in the run directory, which goes whole when the
run ends (see :mod:`repro.mapreduce.base`), so no store needs a cleanup or
an orphan rule of its own.

Object stores are eventually consistent and briefly flaky in ways a local
directory is not, so reads and writes go through :func:`get_with_retry` /
:func:`put_with_retry` — one bounded, deterministically jittered backoff
loop of :data:`BLOB_ATTEMPTS` tries — mirroring how serverless shuffle
implementations poll object storage for fragments that may not be visible
yet.
"""

from __future__ import annotations

import hashlib
import json
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


#: Tries one blob get or put gets before its error propagates, and the
#: window of the deterministic full-jitter backoff between them.  Module
#: constants, not policy fields: only tests change them.
BLOB_ATTEMPTS = 4
BLOB_BACKOFF_BASE_S = 0.01
BLOB_BACKOFF_CAP_S = 0.25


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

    Tolerates a concurrent cleaner racing over the same prefix: a key that
    vanishes between ``list`` and ``delete`` is somebody else's successful
    delete, not an error.
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


def write_lease(store: BlobStore, prefix: str, now: float | None = None) -> str:
    """Put a JSON stamp of ``prefix``'s birth (time, pid, host) under
    ``<prefix>/.lease``; returns its key.

    No product code calls it: a run's directory name is its lease (see
    :mod:`repro.mapreduce.base`).  It stays only because the frozen
    ``benchmarks/e2e/replay.py`` times it, and goes when the replay reads
    the product's own phase timings.
    """
    key = f"{prefix}/.lease"
    stamp = {
        "created_at": time.time() if now is None else now,
        "pid": os.getpid(),
        "host": socket.gethostname(),
    }
    store.put(key, json.dumps(stamp).encode("utf-8"))
    return key


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
