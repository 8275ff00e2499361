"""Unit tests for the pluggable blob store behind the multi-host shuffle."""

from __future__ import annotations

import os

import pytest

from repro.errors import MapReduceError
from repro.mapreduce import (
    BlobNotFoundError,
    BlobStore,
    Counters,
    DirectoryBlobStore,
    InMemoryBlobStore,
    content_key,
    get_with_retry,
    put_with_retry,
)
from repro.mapreduce.blobstore import BLOB_ATTEMPTS, BlobStoreError, delete_prefix


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryBlobStore()
    return DirectoryBlobStore(str(tmp_path / "blobs"))


class TestBlobStoreContract:
    """Both implementations satisfy the same put/get/delete/list contract."""

    def test_implements_protocol(self, store):
        assert isinstance(store, BlobStore)

    def test_put_get_roundtrip(self, store):
        store.put("job-1/abc", b"payload")
        assert store.get("job-1/abc") == b"payload"

    def test_put_is_idempotent(self, store):
        store.put("k", b"same")
        store.put("k", b"same")
        assert store.get("k") == b"same"
        assert store.list() == ["k"]

    def test_get_missing_raises_not_found(self, store):
        with pytest.raises(BlobNotFoundError) as excinfo:
            store.get("job-1/missing")
        assert excinfo.value.key == "job-1/missing"
        # The blob-store errors slot into the existing hierarchy, so the
        # driver's MapReduceError handling covers them.
        assert isinstance(excinfo.value, MapReduceError)

    def test_delete_missing_is_silent(self, store):
        store.delete("never-stored")

    def test_list_filters_by_prefix(self, store):
        store.put("job-a/1", b"x")
        store.put("job-a/2", b"y")
        store.put("job-b/1", b"z")
        assert store.list("job-a/") == ["job-a/1", "job-a/2"]
        assert store.list() == ["job-a/1", "job-a/2", "job-b/1"]

    def test_delete_prefix_drops_only_that_namespace(self, store):
        store.put("job-a/1", b"x")
        store.put("job-a/2", b"y")
        store.put("job-b/1", b"z")
        assert delete_prefix(store, "job-a/") == 2
        assert store.list() == ["job-b/1"]


class TestContentKeys:
    def test_same_payload_same_key(self):
        assert content_key(b"data", "job") == content_key(b"data", "job")

    def test_different_payload_different_key(self):
        assert content_key(b"data", "job") != content_key(b"atad", "job")

    def test_prefix_namespaces_the_key(self):
        key = content_key(b"data", "job-123")
        assert key.startswith("job-123/")
        assert content_key(b"data") == key.partition("/")[2]


class TestDirectoryBlobStore:
    def test_cleanup_prunes_empty_prefix_directories(self, tmp_path):
        root = tmp_path / "blobs"
        store = DirectoryBlobStore(str(root))
        store.put("job-a/deep/key", b"x")
        assert (root / "job-a" / "deep").is_dir()
        delete_prefix(store, "job-a/")
        # A cleaned store looks exactly as it did before the job ran.
        assert (root / "job-a").exists() is False

    def test_key_cannot_escape_the_root(self, tmp_path):
        store = DirectoryBlobStore(str(tmp_path / "blobs"))
        with pytest.raises(BlobStoreError, match="escapes the store root"):
            store.put("../outside", b"x")

    def test_staging_files_are_invisible(self, tmp_path):
        root = tmp_path / "blobs"
        store = DirectoryBlobStore(str(root))
        store.put("job/key", b"x")
        (root / "job" / ".staging-leftover").write_bytes(b"partial")
        assert store.list() == ["job/key"]

    def test_atomic_put_leaves_no_staging_file_on_failure(self, tmp_path, monkeypatch):
        root = tmp_path / "blobs"
        store = DirectoryBlobStore(str(root))

        def failing_replace(src, dst):
            raise RuntimeError("boom")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(RuntimeError):
            store.put("job/key", b"x")
        leftovers = [
            name
            for _, _, files in os.walk(root)
            for name in files
        ]
        assert leftovers == []


class FlakyStore(InMemoryBlobStore):
    """Fails the first ``failures`` gets of each run (propagation-delay fake)."""

    def __init__(self, failures: int) -> None:
        super().__init__()
        self.failures = failures

    def get(self, key: str) -> bytes:
        if self.failures > 0:
            self.failures -= 1
            self.gets += 1
            raise BlobNotFoundError(key)
        return super().get(key)


@pytest.mark.usefixtures("no_backoff")
class TestGetWithRetry:
    def test_returns_on_first_success(self):
        store = InMemoryBlobStore()
        store.put("k", b"v")
        assert get_with_retry(store, "k") == b"v"
        assert store.gets == 1

    def test_retries_through_transient_misses(self):
        store = FlakyStore(failures=2)
        store.put("k", b"v")
        assert get_with_retry(store, "k") == b"v"
        assert store.gets == 3

    def test_exhausted_attempts_raise_the_final_error(self):
        store = FlakyStore(failures=100)
        store.put("k", b"v")
        with pytest.raises(BlobNotFoundError):
            get_with_retry(store, "k")
        assert store.gets == BLOB_ATTEMPTS

    def test_genuinely_missing_blob_still_fails(self):
        with pytest.raises(BlobNotFoundError):
            get_with_retry(InMemoryBlobStore(), "absent")

    def test_last_attempt_succeeds_and_retries_are_counted(self):
        store = FlakyStore(failures=BLOB_ATTEMPTS - 1)
        store.put("k", b"v")
        stats = Counters()
        assert get_with_retry(store, "k", stats=stats) == b"v"
        assert store.gets == BLOB_ATTEMPTS
        assert stats == Counters(blob_retry_count=BLOB_ATTEMPTS - 1)

    def test_attempt_budget_is_binding(self):
        store = FlakyStore(failures=BLOB_ATTEMPTS)
        store.put("k", b"v")
        with pytest.raises(BlobNotFoundError):
            get_with_retry(store, "k")
        assert store.gets == BLOB_ATTEMPTS


class FlakyPutStore(InMemoryBlobStore):
    """Fails the first ``failures`` puts (transient object-store write errors)."""

    def __init__(self, failures: int) -> None:
        super().__init__()
        self.failures = failures
        self.attempted_puts = 0

    def put(self, key: str, data: bytes) -> None:
        self.attempted_puts += 1
        if self.failures > 0:
            self.failures -= 1
            raise BlobStoreError(f"injected transient put failure for {key!r}")
        super().put(key, data)


@pytest.mark.usefixtures("no_backoff")
class TestPutWithRetry:
    def test_retries_through_transient_write_failures(self):
        store = FlakyPutStore(failures=2)
        stats = Counters()
        put_with_retry(store, "k", b"payload", stats=stats)
        assert store.get("k") == b"payload"
        assert store.attempted_puts == 3
        assert stats == Counters(blob_retry_count=2)

    def test_exhausted_attempts_raise_the_final_error(self):
        store = FlakyPutStore(failures=100)
        with pytest.raises(BlobStoreError, match="transient put failure"):
            put_with_retry(store, "k", b"payload")
        assert store.attempted_puts == BLOB_ATTEMPTS

    def test_one_retry_absorbs_one_failure(self):
        store = FlakyPutStore(failures=1)
        put_with_retry(store, "k", b"payload")
        assert store.get("k") == b"payload"
