"""Bucket fragments, the run's fragment store, and the reduce-side streamed merge.

Map tasks serialize every reduce bucket with a :class:`~repro.mapreduce.wire.Codec`
before handing it to the driver.  A payload travels inline while the task's
encoded payloads fit the configured in-memory budget; past it, the payload
goes into the run's :class:`FragmentStore` — one key prefix in a
content-addressed :class:`~repro.mapreduce.blobstore.BlobStore` — and only a
small :class:`WireFragment` *reference* (blob key, length) travels through the
driver, so shuffles larger than memory never materialize in one process.  On
the ``multihost`` backend every payload goes to the store.  The reduce side
merges its fragments with :func:`merge_fragments`, fetching and decoding one
fragment at a time (the streamed shuffle read).

The store is a :class:`~repro.mapreduce.blobstore.DirectoryBlobStore` in
the run directory under ``spill_dir``; the stage driver opens it, and it goes
with the run directory (see :mod:`repro.mapreduce.base`).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import MapReduceError
from repro.mapreduce.metrics import Counters
from repro.mapreduce.wire import Codec

if TYPE_CHECKING:  # pragma: no cover - the blob store loads only when a run puts
    from repro.mapreduce.blobstore import BlobStore


@dataclass
class WireFragment:
    """One encoded bucket payload: inline bytes, or the key of a blob in the
    run's :class:`FragmentStore`."""

    records: int
    wire_bytes: int
    data: bytes | None = None
    blob_key: str | None = None

    def read(self) -> bytes:
        """Return the inline payload.

        Stored fragments can only be read through a :class:`FragmentReader`
        that knows their blob store.
        """
        if self.data is not None:
            return self.data
        raise MapReduceError(
            f"fragment references blob {self.blob_key!r}; read it through a "
            "FragmentReader constructed with its blob store"
        )


@dataclass(frozen=True)
class FragmentStore:
    """One run's key prefix in a content-addressed blob store.

    Payloads that do not travel inline are put here under
    :func:`~repro.mapreduce.blobstore.content_key` of ``prefix``: those past
    the spill budget, or every payload when ``every_payload`` is set (the
    ``multihost`` backend).  It ships with every map task; the store
    implementations hold only a root path, so it pickles at descriptor size.
    """

    blobs: BlobStore
    prefix: str
    every_payload: bool = False


class FragmentReader:
    """Reads fragments, fetching stored ones from ``blob_store``.

    Fetches go through :func:`~repro.mapreduce.blobstore.get_with_retry` and
    count into the reader's ``counters`` (``blob_get_*`` and
    ``blob_retry_count``).  Every fetched payload is checked against its
    fragment's ``wire_bytes``.  A reader holds nothing between calls, so it
    needs no closing; it still works as a context manager for callers that
    span one with a ``with`` block.
    """

    def __init__(self, blob_store: BlobStore | None = None) -> None:
        self.blob_store = blob_store
        self.counters = Counters()

    @property
    def blob_gets(self) -> int:
        """The gets this reader has made."""
        return self.counters.blob_get_count

    def read(self, fragment: WireFragment) -> bytes:
        """Return one fragment's encoded payload; a stored one costs one get."""
        if fragment.data is not None:
            return fragment.data
        key = fragment.blob_key
        if key is None:
            raise MapReduceError("fragment has neither inline data nor a blob key")
        if self.blob_store is None:
            raise MapReduceError(
                f"fragment references blob {key!r} but this reader has no blob store"
            )
        from repro.mapreduce.blobstore import get_with_retry

        blob = get_with_retry(self.blob_store, key, stats=self.counters)
        self.counters.blob_get_count += 1
        self.counters.blob_get_bytes += len(blob)
        if len(blob) != fragment.wire_bytes:
            raise MapReduceError(
                f"stored fragment {key!r} is {len(blob)} bytes, expected "
                f"{fragment.wire_bytes}"
            )
        return blob

    def read_many(self, fragments: Iterable[WireFragment]):
        """Yield each fragment's payload, fetching each blob key once.

        A fetched blob is held only until the last fragment that names its
        key has been read, so fragments with distinct keys hold one blob at
        a time while a key shared by several fragments (content-addressed
        dedup) still costs one get.
        """
        fragments = list(fragments)
        pending = Counter(f.blob_key for f in fragments if f.data is None)
        held: dict[str | None, bytes] = {}
        for fragment in fragments:
            if fragment.data is not None:
                yield fragment.data
                continue
            key = fragment.blob_key
            blob = held.pop(key, None)
            if blob is None:
                blob = self.read(fragment)
            pending[key] -= 1
            if pending[key]:
                held[key] = blob
            yield blob

    def __enter__(self) -> "FragmentReader":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def store_payloads(
    encoded: Iterable[tuple[int, bytes, int]],
    spill_budget_bytes: int | None,
    fragment_store: FragmentStore | None = None,
) -> tuple[list[tuple[int, WireFragment]], Counters]:
    """Turn encoded bucket payloads into fragments, storing those past the budget.

    ``encoded`` yields ``(bucket_index, blob, record_count)`` triples in
    deterministic order.  Blobs are kept inline while the running inline total
    stays within ``spill_budget_bytes``; every blob that would exceed the
    budget is put into ``fragment_store`` instead (``None`` disables the
    budget, ``0`` stores everything), as is every blob when the store takes
    every payload.  Puts retry transient store failures
    (:func:`~repro.mapreduce.blobstore.put_with_retry`) — safe at any
    repetition, because a content-addressed re-put is idempotent.  Returns
    the fragments and the shuffle write's
    :class:`~repro.mapreduce.metrics.Counters`: ``wire_bytes``,
    ``spilled_*``, ``blob_put_*`` and the puts' ``blob_retry_count``.
    """
    fragments: list[tuple[int, WireFragment]] = []
    stats = Counters()
    every_payload = fragment_store is not None and fragment_store.every_payload
    inline_total = 0
    for bucket_index, blob, records in encoded:
        fragment = WireFragment(records=records, wire_bytes=len(blob))
        stats.wire_bytes += len(blob)
        past_budget = (
            spill_budget_bytes is not None and inline_total + len(blob) > spill_budget_bytes
        )
        if past_budget:
            stats.spilled_buckets += 1
            stats.spilled_bytes += len(blob)
        else:
            inline_total += len(blob)
        if past_budget or every_payload:
            if fragment_store is None:
                raise MapReduceError("a payload past the spill budget needs a fragment store")
            from repro.mapreduce.blobstore import content_key, put_with_retry

            fragment.blob_key = content_key(blob, fragment_store.prefix)
            put_with_retry(fragment_store.blobs, fragment.blob_key, blob, stats=stats)
            stats.blob_put_count += 1
            stats.blob_put_bytes += len(blob)
        else:
            fragment.data = blob
        fragments.append((bucket_index, fragment))
    return fragments, stats


def merge_fragments(
    fragments: Sequence[WireFragment], codec: Codec, reader: FragmentReader | None = None
) -> dict[Any, list[Any]]:
    """Merge one bucket's fragments by key (the reduce-side shuffle read).

    Fragments are read and decoded one at a time — only the merged key groups
    and a single fragment's blob are ever in memory (a blob several fragments
    share is held until the last of them), which is what lets stored
    shuffles stay larger than the in-memory budget.  Pass a
    :class:`FragmentReader` over the run's blob store to read stored
    fragments and collect its fetch counters; without one, only inline
    fragments can be merged.
    """
    grouped: dict[Any, list[Any]] = {}
    if reader is None:
        reader = FragmentReader()
    for blob in reader.read_many(fragments):
        for key, values in codec.iter_bucket(blob):
            existing = grouped.get(key)
            if existing is None:
                grouped[key] = values
            else:
                existing.extend(values)
    return grouped
