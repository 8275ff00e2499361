"""Zero-copy encoded sequence store shared between worker processes.

The distributed miners target the regime where the sequence database dwarfs
the dictionary (Sec. V–VI of the paper), yet a plain process-pool backend
re-pickles every map task's input chunk.  :class:`EncodedSequenceStore` removes
that tax: the whole database is packed once into a flat, immutable block — one
fixed-width item column plus an offsets index — which is published once as a
file that worker processes *attach* by mapping it read-only (the OS page cache
keeps one copy for all of them).  Tasks then carry only a :class:`StoreChunk`
descriptor (store handle + offset range) instead of materialized sequence
lists, so per-task database pickle bytes stay a few dozen bytes regardless of
database size.

Block layout (native byte order; an IPC format for one machine, not a
persistence format — :mod:`repro.sequences.formats` covers durable files)::

    magic    8 bytes   b"SEQSTOR3" (plain) or b"SEQSTOR4" (weighted)
    count    u64       number of sequences
    width    u64       bytes per item: 1, 2, 4 or 8
    size     u64       length of the data region in bytes
    offsets  (count + 1) * u64   item offset of each sequence into the data
    weights  count * u64         only in weighted (SEQSTOR4) blocks
    data     size // width items of all sequences, concatenated

``width`` is the narrowest of 1/2/4/8 bytes that holds the store's largest
item — a function of the records alone, which keeps the layout canonical —
and sequence ``i`` is items ``offsets[i]:offsets[i + 1]`` of the data column.
Packing is one ``array.extend`` per record and decoding one
``tuple(column[a:b])`` on a :meth:`memoryview.cast` of the block: no Python
call per item, and nothing is copied until a sequence tuple is materialized.
Fids are dense dictionary ranks, so 8 bytes always suffice: the packer
refuses an item of 2**64 or more.  It picks the width from what it sees in
its input; callers never choose it.

A *weighted* block additionally carries one u64 multiplicity per sequence and
yields :class:`WeightedSequence` records instead of bare tuples.  It is what
:meth:`EncodedSequenceStore.unique_view` produces: the corpus-level dedup pass
of the miners, grouping identical encoded spans (hashing the already-encoded
column bytes, so the pass is nearly free) into one ``(sequence, weight)``
record each, in first-occurrence order.
"""

from __future__ import annotations

import mmap
import operator
import os
import struct
import tempfile
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import NamedTuple

from repro.errors import ReproError


class SequenceStoreError(ReproError):
    """Raised for malformed store blocks or unusable store handles."""


class WeightedSequence(NamedTuple):
    """One deduplicated input record: the sequence and its multiplicity."""

    sequence: tuple[int, ...]
    weight: int


def record_parts(record) -> tuple[tuple[int, ...], int]:
    """Normalize a map-input record to ``(sequence, weight)``.

    :class:`WeightedSequence` records carry their multiplicity from
    :meth:`EncodedSequenceStore.unique_view`; plain records carry an implicit
    weight of 1.  The miners map only weighted records and unpack them
    directly; ``benchmarks/e2e/replay.py`` still calls this.
    """
    if isinstance(record, WeightedSequence):
        return record.sequence, record.weight
    return tuple(record), 1


def weighted_value_parts(value) -> tuple:
    """Normalize a map-*output* value to ``(payload, weight)``.

    Jobs fed deduplicated input emit ``(payload, weight)`` pairs for records
    with multiplicity > 1 and bare payloads otherwise.  Bare payloads are
    fid tuples or byte strings, so a 2-tuple whose head is *not* an int is
    unambiguously a weighted pair (a bare 2-item representation is a tuple
    of two ints).
    """
    if isinstance(value, tuple) and len(value) == 2 and not isinstance(value[0], int):
        return value[0], value[1]
    return value, 1


def fold_weighted_values(values: Iterable) -> dict:
    """Total the weights of identical payloads, in first-occurrence order.

    The combiner fold shared by the weighted miners: exactly the pre-dedup
    ``Counter`` aggregation, but aware of ``(payload, weight)`` pairs.
    """
    totals: dict = {}
    for value in values:
        payload, weight = weighted_value_parts(value)
        totals[payload] = totals.get(payload, 0) + weight
    return totals


_MAGIC = b"SEQSTOR3"
_MAGIC_WEIGHTED = b"SEQSTOR4"
_HEADER = struct.Struct("=8sQQQ")  # magic, sequence count, item width, data size
#: Item width in bytes -> typecode of the data column (``array`` while
#: packing, ``memoryview.cast`` while reading).
_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _pack_block(
    magic: bytes, width: int, offsets: array, weights: array | None, data
) -> bytes:
    """Assemble one store block from its regions (see the module docstring)."""
    header = _HEADER.pack(magic, len(offsets) - 1, width, memoryview(data).nbytes)
    return b"".join((header, offsets, b"" if weights is None else weights, data))


def _pack(magic: bytes, sequences: Iterable, weights: array | None) -> bytes:
    """Pack ``sequences`` as one column, widened to fit the largest item seen.

    ``weights`` may still be filling while ``sequences`` is consumed; it is
    read only once the last record is packed.
    """
    column = array("B")
    offsets = array("Q", [0])
    for sequence in sequences:
        items = tuple(sequence)
        while True:
            try:
                column.extend(items)
                break
            except (TypeError, OverflowError):
                del column[offsets[-1] :]  # extend() keeps what it took before raising
                if column.itemsize == 8:
                    _refuse(items, len(offsets) - 1)
                column = array(_TYPECODES[2 * column.itemsize], column)
        offsets.append(len(column))
    return _pack_block(magic, column.itemsize, offsets, weights, column)


def _refuse(items: tuple, record: int) -> None:
    """Raise for the record no column takes, naming its first bad item."""
    for item in items:
        try:
            # operator.index (unlike int) rejects floats and digit strings
            # instead of silently coercing them, so records a generic backend
            # would ship verbatim cannot round-trip through the store as
            # different values.
            value = operator.index(item)
        except TypeError as error:
            raise SequenceStoreError(
                f"store records must be sequences of non-negative integers "
                f"(fids); got item {item!r} in record {record}"
            ) from error
        if value < 0:
            raise SequenceStoreError(f"negative item {value} in record {record}")
        if value >= 2**64:
            raise SequenceStoreError(
                f"store items are fids below 2**64; got item {value} in record {record}"
            )
    raise SequenceStoreError(f"record {record} does not pack into a store column")


class EncodedSequenceStore(Sequence):
    """Immutable columnar sequence database over one flat byte block.

    Construct with :meth:`from_sequences` (packs the block) or :meth:`attach`
    (maps a block another process published).  The store behaves as a
    read-only :class:`~collections.abc.Sequence` of fid tuples; slicing
    returns a zero-copy :class:`StoreSlice` view.
    """

    def __init__(self, block, *, owner=None) -> None:
        view = memoryview(block)
        if len(view) < _HEADER.size:
            raise SequenceStoreError(f"store block too small ({len(view)} bytes)")
        magic, count, width, data_size = _HEADER.unpack_from(view, 0)
        if magic not in (_MAGIC, _MAGIC_WEIGHTED):
            raise SequenceStoreError(f"bad store magic {bytes(magic)!r}")
        if width not in _TYPECODES:
            raise SequenceStoreError(f"bad store item width {width}")
        items, ragged = divmod(data_size, width)
        if ragged:
            raise SequenceStoreError(
                f"store data region of {data_size} bytes is not a whole number "
                f"of {width}-byte items"
            )
        weighted = magic == _MAGIC_WEIGHTED
        offsets_end = _HEADER.size + 8 * (count + 1)
        weights_end = offsets_end + (8 * count if weighted else 0)
        if len(view) < weights_end + data_size:
            raise SequenceStoreError(
                f"truncated store block: header promises {weights_end + data_size} "
                f"bytes, got {len(view)}"
            )
        self._block = view
        self._offsets = view[_HEADER.size : offsets_end].cast("Q")
        self._weights = view[offsets_end:weights_end].cast("Q") if weighted else None
        self._column = view[weights_end : weights_end + data_size].cast(_TYPECODES[width])
        if self._offsets[0] != 0 or self._offsets[count] != items:
            raise SequenceStoreError(
                f"store offsets span {self._offsets[0]}:{self._offsets[count]}, "
                f"not the data region's {items} items"
            )
        self._width = width
        self._count = count
        self._owner = owner
        self._unique: "EncodedSequenceStore | None" = None
        self._content_hash: str | None = None

    # ----------------------------------------------------------- construction
    @classmethod
    def from_sequences(cls, sequences: Iterable[Sequence[int]]) -> "EncodedSequenceStore":
        """Pack fid sequences into a new in-process store block."""
        return cls(_pack(_MAGIC, sequences, None))

    @classmethod
    def from_weighted_sequences(
        cls, records: Iterable[tuple[Sequence[int], int]]
    ) -> "EncodedSequenceStore":
        """Pack ``(sequence, weight)`` pairs into a new weighted store block."""
        weights = array("Q")

        def sequences():
            for sequence, weight in records:
                weight = operator.index(weight)
                if weight < 0:
                    raise SequenceStoreError(f"record weight must be >= 0, got {weight}")
                weights.append(weight)
                yield sequence

        return cls(_pack(_MAGIC_WEIGHTED, sequences(), weights))

    # ----------------------------------------------------------------- access
    @property
    def weighted(self) -> bool:
        """True when records carry multiplicities (:class:`WeightedSequence`)."""
        return self._weights is not None

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._count)
            if step != 1:
                raise SequenceStoreError("store slices must be contiguous (step 1)")
            return StoreSlice(self, start, stop)
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(index)
        return next(self.iter_range(index, index + 1))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return self.iter_range(0, self._count)

    def _spans(self, start: int, stop: int) -> Iterator[memoryview]:
        """Each of records ``start:stop`` as its slice of the data column.

        Slicing a column clamps silently, so the offsets are checked here: a
        corrupt index must raise, not hand a worker a short sequence.
        """
        column, offsets, items = self._column, self._offsets, len(self._column)
        first = offsets[start] if start < stop else 0
        for index in range(start, stop):
            last = offsets[index + 1]
            if not first <= last <= items:
                raise SequenceStoreError(
                    f"corrupt store offsets: record {index} spans {first}:{last} "
                    f"of {items} items"
                )
            yield column[first:last]
            first = last

    def iter_range(self, start: int, stop: int) -> Iterator[tuple[int, ...]]:
        """Decode records ``start:stop`` straight from the block."""
        sequences = map(tuple, self._spans(start, stop))
        if self._weights is None:
            return sequences
        weights = self._weights[start:stop].tolist()
        # What WeightedSequence(sequence, weight) builds, minus the Python
        # frame of the NamedTuple's generated __new__ for every record.
        return map(tuple.__new__, repeat(WeightedSequence), zip(sequences, weights))

    def unique_view(self) -> "EncodedSequenceStore":
        """A weighted store grouping identical records: the corpus-level dedup.

        Identical encoded spans are grouped by hashing the already-encoded
        column bytes — no decode, no re-encode — into one
        :class:`WeightedSequence` record per distinct sequence, in
        first-occurrence order (which keeps map-task composition, and thus
        every shuffle metric, deterministic across backends).  Weighted input
        stores fold their existing multiplicities.  The view holds every
        distinct item of its parent, so it is packed at the parent's width.
        It is built once and cached on the store instance.
        """
        if self._unique is not None:
            return self._unique
        weights = self._weights
        totals: dict[bytes, int] = {}  # span bytes -> total weight, first occurrence first
        for index, span in enumerate(map(memoryview.tobytes, self._spans(0, self._count))):
            totals[span] = totals.get(span, 0) + (1 if weights is None else weights[index])
        itemsize = self._column.itemsize
        offsets = accumulate((len(span) // itemsize for span in totals), initial=0)
        view = type(self)(
            _pack_block(
                _MAGIC_WEIGHTED,
                self._width,
                array("Q", offsets),
                array("Q", totals.values()),
                b"".join(totals),
            )
        )
        self._unique = view
        return view

    def slice(self, start: int, stop: int) -> "StoreSlice":
        """A zero-copy view of sequences ``start:stop``."""
        return self[start:stop]

    def sequences(self) -> list[tuple[int, ...]]:
        """Materialize every sequence (testing/interop helper)."""
        return list(self)

    @property
    def nbytes(self) -> int:
        """Size of the packed block in bytes."""
        return len(self._block)

    def content_hash(self) -> str:
        """SHA-1 hex digest of the packed block.

        Two stores hash equal exactly when they hold the same records (same
        sequences, same order, same weights): the block layout is canonical.
        The service layer keys its query cache on this digest, so appending
        to a corpus and re-attaching it changes the key and cold-starts the
        affected queries.  Computed once and cached.
        """
        if self._content_hash is None:
            import hashlib

            self._content_hash = hashlib.sha1(self._block).hexdigest()
        return self._content_hash

    def __reduce__(self):
        # Pickling ships the flat block (what a generic backend would pay to
        # move the whole store); attachments deliberately do not survive.
        return (EncodedSequenceStore, (bytes(self._block),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EncodedSequenceStore(sequences={self._count}, nbytes={self.nbytes})"

    # ---------------------------------------------------------------- sharing
    def publish(self, directory: str | None = None) -> tuple["StoreHandle", "callable"]:
        """Write the block to a new file in ``directory`` for other processes to attach.

        ``directory`` defaults to the system temp directory; the stage driver
        passes its run directory, which it removes whole after the run.
        Returns the picklable :class:`StoreHandle` plus a ``release()``
        callable that removes the file (closing an attachment never does).
        """
        descriptor, path = tempfile.mkstemp(
            prefix="repro-store-", suffix=".seqstore", dir=directory
        )
        try:
            with os.fdopen(descriptor, "wb") as handle_file:
                handle_file.write(self._block)
        except BaseException:
            os.remove(path)
            raise

        def release() -> None:
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - best effort
                pass

        return StoreHandle(name=path, nbytes=self.nbytes), release

    @classmethod
    def attach(cls, handle: "StoreHandle") -> "EncodedSequenceStore":
        """Map a published block read-only (no copy of the data region)."""
        try:
            with open(handle.name, "rb") as handle_file:
                mapped = mmap.mmap(handle_file.fileno(), handle.nbytes, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as error:
            raise SequenceStoreError(f"cannot attach store file {handle.name}: {error}") from error
        return cls(memoryview(mapped), owner=mapped)

    def close(self) -> None:
        """Release the block's buffers (and the mapping, for attached stores)."""
        self._offsets.release()
        if self._weights is not None:
            self._weights.release()
        self._column.release()
        self._block.release()
        owner, self._owner = self._owner, None
        if owner is not None:
            owner.close()


class StoreSlice(Sequence):
    """A contiguous zero-copy view of an :class:`EncodedSequenceStore`.

    Iterating decodes sequences straight from the store's block.  Pickling a
    slice materializes it into a plain list of tuples — that is exactly the
    chunk a generic process-pool backend would ship, which keeps the modeled
    ``map_input_pickle_bytes`` honest; the persistent backend never pickles
    slices, it ships :class:`StoreChunk` descriptors instead.
    """

    def __init__(self, store: EncodedSequenceStore, start: int, stop: int) -> None:
        self.store = store
        self.start = start
        self.stop = max(start, stop)

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise SequenceStoreError("store slices must be contiguous (step 1)")
            return StoreSlice(self.store, self.start + start, self.start + stop)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self.store[self.start + index]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return self.store.iter_range(self.start, self.stop)

    def __reduce__(self):
        return (list, (tuple(self),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoreSlice({self.start}:{self.stop} of {self.store!r})"


@dataclass(frozen=True)
class StoreHandle:
    """Picklable pointer to a published store block: ``name`` is the path of
    the file workers map, ``nbytes`` the block's length."""

    name: str
    nbytes: int


@dataclass(frozen=True)
class StoreChunk:
    """A map-task input descriptor: ``handle`` plus a sequence offset range.

    This is what the persistent backend pickles per task instead of the
    chunk's sequences; :func:`resolve_chunk` turns it back into a zero-copy
    :class:`StoreSlice` inside the worker.
    """

    handle: StoreHandle
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


#: Per-process cache of attached stores, keyed by handle name.  A worker
#: attaches each published store once and serves every task of the job batch
#: from the same mapping; the pool's processes exit with the job, so entries
#: never outlive the file they point to.
_ATTACHED: dict[str, EncodedSequenceStore] = {}


def attach_store(handle: StoreHandle) -> EncodedSequenceStore:
    """Attach ``handle`` in this process, reusing a previous attachment."""
    store = _ATTACHED.get(handle.name)
    if store is None:
        store = EncodedSequenceStore.attach(handle)
        _ATTACHED[handle.name] = store
    return store


def detach_store(handle: StoreHandle) -> None:
    """Drop (and close) this process's cached attachment, if any."""
    store = _ATTACHED.pop(handle.name, None)
    if store is not None:
        store.close()


def resolve_chunk(chunk: StoreChunk) -> StoreSlice:
    """Resolve a chunk descriptor against the worker's attached store."""
    return attach_store(chunk.handle).slice(chunk.start, chunk.stop)


def as_encoded_store(records) -> EncodedSequenceStore:
    """Coerce any record sequence into an :class:`EncodedSequenceStore`.

    Stores pass through unchanged; objects exposing ``encoded_store()`` (the
    :class:`~repro.sequences.database.SequenceDatabase` cache) delegate to it;
    anything else is packed on the spot.
    """
    if isinstance(records, EncodedSequenceStore):
        return records
    if isinstance(records, StoreSlice):
        if records.start == 0 and records.stop == len(records.store):
            return records.store
        return EncodedSequenceStore.from_sequences(records)
    encoded = getattr(records, "encoded_store", None)
    if callable(encoded):
        return encoded()
    return EncodedSequenceStore.from_sequences(records)

