"""Frozen item dictionary: fid encoding, hierarchy closures, and frequencies.

A :class:`Dictionary` is the central vocabulary object of the library.  It maps
every item to

* a stable string identifier (*gid*), and
* an integer identifier (*fid*) assigned by **decreasing document frequency**
  (fid ``1`` is the most frequent item, ties broken by gid).

The fid order is exactly the total order ``<`` used for item-based partitioning
in the paper: the *pivot item* of a subsequence is its item with the largest
fid, i.e. its least frequent item.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.dictionary.hierarchy import Hierarchy
from repro.dictionary.intervals import DescendantIndex
from repro.errors import DictionaryError, UnknownItemError

#: fid value used to represent the empty output ε.  It is smaller than every
#: real fid, which makes the pivot-merge semantics (``ε < w`` for all items w)
#: fall out of plain integer comparison.
EPSILON_FID = 0


@dataclass(frozen=True)
class Item:
    """A single dictionary entry."""

    gid: str
    fid: int
    document_frequency: int
    parent_fids: frozenset[int] = field(default_factory=frozenset)
    children_fids: frozenset[int] = field(default_factory=frozenset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Item(gid={self.gid!r}, fid={self.fid}, df={self.document_frequency})"


class Dictionary:
    """Immutable item dictionary with hierarchy closures and frequencies.

    Instances are normally produced by
    :class:`~repro.dictionary.builder.DictionaryBuilder`; the constructor is
    public to support tests and hand-built toy examples (e.g. the paper's
    running example in Fig. 2).
    """

    #: ``gid -> fid`` for bulk encoders, filled by :meth:`fid_table`.  The
    #: default lives on the class and pickling drops the instance's table, so
    #: a pickled dictionary — part of every kernel and job pickle — carries
    #: no byte for it.
    _fid_table: dict[str, int] | None = None

    def __init__(self, items: Iterable[Item]) -> None:
        self._by_fid: dict[int, Item] = {}
        self._by_gid: dict[str, Item] = {}
        for item in items:
            if item.fid in self._by_fid:
                raise DictionaryError(f"duplicate fid {item.fid}")
            if item.gid in self._by_gid:
                raise DictionaryError(f"duplicate gid {item.gid!r}")
            if item.fid <= EPSILON_FID:
                raise DictionaryError(f"fids must be positive, got {item.fid}")
            self._by_fid[item.fid] = item
            self._by_gid[item.gid] = item
        self._validate_links()
        self._ancestor_cache: dict[int, frozenset[int]] = {}
        self._descendant_cache: dict[int, frozenset[int]] = {}
        self._descendant_index: DescendantIndex | None = None
        self._content_fingerprint: bytes | None = None

    # ------------------------------------------------------------ construction
    @classmethod
    def from_hierarchy(
        cls, hierarchy: Hierarchy, frequencies: dict[str, int]
    ) -> "Dictionary":
        """Build a dictionary from a gid hierarchy and document frequencies.

        Items missing from ``frequencies`` get frequency ``0``.  fids are
        assigned by decreasing frequency; ties are broken by gid to keep the
        assignment deterministic.
        """
        gids = sorted(hierarchy.items(), key=lambda g: (-frequencies.get(g, 0), g))
        return cls.from_ranking(hierarchy, gids, frequencies)

    @classmethod
    def from_ranking(
        cls, hierarchy: Hierarchy, gids: list[str], frequencies: dict[str, int]
    ) -> "Dictionary":
        """Build a dictionary whose fids number ``gids``, every item of
        ``hierarchy``, in the given order (fid ``1`` first)."""
        fid_of = {gid: fid for fid, gid in enumerate(gids, start=1)}
        return cls(
            Item(
                gid=gid,
                fid=fid_of[gid],
                document_frequency=frequencies.get(gid, 0),
                parent_fids=frozenset(fid_of[p] for p in hierarchy.parents(gid)),
                children_fids=frozenset(fid_of[c] for c in hierarchy.children(gid)),
            )
            for gid in gids
        )

    # ----------------------------------------------------------------- lookups
    def __len__(self) -> int:
        return len(self._by_fid)

    def __contains__(self, key: object) -> bool:
        if isinstance(key, int):
            return key in self._by_fid
        if isinstance(key, str):
            return key in self._by_gid
        return False

    def __iter__(self) -> Iterator[Item]:
        return iter(sorted(self._by_fid.values(), key=lambda item: item.fid))

    def fids(self) -> list[int]:
        """All fids in increasing order (most frequent first)."""
        return sorted(self._by_fid)

    def item_by_fid(self, fid: int) -> Item:
        try:
            return self._by_fid[fid]
        except KeyError:
            raise UnknownItemError(fid) from None

    def item_by_gid(self, gid: str) -> Item:
        try:
            return self._by_gid[gid]
        except KeyError:
            raise UnknownItemError(gid) from None

    def fid_of(self, gid: str) -> int:
        """The fid of item ``gid``."""
        return self.item_by_gid(gid).fid

    def gid_of(self, fid: int) -> str:
        """The gid of item ``fid``."""
        return self.item_by_fid(fid).gid

    def fid_table(self) -> dict[str, int]:
        """The whole ``gid -> fid`` mapping as one dict (cached; do not mutate).

        Bulk encoders index it directly (``map(table.__getitem__, gids)``)
        instead of paying a :meth:`fid_of` call per item.
        """
        if self._fid_table is None:
            self._fid_table = {gid: item.fid for gid, item in self._by_gid.items()}
        return self._fid_table

    def frequency(self, fid: int) -> int:
        """Document frequency ``f(w, D)`` of item ``fid``."""
        return self.item_by_fid(fid).document_frequency

    def is_frequent(self, fid: int, sigma: int) -> bool:
        """True if the item's document frequency is at least ``sigma``."""
        return self.frequency(fid) >= sigma

    def largest_frequent_fid(self, sigma: int) -> int:
        """The largest fid whose item is still frequent (0 if none).

        Because fids are ordered by decreasing frequency, all fids up to the
        returned value (inclusive) are frequent and all larger fids are not.
        """
        largest = 0
        for fid in self.fids():
            if self.frequency(fid) >= sigma:
                largest = fid
            else:
                break
        return largest

    # --------------------------------------------------------------- hierarchy
    def parents(self, fid: int) -> frozenset[int]:
        """Direct generalizations of ``fid``."""
        return self.item_by_fid(fid).parent_fids

    def children(self, fid: int) -> frozenset[int]:
        """Direct specializations of ``fid``."""
        return self.item_by_fid(fid).children_fids

    def ancestors(self, fid: int) -> frozenset[int]:
        """All ancestors of ``fid`` including itself (``anc(w)`` in the paper)."""
        cached = self._ancestor_cache.get(fid)
        if cached is None:
            cached = frozenset(self._closure(fid, lambda f: self.parents(f)))
            self._ancestor_cache[fid] = cached
        return cached

    def descendants(self, fid: int) -> frozenset[int]:
        """All descendants of ``fid`` including itself (``desc(w)`` in the paper)."""
        cached = self._descendant_cache.get(fid)
        if cached is None:
            cached = frozenset(self._closure(fid, lambda f: self.children(f)))
            self._descendant_cache[fid] = cached
        return cached

    def generalizes_to(self, child_fid: int, ancestor_fid: int) -> bool:
        """True if ``child_fid ⇒* ancestor_fid`` (reflexive)."""
        return ancestor_fid in self.ancestors(child_fid)

    def roots(self) -> frozenset[int]:
        """fids of items without parents."""
        return frozenset(item.fid for item in self._by_fid.values() if not item.parent_fids)

    def root_ancestors(self, fid: int) -> frozenset[int]:
        """The root (parent-less) ancestors of ``fid``; ``{fid}`` if it is a root."""
        return frozenset(a for a in self.ancestors(fid) if not self.parents(a))

    def is_forest(self) -> bool:
        """True if every item has at most one parent."""
        return all(len(item.parent_fids) <= 1 for item in self._by_fid.values())

    def descendant_index(self) -> DescendantIndex:
        """The interval-encoded descendant index of this dictionary (cached).

        Built lazily by the compiled mining kernel; see
        :mod:`repro.dictionary.intervals` for the encoding.
        """
        if self._descendant_index is None:
            self._descendant_index = DescendantIndex(self)
        return self._descendant_index

    def content_fingerprint(self) -> bytes:
        """A digest of the hierarchy and frequencies (cached).

        Two dictionaries with equal fingerprints behave identically for every
        hierarchy and frequency query, which is what lets compiled kernels be
        interned per process by content (:func:`~repro.fst.compiled.make_kernel`).
        """
        if self._content_fingerprint is None:
            import hashlib
            import pickle

            payload = tuple(
                (item.fid, item.document_frequency, tuple(sorted(item.parent_fids)))
                for item in self
            )
            self._content_fingerprint = hashlib.sha1(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            ).digest()
        return self._content_fingerprint

    # ------------------------------------------------------------ conveniences
    def encode(self, gids: Iterable[str]) -> tuple[int, ...]:
        """Translate a sequence of gids into a tuple of fids."""
        try:
            return tuple(map(self.fid_table().__getitem__, gids))
        except KeyError as error:
            raise UnknownItemError(error.args[0]) from None

    def decode(self, fids: Iterable[int]) -> tuple[str, ...]:
        """Translate a sequence of fids into a tuple of gids."""
        return tuple(self.gid_of(f) for f in fids)

    def flist(self, sigma: int = 1) -> list[tuple[str, int]]:
        """The f-list: frequent items with their frequency, most frequent first."""
        return [
            (item.gid, item.document_frequency)
            for item in self
            if item.document_frequency >= sigma
        ]

    def hierarchy_stats(self) -> dict[str, float]:
        """Hierarchy characteristics reported in Table II of the paper."""
        counts = [len(self.ancestors(fid)) for fid in self.fids()]
        if not counts:
            return {"items": 0, "max_ancestors": 0, "mean_ancestors": 0.0}
        return {
            "items": len(counts),
            "max_ancestors": max(counts),
            "mean_ancestors": sum(counts) / len(counts),
        }

    # ----------------------------------------------------------------- private
    def __getstate__(self):
        # The descendant index is derived state: compiled kernels ship their
        # own interval matchers, so shipping the index with every pickled
        # dictionary would only duplicate bytes on the wire.  The gid -> fid
        # table is rebuilt from ``_by_gid`` by whoever encodes next.  The
        # closure caches are warm state too: a dictionary pickles to the same
        # bytes however many ancestor sets it has been asked for.
        state = dict(self.__dict__)
        state["_descendant_index"] = None
        state["_ancestor_cache"] = {}
        state["_descendant_cache"] = {}
        state.pop("_fid_table", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)

    def _validate_links(self) -> None:
        for item in self._by_fid.values():
            for linked in item.parent_fids | item.children_fids:
                if linked not in self._by_fid:
                    raise DictionaryError(
                        f"item {item.gid!r} links to unknown fid {linked}"
                    )

    @staticmethod
    def _closure(start: int, step) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in step(node):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen
