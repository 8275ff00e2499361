"""Tests for hierarchies, dictionaries, and the dictionary builder."""

from __future__ import annotations

import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary import (
    Dictionary,
    DictionaryBuilder,
    Hierarchy,
    Item,
    build_dictionary,
)
from repro.errors import DictionaryError, UnknownItemError
from repro.sequences import write_dictionary
from tests.conftest import make_running_example_dictionary
from tests.reference import OccurrenceBuilder


# --------------------------------------------------------------------- hierarchy
class TestHierarchy:
    def test_add_item_and_contains(self):
        hierarchy = Hierarchy()
        hierarchy.add_item("x")
        assert "x" in hierarchy
        assert "y" not in hierarchy
        assert len(hierarchy) == 1

    def test_add_item_idempotent(self):
        hierarchy = Hierarchy()
        hierarchy.add_item("x")
        hierarchy.add_item("x")
        assert len(hierarchy) == 1

    def test_add_edge_registers_endpoints(self):
        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        assert "a1" in hierarchy and "A" in hierarchy
        assert hierarchy.parents("a1") == {"A"}
        assert hierarchy.children("A") == {"a1"}

    def test_rejects_self_loop(self):
        hierarchy = Hierarchy()
        with pytest.raises(DictionaryError):
            hierarchy.add_edge("a", "a")

    def test_rejects_cycle(self):
        hierarchy = Hierarchy()
        hierarchy.add_edge("a", "b")
        hierarchy.add_edge("b", "c")
        with pytest.raises(DictionaryError):
            hierarchy.add_edge("c", "a")

    def test_rejects_empty_gid(self):
        hierarchy = Hierarchy()
        with pytest.raises(DictionaryError):
            hierarchy.add_item("")

    def test_ancestors_and_descendants_are_reflexive(self):
        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        hierarchy.add_edge("a2", "A")
        assert hierarchy.ancestors("a1") == {"a1", "A"}
        assert hierarchy.descendants("A") == {"A", "a1", "a2"}
        assert hierarchy.ancestors("A") == {"A"}

    def test_multi_parent_dag(self):
        hierarchy = Hierarchy()
        hierarchy.add_edge("make", "make_lemma")
        hierarchy.add_edge("make", "VERB")
        assert hierarchy.ancestors("make") == {"make", "make_lemma", "VERB"}
        assert not hierarchy.is_forest()

    def test_forest_detection(self):
        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        hierarchy.add_edge("a2", "A")
        assert hierarchy.is_forest()

    def test_roots_and_leaves(self):
        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        hierarchy.add_item("b")
        assert hierarchy.roots() == {"A", "b"}
        assert hierarchy.leaves() == {"a1", "b"}

    def test_unknown_item_raises(self):
        hierarchy = Hierarchy()
        with pytest.raises(UnknownItemError):
            hierarchy.ancestors("nope")

    def test_copy_is_independent(self):
        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        clone = hierarchy.copy()
        clone.add_edge("a3", "A")
        assert "a3" not in hierarchy
        assert "a3" in clone

    def test_update_bulk(self):
        hierarchy = Hierarchy()
        hierarchy.update(items=["x", "y"], edges=[("x", "y")])
        assert hierarchy.parents("x") == {"y"}


# -------------------------------------------------------------------- dictionary
class TestDictionary:
    def test_running_example_order(self, ex_dictionary):
        # Paper order: b < A < d < a1 < c < e < a2 (Fig. 2c).
        assert ex_dictionary.fid_of("b") == 1
        assert ex_dictionary.fid_of("A") == 2
        assert ex_dictionary.fid_of("a2") == 7
        assert ex_dictionary.gid_of(4) == "a1"

    def test_running_example_frequencies(self, ex_dictionary):
        expected = {"b": 5, "A": 4, "d": 3, "a1": 3, "c": 2, "e": 1, "a2": 1}
        for gid, frequency in expected.items():
            assert ex_dictionary.frequency(ex_dictionary.fid_of(gid)) == frequency

    def test_ancestors_of_running_example(self, ex_dictionary):
        a1 = ex_dictionary.fid_of("a1")
        big_a = ex_dictionary.fid_of("A")
        a2 = ex_dictionary.fid_of("a2")
        assert ex_dictionary.ancestors(a1) == {a1, big_a}
        assert ex_dictionary.descendants(big_a) == {big_a, a1, a2}

    def test_a_warm_dictionary_pickles_to_the_cold_bytes(self):
        """The closure caches are warm state: asked for or not, a dictionary
        ships the same bytes with every kernel and job pickle."""
        dictionary = make_running_example_dictionary()
        cold = pickle.dumps(dictionary)
        for fid in dictionary.fids():
            dictionary.ancestors(fid)
            dictionary.descendants(fid)
        dictionary.descendant_index()
        assert dictionary._ancestor_cache and dictionary._descendant_cache
        assert pickle.dumps(dictionary) == cold
        restored = pickle.loads(cold)
        assert restored._ancestor_cache == {} == restored._descendant_cache
        a1, big_a = restored.fid_of("a1"), restored.fid_of("A")
        assert restored.ancestors(a1) == {a1, big_a}

    def test_generalizes_to(self, ex_dictionary):
        a1 = ex_dictionary.fid_of("a1")
        big_a = ex_dictionary.fid_of("A")
        b = ex_dictionary.fid_of("b")
        assert ex_dictionary.generalizes_to(a1, big_a)
        assert ex_dictionary.generalizes_to(a1, a1)
        assert not ex_dictionary.generalizes_to(big_a, a1)
        assert not ex_dictionary.generalizes_to(a1, b)

    def test_largest_frequent_fid(self, ex_dictionary):
        # sigma=2: b, A, d, a1, c are frequent (fids 1..5).
        assert ex_dictionary.largest_frequent_fid(2) == 5
        assert ex_dictionary.largest_frequent_fid(1) == 7
        assert ex_dictionary.largest_frequent_fid(6) == 0

    def test_is_frequent(self, ex_dictionary):
        assert ex_dictionary.is_frequent(ex_dictionary.fid_of("c"), 2)
        assert not ex_dictionary.is_frequent(ex_dictionary.fid_of("e"), 2)

    def test_encode_decode_roundtrip(self, ex_dictionary):
        raw = ("a1", "c", "d", "c", "b")
        encoded = ex_dictionary.encode(raw)
        assert ex_dictionary.decode(encoded) == raw

    def test_flist(self, ex_dictionary):
        flist = ex_dictionary.flist(sigma=2)
        assert flist[0] == ("b", 5)
        assert all(frequency >= 2 for _, frequency in flist)
        assert len(flist) == 5

    def test_roots_and_root_ancestors(self, ex_dictionary):
        a1 = ex_dictionary.fid_of("a1")
        big_a = ex_dictionary.fid_of("A")
        assert big_a in ex_dictionary.roots()
        assert a1 not in ex_dictionary.roots()
        assert ex_dictionary.root_ancestors(a1) == {big_a}

    def test_is_forest(self, ex_dictionary):
        assert ex_dictionary.is_forest()

    def test_hierarchy_stats(self, ex_dictionary):
        stats = ex_dictionary.hierarchy_stats()
        assert stats["items"] == 7
        assert stats["max_ancestors"] == 2

    def test_unknown_lookups_raise(self, ex_dictionary):
        with pytest.raises(UnknownItemError):
            ex_dictionary.fid_of("zz")
        with pytest.raises(UnknownItemError):
            ex_dictionary.gid_of(99)

    def test_duplicate_fid_rejected(self):
        items = [Item("x", 1, 1), Item("y", 1, 1)]
        with pytest.raises(DictionaryError):
            Dictionary(items)

    def test_duplicate_gid_rejected(self):
        items = [Item("x", 1, 1), Item("x", 2, 1)]
        with pytest.raises(DictionaryError):
            Dictionary(items)

    def test_nonpositive_fid_rejected(self):
        with pytest.raises(DictionaryError):
            Dictionary([Item("x", 0, 1)])

    def test_dangling_link_rejected(self):
        with pytest.raises(DictionaryError):
            Dictionary([Item("x", 1, 1, parent_fids=frozenset({9}))])


# ----------------------------------------------------------------------- builder
class TestDictionaryBuilder:
    def _running_example_builder(self) -> DictionaryBuilder:
        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        hierarchy.add_edge("a2", "A")
        builder = DictionaryBuilder(hierarchy)
        builder.add_sequences(
            [
                ["a1", "c", "d", "c", "b"],
                ["e", "e", "a1", "e", "a1", "e", "b"],
                ["c", "d", "c", "b"],
                ["a2", "d", "b"],
                ["a1", "a1", "b"],
            ]
        )
        return builder

    def test_document_frequencies_match_paper(self):
        dictionary = self._running_example_builder().build()
        expected = {"b": 5, "A": 4, "d": 3, "a1": 3, "c": 2, "e": 1, "a2": 1}
        for gid, frequency in expected.items():
            assert dictionary.frequency(dictionary.fid_of(gid)) == frequency

    def test_fid_order_is_by_descending_frequency(self):
        dictionary = self._running_example_builder().build()
        frequencies = [dictionary.frequency(fid) for fid in dictionary.fids()]
        assert frequencies == sorted(frequencies, reverse=True)
        assert dictionary.fid_of("b") == 1

    def test_duplicate_items_in_sequence_count_once(self):
        builder = DictionaryBuilder()
        builder.add_sequence(["x", "x", "x"])
        dictionary = builder.build()
        assert dictionary.frequency(dictionary.fid_of("x")) == 1

    def test_sequence_count(self):
        builder = self._running_example_builder()
        assert builder.sequence_count == 5

    def test_items_unseen_in_data_have_zero_frequency(self):
        builder = DictionaryBuilder()
        builder.add_item("ghost")
        builder.add_sequence(["x"])
        dictionary = builder.build()
        assert dictionary.frequency(dictionary.fid_of("ghost")) == 0
        # Frequent item gets the smaller fid.
        assert dictionary.fid_of("x") < dictionary.fid_of("ghost")

    def test_build_dictionary_convenience(self):
        dictionary = build_dictionary([["x", "y"], ["y"]])
        assert dictionary.frequency(dictionary.fid_of("y")) == 2
        assert dictionary.frequency(dictionary.fid_of("x")) == 1

    def test_hierarchy_passed_to_builder_not_mutated(self):
        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        builder = DictionaryBuilder(hierarchy)
        builder.add_sequence(["new_item"])
        assert "new_item" not in hierarchy

    @given(
        st.lists(
            st.lists(st.sampled_from(["u", "v", "w", "x", "y"]), min_size=1, max_size=6),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_frequency_equals_containing_sequences(self, sequences):
        dictionary = build_dictionary(sequences)
        for item in dictionary:
            containing = sum(1 for sequence in sequences if item.gid in sequence)
            assert item.document_frequency == containing

    @given(
        st.lists(
            st.lists(st.sampled_from(["a1", "a2", "b", "c"]), min_size=1, max_size=5),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_fids_are_dense_and_frequency_ordered(self, sequences):
        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        hierarchy.add_edge("a2", "A")
        dictionary = build_dictionary(sequences, hierarchy)
        fids = dictionary.fids()
        assert fids == list(range(1, len(fids) + 1))
        frequencies = [dictionary.frequency(fid) for fid in fids]
        assert frequencies == sorted(frequencies, reverse=True)


# ------------------------------------------- builder against the per-occurrence oracle
GIDS = [f"g{index}" for index in range(8)]

#: Edges from a higher to a lower index: always a DAG, items with several parents.
dag_edges = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7))
    .filter(lambda edge: edge[0] > edge[1])
    .map(lambda edge: (GIDS[edge[0]], GIDS[edge[1]])),
    max_size=12,
)

#: Sequences over gids the hierarchy may not hold yet, generalizations in any
#: direction (a cycle or a self-loop is refused by both builders alike) and
#: items registered on their own.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("sequence"), st.lists(st.sampled_from(GIDS), max_size=6)),
        st.tuples(st.just("generalization"), st.sampled_from(GIDS), st.sampled_from(GIDS)),
        st.tuples(st.just("item"), st.sampled_from(GIDS)),
    ),
    max_size=25,
)


def apply(builder, operation) -> str | None:
    """Run one operation; the name of the error it raised, if any."""
    kind, *arguments = operation
    method = {
        "sequence": builder.add_sequence,
        "generalization": builder.add_generalization,
        "item": builder.add_item,
    }[kind]
    try:
        method(*arguments)
    except DictionaryError as error:
        return type(error).__name__
    return None


def dictionary_rows(dictionary: Dictionary) -> list[tuple]:
    return [
        (item.gid, item.fid, item.document_frequency, item.parent_fids, item.children_fids)
        for item in dictionary
    ]


def dictionary_bytes(dictionary: Dictionary) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "dictionary.json"
        write_dictionary(path, dictionary)
        return path.read_bytes()


class TestBuilderAgainstOccurrenceOracle:
    """``DictionaryBuilder`` walks each distinct item's ancestors once and
    reuses the closure until an edge is added; the oracle walks them for every
    occurrence.  Both must build the same dictionary after every step."""

    @given(initial=st.one_of(st.none(), dag_edges), steps=operations)
    @settings(max_examples=200, deadline=None)
    def test_same_dictionary_after_every_step(self, initial, steps):
        hierarchy = None
        if initial is not None:
            hierarchy = Hierarchy()
            hierarchy.update(GIDS[:5], initial)
        builder, oracle = DictionaryBuilder(hierarchy), OccurrenceBuilder(hierarchy)
        for step in steps:
            assert apply(builder, step) == apply(oracle, step)
            assert builder.sequence_count == oracle.sequence_count
            assert dictionary_rows(builder.build()) == dictionary_rows(oracle.build())
        built, expected = builder.build(), oracle.build()
        assert built.flist() == expected.flist()
        assert dictionary_bytes(built) == dictionary_bytes(expected)

    def test_an_edge_after_a_sequence_reaches_later_sequences_only(self):
        builder = DictionaryBuilder()
        builder.add_sequence(["x", "y"])
        builder.add_generalization("x", "X")
        builder.add_sequence(["x", "x"])
        builder.add_generalization("X", "TOP")
        builder.add_sequence(["y", "x"])
        dictionary = builder.build()
        frequency = {item.gid: item.document_frequency for item in dictionary}
        assert frequency == {"x": 3, "y": 2, "X": 2, "TOP": 1}

    def test_an_invalid_gid_is_refused_like_the_oracle(self):
        for builder in (DictionaryBuilder(), OccurrenceBuilder()):
            builder.add_sequence(["x"])
            with pytest.raises(DictionaryError):
                builder.add_sequence(["x", "new", ""])
            assert "new" in builder.build()
