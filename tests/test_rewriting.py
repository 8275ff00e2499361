"""Tests for the D-SEQ rewriting step (Sec. V-B)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rewriting import rewrite_for_pivot
from repro.dictionary import build_dictionary
from repro.dictionary.hierarchy import Hierarchy
from repro.fst import generate_candidates
from repro.patex import PatEx
from tests.reference import PositionStateGrid


def pivot_candidates(fst, sequence, dictionary, sigma, pivot):
    """The σ-filtered candidates of ``sequence`` whose pivot item is ``pivot``."""
    return {
        candidate
        for candidate in generate_candidates(fst, sequence, dictionary, sigma=sigma)
        if max(candidate) == pivot
    }


class TestRewriteForPivot:
    def test_paper_example_t2_for_pivot_a1(self, ex_fst, ex_dictionary, ex_database):
        # Sec. V-B: for pivot a1, the two leading e's of T2 are irrelevant and
        # ρ_a1(T2) = a1 e a1 e b.
        T2 = ex_database[1]
        a1 = ex_dictionary.fid_of("a1")
        grid = PositionStateGrid(ex_fst, T2, ex_dictionary, max_frequent_fid=5)
        rewritten = rewrite_for_pivot(grid, a1)
        assert ex_dictionary.decode(rewritten) == ("a1", "e", "a1", "e", "b")

    def test_rewriting_never_lengthens(self, ex_fst, ex_dictionary, ex_database):
        for sequence in ex_database:
            grid = PositionStateGrid(ex_fst, sequence, ex_dictionary, max_frequent_fid=5)
            for pivot in grid.pivot_items():
                assert len(rewrite_for_pivot(grid, pivot)) <= len(sequence)

    def test_rewriting_preserves_pivot_candidates(self, ex_fst, ex_dictionary, ex_database):
        for sequence in ex_database:
            grid = PositionStateGrid(ex_fst, sequence, ex_dictionary, max_frequent_fid=5)
            for pivot in grid.pivot_items():
                rewritten = rewrite_for_pivot(grid, pivot)
                original = pivot_candidates(ex_fst, sequence, ex_dictionary, 2, pivot)
                preserved = pivot_candidates(ex_fst, rewritten, ex_dictionary, 2, pivot)
                assert original == preserved

    def test_rewriting_trims_t2_for_a1(self, ex_fst, ex_dictionary, ex_database):
        T2 = ex_database[1]
        grid = PositionStateGrid(ex_fst, T2, ex_dictionary, max_frequent_fid=5)
        a1 = ex_dictionary.fid_of("a1")
        assert (len(T2), len(rewrite_for_pivot(grid, a1))) == (7, 5)

    def test_empty_sequence(self, ex_fst, ex_dictionary):
        grid = PositionStateGrid(ex_fst, (), ex_dictionary)
        assert rewrite_for_pivot(grid, 1) == ()


class TestRewritingProperty:
    @given(
        st.lists(
            st.lists(st.sampled_from(["a1", "a2", "b", "c", "d", "e"]), min_size=1, max_size=8),
            min_size=2,
            max_size=10,
        ),
        st.sampled_from(
            [
                ".*(A)[(.^)|.]*(b).*",
                ".*(.^)[.{0,1}(.^)]{1,3}.*",
                ".*(c)(.)?(d).*",
            ]
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_pivot_candidates_preserved(self, sequences, expression):
        """G^σ_π(T) and G^σ_π(ρ_k(T)) agree on pivot sequences for k (Sec. V-B)."""
        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        hierarchy.add_edge("a2", "A")
        hierarchy.add_item("b")
        hierarchy.add_item("c")
        hierarchy.add_item("d")
        dictionary = build_dictionary(sequences, hierarchy)
        fst = PatEx(expression).compile(dictionary)
        sigma = 1
        limit = dictionary.largest_frequent_fid(sigma)
        for raw in sequences:
            sequence = dictionary.encode(raw)
            grid = PositionStateGrid(fst, sequence, dictionary, max_frequent_fid=limit)
            for pivot in grid.pivot_items():
                rewritten = rewrite_for_pivot(grid, pivot)
                original = pivot_candidates(fst, sequence, dictionary, sigma, pivot)
                preserved = pivot_candidates(fst, rewritten, dictionary, sigma, pivot)
                assert original == preserved
