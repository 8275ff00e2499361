"""Tests for the pivot merge operator and the position–state grid (Sec. V-A)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pivot_search import pivots_by_run_enumeration
from repro.dictionary import EPSILON_FID, build_dictionary
from repro.dictionary.hierarchy import Hierarchy
from repro.fst import accepting_runs, generate_candidates
from repro.patex import PatEx
from tests.reference import (
    PositionStateGrid,
    pivot_merge,
    pivots_of_output_sets,
    run_output_sets,
)


def brute_force_pivots(output_sets):
    """Reference implementation: expand the Cartesian product and take maxima."""
    candidates = [()]
    for outputs in output_sets:
        if not outputs:
            return set()
        expanded = []
        for prefix in candidates:
            for item in outputs:
                expanded.append(prefix if item == EPSILON_FID else prefix + (item,))
        candidates = expanded
    return {max(candidate) for candidate in candidates if candidate}


class TestPivotMerge:
    def test_paper_example_r4(self):
        # Output sets {b,c}-{A}-{d,a1} with order b<A<d<a1<c: pivots {c, d, a1}.
        b, A, d, a1, c = 1, 2, 3, 4, 5
        sets = [(b, c), (A,), (d, a1)]
        assert pivots_of_output_sets(sets) == {c, d, a1}

    def test_single_set_all_items_are_pivots(self):
        assert pivots_of_output_sets([(1, 5)]) == {1, 5}

    def test_two_sets(self):
        # {b,c}-{A}: pivots A and c (paper example r4'').
        assert pivots_of_output_sets([(1, 5), (2,)]) == {2, 5}

    def test_epsilon_only_sets_produce_no_pivots(self):
        assert pivots_of_output_sets([(0,), (0,)]) == set()

    def test_epsilon_passthrough(self):
        # ε sets do not restrict the other sets.
        assert pivots_of_output_sets([(0,), (3,), (0,)]) == {3}

    def test_empty_set_annihilates(self):
        assert pivots_of_output_sets([(3,), ()]) == set()
        assert pivot_merge({3}, ()) == set()
        assert pivot_merge(set(), {3}) == set()

    def test_merge_is_commutative(self):
        assert pivot_merge({1, 4}, {2, 3}) == pivot_merge({2, 3}, {1, 4})

    def test_paper_grid_step(self):
        # K(4, q1) = ({a1} ⊕ {ε}) ∪ ({a1} ⊕ {e}) = {a1, e}  (Sec. V-A).
        a1, e = 4, 6
        left = pivot_merge({a1}, {EPSILON_FID})
        right = pivot_merge({a1}, {e})
        assert left | right == {a1, e}

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4).map(
                lambda items: tuple(sorted(set(items)))
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_theorem1_against_brute_force(self, output_sets):
        assert pivots_of_output_sets(output_sets) == brute_force_pivots(output_sets)

    @given(
        st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=5),
        st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=5),
        st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_associativity(self, a, b, c):
        left = pivot_merge(pivot_merge(a, b), c)
        right = pivot_merge(a, pivot_merge(b, c))
        assert left == right


#: Random output sets for the ⊕ algebra, *including* the empty set (an output
#: set that lost all items to the frequency filter) and ε (fid 0).
output_sets = st.sets(st.integers(min_value=0, max_value=9), max_size=6)


class TestPivotMergeAlgebra:
    """Theorem 1's algebraic laws of ⊕, checked over random output sets.

    These are the properties that let D-SEQ fold ⊕ over a run in any
    association order and let the grid share partial merges across runs: the
    operator is commutative and associative, ∅ annihilates it, and {ε} is its
    identity on non-empty operands.
    """

    @given(left=output_sets, right=output_sets)
    @settings(max_examples=150, deadline=None)
    def test_commutativity(self, left, right):
        assert pivot_merge(left, right) == pivot_merge(right, left)

    @given(a=output_sets, b=output_sets, c=output_sets)
    @settings(max_examples=150, deadline=None)
    def test_associativity_with_empty_operands(self, a, b, c):
        left = pivot_merge(pivot_merge(a, b), c)
        right = pivot_merge(a, pivot_merge(b, c))
        assert left == right

    @given(operand=output_sets)
    @settings(max_examples=100, deadline=None)
    def test_empty_operand_annihilates(self, operand):
        assert pivot_merge(operand, set()) == set()
        assert pivot_merge(set(), operand) == set()

    @given(operand=output_sets.filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_epsilon_singleton_is_the_identity(self, operand):
        assert pivot_merge({EPSILON_FID}, set(operand)) == operand
        assert pivot_merge(set(operand), {EPSILON_FID}) == operand

    @given(
        sets=st.lists(output_sets.filter(bool), min_size=1, max_size=5).flatmap(
            lambda sets: st.tuples(st.just(sets), st.permutations(sets))
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_fold_is_permutation_invariant(self, sets):
        """Commutativity + associativity end to end: run order cannot matter."""
        original, shuffled = sets
        as_tuples = [tuple(s) for s in original]
        shuffled_tuples = [tuple(s) for s in shuffled]
        assert pivots_of_output_sets(as_tuples) == pivots_of_output_sets(shuffled_tuples)


class TestPositionStateGrid:
    def test_fig3_pivot_items(self, ex_fst, ex_dictionary, ex_database):
        # Fig. 3, σ=2: K(T1)={a1,c}, K(T2)={a1}, K(T3)=∅, K(T4)=∅ (a2 infrequent
        # appears in all candidates), K(T5)={a1}.
        a1 = ex_dictionary.fid_of("a1")
        c = ex_dictionary.fid_of("c")
        expected = [{a1, c}, {a1}, set(), set(), {a1}]
        for sequence, pivots in zip(ex_database, expected):
            grid = PositionStateGrid(ex_fst, sequence, ex_dictionary, max_frequent_fid=5)
            assert grid.pivot_items() == pivots

    def test_unfiltered_pivot_items_for_t2(self, ex_fst, ex_dictionary, ex_database):
        # Without the frequency filter, K(T2) = {a1, e} (Fig. 5b).
        grid = PositionStateGrid(ex_fst, ex_database[1], ex_dictionary)
        assert grid.pivot_items() == {
            ex_dictionary.fid_of("a1"),
            ex_dictionary.fid_of("e"),
        }

    def test_grid_matches_run_enumeration(self, ex_fst, ex_dictionary, ex_database):
        for sequence in ex_database:
            grid_pivots = PositionStateGrid(
                ex_fst, sequence, ex_dictionary, max_frequent_fid=5
            ).pivot_items()
            run_pivots = pivots_by_run_enumeration(
                ex_fst, sequence, ex_dictionary, max_frequent_fid=5
            )
            assert grid_pivots == run_pivots

    def test_pivot_items_equal_candidate_maxima(self, ex_fst, ex_dictionary, ex_database):
        for sequence in ex_database:
            candidates = generate_candidates(ex_fst, sequence, ex_dictionary, sigma=2)
            expected = {max(candidate) for candidate in candidates}
            grid = PositionStateGrid(ex_fst, sequence, ex_dictionary, max_frequent_fid=5)
            assert grid.pivot_items() == expected

    def test_no_accepting_run(self, ex_fst, ex_dictionary, ex_database):
        grid = PositionStateGrid(ex_fst, ex_database[2], ex_dictionary)
        assert not grid.has_accepting_run
        assert grid.pivot_items() == set()
        assert list(grid.live_edges()) == []

    def test_empty_sequence(self, ex_fst, ex_dictionary):
        grid = PositionStateGrid(ex_fst, (), ex_dictionary)
        assert grid.pivot_items() == set()

    def test_pivot_set_at_initial_coordinate(self, ex_fst, ex_dictionary, ex_database):
        grid = PositionStateGrid(ex_fst, ex_database[0], ex_dictionary)
        assert grid.pivot_set(0, ex_fst.initial_state) == {EPSILON_FID}

    def test_last_pivot_producing_position(self, ex_fst, ex_dictionary, ex_database):
        # In T5 = a1 a1 b, pivot a1 can last be produced at position 2.
        a1 = ex_dictionary.fid_of("a1")
        grid = PositionStateGrid(ex_fst, ex_database[4], ex_dictionary, max_frequent_fid=5)
        assert grid.last_pivot_producing_position(a1) == 2
        b = ex_dictionary.fid_of("b")
        assert grid.last_pivot_producing_position(b) == 3

    def test_edges_have_positions_and_outputs(self, ex_fst, ex_dictionary, ex_database):
        grid = PositionStateGrid(ex_fst, ex_database[4], ex_dictionary)
        for edge in grid.live_edges():
            assert 1 <= edge.position <= len(ex_database[4])
            assert isinstance(edge.outputs, tuple)


class TestGridAgainstRunEnumerationProperty:
    @given(
        st.lists(
            st.lists(st.sampled_from(["a1", "a2", "b", "c", "d"]), min_size=1, max_size=7),
            min_size=1,
            max_size=10,
        ),
        st.sampled_from(
            [
                ".*(A)[(.^)|.]*(b).*",
                ".*(.^)[.{0,1}(.^)]{1,3}.*",
                ".*(a1)(.)*.*",
                "(.)+",
            ]
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_grid_equals_run_enumeration(self, sequences, expression):
        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        hierarchy.add_edge("a2", "A")
        hierarchy.add_item("b")
        dictionary = build_dictionary(sequences, hierarchy)
        fst = PatEx(expression).compile(dictionary)
        limit = dictionary.largest_frequent_fid(2)
        for raw in sequences:
            sequence = dictionary.encode(raw)
            grid = PositionStateGrid(fst, sequence, dictionary, max_frequent_fid=limit)
            enumerated = pivots_by_run_enumeration(
                fst, sequence, dictionary, max_frequent_fid=limit
            )
            assert grid.pivot_items() == enumerated
            # Theorem 1 as written: the ⊕ fold of every run's output sets.
            folded = set()
            for run in accepting_runs(fst, sequence, dictionary):
                folded |= pivots_of_output_sets(
                    run_output_sets(run, sequence, dictionary, limit)
                )
            assert folded == enumerated
