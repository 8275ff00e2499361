"""Tests for FST compilation, simulation, and candidate generation.

The ground truth is the paper's running example (Fig. 2-5) plus small
hand-checked constraints.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary import build_dictionary
from repro.errors import CandidateExplosionError, UnknownItemError
from repro.fst import (
    accepting_runs,
    compile_expression,
    generate_candidates,
    make_kernel,
)
from repro.fst.labels import Label
from repro.patex import PatEx

from tests.conftest import gids
from tests.reference import accepts, generates, nfa_accepts, run_output_sets


# ----------------------------------------------------------------------- labels
class TestLabels:
    def test_uncaptured_dot(self, ex_dictionary):
        label = Label()
        a1 = ex_dictionary.fid_of("a1")
        assert label.matches(a1, ex_dictionary)
        assert label.outputs(a1, ex_dictionary) == (0,)

    def test_captured_dot(self, ex_dictionary):
        label = Label(captured=True)
        a1 = ex_dictionary.fid_of("a1")
        assert label.outputs(a1, ex_dictionary) == (a1,)

    def test_captured_dot_generalize(self, ex_dictionary):
        label = Label(captured=True, generalize=True)
        a1 = ex_dictionary.fid_of("a1")
        big_a = ex_dictionary.fid_of("A")
        assert set(label.outputs(a1, ex_dictionary)) == {a1, big_a}

    def test_item_label_matches_descendants(self, ex_dictionary):
        big_a = ex_dictionary.fid_of("A")
        label = Label(fid=big_a, captured=True)
        a1 = ex_dictionary.fid_of("a1")
        b = ex_dictionary.fid_of("b")
        assert label.matches(a1, ex_dictionary)
        assert label.matches(big_a, ex_dictionary)
        assert not label.matches(b, ex_dictionary)
        # Captured non-generalizing output is the matched item itself.
        assert label.outputs(a1, ex_dictionary) == (a1,)

    def test_exact_item_label(self, ex_dictionary):
        big_a = ex_dictionary.fid_of("A")
        a1 = ex_dictionary.fid_of("a1")
        label = Label(fid=big_a, exact=True)
        assert label.matches(big_a, ex_dictionary)
        assert not label.matches(a1, ex_dictionary)

    def test_generalize_item_label_outputs_up_to_anchor(self, ex_dictionary):
        big_a = ex_dictionary.fid_of("A")
        a1 = ex_dictionary.fid_of("a1")
        label = Label(fid=big_a, captured=True, generalize=True)
        assert set(label.outputs(a1, ex_dictionary)) == {a1, big_a}

    def test_fully_generalizing_item_label(self, ex_dictionary):
        big_a = ex_dictionary.fid_of("A")
        a1 = ex_dictionary.fid_of("a1")
        label = Label(fid=big_a, captured=True, generalize=True, exact=True)
        assert label.outputs(a1, ex_dictionary) == (big_a,)

    def test_input_items(self, ex_dictionary):
        big_a = ex_dictionary.fid_of("A")
        label = Label(fid=big_a)
        assert label.input_items(ex_dictionary) == ex_dictionary.descendants(big_a)
        assert len(Label().input_items(ex_dictionary)) == len(ex_dictionary)

    def test_describe(self):
        assert Label(fid=3, gid="A", captured=True, generalize=True).describe() == "(A^)"
        assert Label().describe() == "."


# ------------------------------------------------------------------ compilation
class TestCompilation:
    def test_running_example_fst_shape(self, ex_fst):
        # The paper's FST (Fig. 4) has 3 states and 6 transitions; the compiled
        # FST must be equivalent but may differ slightly in size.
        assert ex_fst.num_states >= 3
        assert len(ex_fst.transitions) >= 6
        assert ex_fst.has_captures()

    def test_unknown_item_raises(self, ex_dictionary):
        with pytest.raises(UnknownItemError):
            compile_expression("(unknown_item)", ex_dictionary)

    def test_empty_language_fst(self, ex_dictionary):
        # An expression over an impossible combination still compiles.
        fst = compile_expression("A= a2=", ex_dictionary)
        assert not accepts(fst, ex_dictionary.encode(["A"]), ex_dictionary)

    def test_dump_contains_transitions(self, ex_fst, ex_dictionary):
        dump = ex_fst.dump(ex_dictionary)
        assert "states" in dump
        assert "q0" in dump


# -------------------------------------------------------------------- matching
class TestMatching:
    def test_running_example_matches(self, ex_fst, ex_dictionary, ex_database):
        expected = [True, True, False, True, True]
        observed = [accepts(ex_fst, T, ex_dictionary) for T in ex_database]
        assert observed == expected

    def test_empty_sequence(self, ex_dictionary):
        fst = compile_expression(".*", ex_dictionary)
        assert accepts(fst, (), ex_dictionary)
        fst2 = compile_expression("(A)", ex_dictionary)
        assert not accepts(fst2, (), ex_dictionary)

    def test_reachability_table_dimensions(self, ex_fst, ex_dictionary, ex_database):
        T5 = ex_database[4]
        table = make_kernel(ex_fst, ex_dictionary).reachability_table(T5)
        assert len(table) == len(T5) + 1
        # One state bitmask per position: no bit beyond the FST's states, the
        # last row is exactly the final states, and T5 is accepted.
        assert all(isinstance(row, int) and 0 <= row < 1 << ex_fst.num_states for row in table)
        assert table[-1] == sum(1 << state for state in ex_fst.final_states)
        assert (table[0] >> ex_fst.initial_state) & 1

    def test_exact_match_semantics(self, ex_dictionary):
        # (A) matches a1 but A= does not.
        fst = compile_expression(".*A=.*", ex_dictionary)
        assert accepts(fst, ex_dictionary.encode(["A"]), ex_dictionary)
        assert not accepts(fst, ex_dictionary.encode(["a1"]), ex_dictionary)
        fst_desc = compile_expression(".*A.*", ex_dictionary)
        assert accepts(fst_desc, ex_dictionary.encode(["a1"]), ex_dictionary)


# --------------------------------------------------------------- accepting runs
class TestAcceptingRuns:
    def test_t5_accepting_runs_cover_all_candidates(
        self, ex_fst, ex_dictionary, ex_database
    ):
        # The paper's hand-minimized FST (Fig. 4) has exactly 3 accepting runs
        # for T5; our compiled FST is equivalent on outputs but not state-minimal,
        # so we check run structure and the union of the runs' outputs instead.
        T5 = ex_database[4]
        runs = list(accepting_runs(ex_fst, T5, ex_dictionary))
        assert len(runs) >= 2
        assert all(len(run) == len(T5) for run in runs)
        produced = set()
        for run in runs:
            from repro.fst import expand_output_sets

            produced |= {
                candidate
                for candidate in expand_output_sets(
                    run_output_sets(run, T5, ex_dictionary)
                )
                if candidate
            }
        assert gids(ex_dictionary, produced) == {"a1a1b", "a1Ab", "a1b"}

    def test_t3_has_no_accepting_runs(self, ex_fst, ex_dictionary, ex_database):
        assert list(accepting_runs(ex_fst, ex_database[2], ex_dictionary)) == []

    def test_run_cap_raises(self, ex_fst, ex_dictionary, ex_database):
        with pytest.raises(CandidateExplosionError):
            list(accepting_runs(ex_fst, ex_database[1], ex_dictionary, max_runs=1))

    def test_run_output_sets_shapes(self, ex_fst, ex_dictionary, ex_database):
        T5 = ex_database[4]
        for run in accepting_runs(ex_fst, T5, ex_dictionary):
            sets = run_output_sets(run, T5, ex_dictionary)
            assert len(sets) == len(T5)
            assert all(isinstance(s, tuple) for s in sets)

    def test_frequency_filter_drops_infrequent_outputs(
        self, ex_fst, ex_dictionary, ex_database
    ):
        T2 = ex_database[1]
        e = ex_dictionary.fid_of("e")
        filtered_items = set()
        for run in accepting_runs(ex_fst, T2, ex_dictionary):
            for outputs in run_output_sets(run, T2, ex_dictionary, max_frequent_fid=5):
                filtered_items.update(outputs)
        assert e not in filtered_items


# ---------------------------------------------------------- candidate generation
class TestCandidateGeneration:
    def test_fig3_candidates_t1(self, ex_fst, ex_dictionary, ex_database):
        candidates = generate_candidates(ex_fst, ex_database[0], ex_dictionary)
        assert gids(ex_dictionary, candidates) == {
            "a1cdcb",
            "a1cdb",
            "a1cb",
            "a1dcb",
            "a1ccb",
            "a1db",
            "a1b",
        }

    def test_fig3_candidates_t2(self, ex_fst, ex_dictionary, ex_database):
        candidates = generate_candidates(ex_fst, ex_database[1], ex_dictionary)
        assert gids(ex_dictionary, candidates) == {
            "a1a1b",
            "a1Ab",
            "a1b",
            "a1eb",
            "a1eeb",
            "a1a1eb",
            "a1Aeb",
            "a1ea1b",
            "a1eAb",
            "a1ea1eb",
            "a1eAeb",
        }

    def test_fig3_candidates_t3_t4_t5(self, ex_fst, ex_dictionary, ex_database):
        assert generate_candidates(ex_fst, ex_database[2], ex_dictionary) == set()
        assert gids(
            ex_dictionary, generate_candidates(ex_fst, ex_database[3], ex_dictionary)
        ) == {"a2db", "a2b"}
        assert gids(
            ex_dictionary, generate_candidates(ex_fst, ex_database[4], ex_dictionary)
        ) == {"a1a1b", "a1Ab", "a1b"}

    def test_sigma_filtered_candidates(self, ex_fst, ex_dictionary, ex_database):
        # G^2_πex(T2) keeps only candidates made of frequent items (Fig. 3).
        candidates = generate_candidates(ex_fst, ex_database[1], ex_dictionary, sigma=2)
        assert gids(ex_dictionary, candidates) == {"a1a1b", "a1Ab", "a1b"}

    def test_sigma_filter_drops_whole_sequences(self, ex_fst, ex_dictionary, ex_database):
        # T4 contains a2 (infrequent); all its candidates contain a2.
        candidates = generate_candidates(ex_fst, ex_database[3], ex_dictionary, sigma=2)
        assert candidates == set()

    def test_empty_output_never_reported(self, ex_dictionary):
        fst = compile_expression(".*", ex_dictionary)
        T = ex_dictionary.encode(["a1", "b"])
        assert generate_candidates(fst, T, ex_dictionary) == set()

    def test_candidate_cap(self, ex_fst, ex_dictionary, ex_database):
        with pytest.raises(CandidateExplosionError):
            generate_candidates(
                ex_fst, ex_database[1], ex_dictionary, max_candidates=2
            )

    def test_generates_membership(self, ex_fst, ex_dictionary, ex_database):
        T5 = ex_database[4]
        a1 = ex_dictionary.fid_of("a1")
        big_a = ex_dictionary.fid_of("A")
        b = ex_dictionary.fid_of("b")
        assert generates(ex_fst, (a1, big_a, b), T5, ex_dictionary)
        assert generates(ex_fst, (a1, b), T5, ex_dictionary)
        # b ⪯ T5 but b is not πex-generated by T5 (Sec. II).
        assert not generates(ex_fst, (b,), T5, ex_dictionary)
        # Aa1b is not generated: (A) does not generalize matched items.
        assert not generates(ex_fst, (big_a, a1, b), T5, ex_dictionary)

    def test_generates_agrees_with_generate_candidates(
        self, ex_fst, ex_dictionary, ex_database
    ):
        # Both directions: every sequence of up to three items is generated
        # exactly when it is one of the enumerated candidates.
        fids = ex_dictionary.fids()
        probes = [(f,) for f in fids]
        probes += [p + (f,) for p in probes for f in fids]
        probes += [p + (f,) for p in probes if len(p) == 2 for f in fids]
        for T in ex_database:
            candidates = generate_candidates(ex_fst, T, ex_dictionary)
            for candidate in candidates:
                assert generates(ex_fst, candidate, T, ex_dictionary)
            for probe in probes:
                assert generates(ex_fst, probe, T, ex_dictionary) == (probe in candidates)

    def test_gap_constraint_candidates(self, ex_dictionary):
        # T2-style constraint: two captured items with gap at most 1 between.
        fst = compile_expression(".*(.)[.{0,1}(.)].*", ex_dictionary)
        T = ex_dictionary.encode(["a1", "c", "b"])
        candidates = gids(ex_dictionary, generate_candidates(fst, T, ex_dictionary))
        assert candidates == {"a1c", "a1b", "cb"}

    def test_hierarchy_generalization_capture(self, ex_dictionary):
        # (.^) outputs all ancestors of the matched item.
        fst = compile_expression("(.^)", ex_dictionary)
        T = ex_dictionary.encode(["a1"])
        assert gids(ex_dictionary, generate_candidates(fst, T, ex_dictionary)) == {
            "a1",
            "A",
        }

    def test_fully_generalizing_capture(self, ex_dictionary):
        fst = compile_expression("(A^=)", ex_dictionary)
        T = ex_dictionary.encode(["a2"])
        assert gids(ex_dictionary, generate_candidates(fst, T, ex_dictionary)) == {"A"}

    def test_union_candidates(self, ex_dictionary):
        fst = compile_expression("[(c)|(d)].*", ex_dictionary)
        T = ex_dictionary.encode(["c", "b"])
        assert gids(ex_dictionary, generate_candidates(fst, T, ex_dictionary)) == {"c"}

    def test_bounded_repetition(self, ex_dictionary):
        fst = compile_expression("(.){2}.*", ex_dictionary)
        T = ex_dictionary.encode(["a1", "c", "d"])
        assert gids(ex_dictionary, generate_candidates(fst, T, ex_dictionary)) == {"a1c"}


# ------------------------------------------------------------ property-based
@st.composite
def small_database(draw):
    vocabulary = ["a1", "a2", "b", "c", "d"]
    sequences = draw(
        st.lists(
            st.lists(st.sampled_from(vocabulary), min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    return sequences


class TestFstProperties:
    @given(small_database())
    @settings(max_examples=40, deadline=None)
    def test_candidates_are_pi_subsequences(self, sequences):
        """Every generated candidate must be obtainable by delete/generalize."""
        from repro.dictionary import Hierarchy

        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        hierarchy.add_edge("a2", "A")
        dictionary = build_dictionary(sequences, hierarchy)
        patex = PatEx(".*(A^)[(.^).*]*(.).*")
        fst = patex.compile(dictionary)
        for raw in sequences:
            T = dictionary.encode(raw)
            try:
                candidates = generate_candidates(
                    fst, T, dictionary, max_runs=5000, max_candidates=5000
                )
            except CandidateExplosionError:
                continue
            for candidate in candidates:
                assert _is_subsequence(candidate, T, dictionary)
                assert generates(fst, candidate, T, dictionary)

    @given(small_database())
    @settings(max_examples=40, deadline=None)
    def test_sigma_candidates_subset_of_all_candidates(self, sequences):
        from repro.dictionary import Hierarchy

        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        hierarchy.add_edge("a2", "A")
        dictionary = build_dictionary(sequences, hierarchy)
        fst = PatEx(".*(A^)(.)?.*").compile(dictionary)
        for raw in sequences:
            T = dictionary.encode(raw)
            all_candidates = generate_candidates(fst, T, dictionary)
            frequent_candidates = generate_candidates(fst, T, dictionary, sigma=2)
            assert frequent_candidates <= all_candidates
            limit = dictionary.largest_frequent_fid(2)
            for candidate in frequent_candidates:
                assert all(fid <= limit for fid in candidate)


def _is_subsequence(candidate, sequence, dictionary) -> bool:
    """Check S ⪯ T: S obtained by deleting and/or generalizing items of T."""
    position = 0
    for output in candidate:
        while position < len(sequence) and not dictionary.generalizes_to(
            sequence[position], output
        ):
            position += 1
        if position == len(sequence):
            return False
        position += 1
    return True


class TestLongSequences:
    """Run enumeration keeps an explicit stack: a sequence longer than the
    interpreter's recursion limit used to end in a bare ``RecursionError``."""

    LENGTH = 1_500

    @pytest.fixture(scope="class")
    def long_input(self):
        from repro.dictionary import Hierarchy
        from repro.sequences import preprocess

        dictionary, database = preprocess(
            [("a",) * self.LENGTH, ("a", "b")], Hierarchy()
        )
        return dictionary, tuple(database[0])

    def test_accepting_runs_of_a_long_sequence(self, long_input):
        dictionary, sequence = long_input
        fst = PatEx("(a)+").compile(dictionary)
        (run,) = accepting_runs(fst, sequence, dictionary)
        assert len(run) == self.LENGTH
        a = dictionary.fid_of("a")
        assert set(run_output_sets(run, sequence, dictionary)) == {(a,)}

    def test_dcand_map_of_a_long_sequence(self, long_input):
        from repro.core.dcand import DCandJob
        from repro.nfa import deserialize

        dictionary, sequence = long_input
        job = DCandJob(PatEx("(a)+").compile(dictionary), dictionary, sigma=1)
        ((pivot, payload),) = job.map(sequence)
        a = dictionary.fid_of("a")
        assert pivot == a
        nfa = deserialize(payload)
        assert nfa.num_states == self.LENGTH + 1
        assert nfa_accepts(nfa, (a,) * self.LENGTH)
        assert not nfa_accepts(nfa, (a,) * (self.LENGTH - 1))

    def test_run_cap_fires_at_the_same_run_count(self, long_input):
        """``.*(a).*`` has one accepting run per position: a cap of n passes,
        a cap of n - 1 yields n - 1 runs and raises on the n-th."""
        from repro.core.dcand import DCandJob

        dictionary, sequence = long_input
        sequence = sequence[:40]
        fst = PatEx(".*(a).*").compile(dictionary)
        assert len(list(accepting_runs(fst, sequence, dictionary, max_runs=40))) == 40
        runs = accepting_runs(fst, sequence, dictionary, max_runs=39)
        assert sum(1 for _run in zip(range(39), runs)) == 39
        with pytest.raises(CandidateExplosionError):
            next(runs)
        assert len(list(DCandJob(fst, dictionary, max_runs=40).map(sequence))) == 1
        with pytest.raises(CandidateExplosionError):
            list(DCandJob(fst, dictionary, max_runs=39).map(sequence))
