"""Tests for FST/NFA dot export and structural statistics."""

from __future__ import annotations

from repro.fst import (
    fst_statistics,
    fst_to_dot,
    nfa_statistics,
    nfa_to_dot,
    reachable_states,
)
from repro.nfa import TrieBuilder
from repro.patex import PatEx


class TestFstToDot:
    def test_contains_all_states_and_transitions(self, ex_fst):
        dot = fst_to_dot(ex_fst)
        assert dot.startswith("digraph")
        for state in ex_fst.states():
            assert f"q{state}" in dot
        assert dot.count("->") == len(ex_fst.transitions) + 1  # +1 for the start arrow

    def test_final_states_are_double_circles(self, ex_fst):
        dot = fst_to_dot(ex_fst)
        finals = [state for state in ex_fst.states() if ex_fst.is_final(state)]
        assert finals
        for state in finals:
            assert f'q{state} [label="q{state}", shape=doublecircle]' in dot

    def test_labels_use_pattern_notation(self, ex_fst):
        dot = fst_to_dot(ex_fst)
        assert "(A)" in dot
        assert "(b)" in dot

    def test_title_is_escaped(self, ex_fst):
        dot = fst_to_dot(ex_fst, title='with "quotes"')
        assert 'digraph "with \\"quotes\\""' in dot


class TestFstStatistics:
    def test_running_example(self, ex_fst):
        stats = fst_statistics(ex_fst)
        assert stats.num_states == ex_fst.num_states
        assert stats.num_transitions == len(ex_fst.transitions)
        assert stats.num_final_states >= 1
        assert stats.num_capturing_transitions >= 2  # (A), (.^), (b)
        assert stats.num_generalizing_transitions >= 1  # (.^)
        assert stats.max_fanout >= 2
        assert stats.is_deterministic_on_states is False

    def test_simple_expression_is_deterministic_on_states(self, ex_dictionary):
        fst = PatEx("(b)").compile(ex_dictionary)
        stats = fst_statistics(fst)
        assert stats.is_deterministic_on_states is True
        assert stats.num_generalizing_transitions == 0

    def test_as_dict_round_trip(self, ex_fst):
        summary = fst_statistics(ex_fst).as_dict()
        assert summary["states"] == ex_fst.num_states
        assert isinstance(summary["deterministic_on_states"], bool)


class TestReachability:
    def test_all_states_reachable_after_compilation(self, ex_fst):
        assert reachable_states(ex_fst) == set(ex_fst.states())

    def test_initial_state_always_reachable(self, ex_dictionary):
        fst = PatEx("(A)").compile(ex_dictionary)
        assert fst.initial_state in reachable_states(fst)


class TestNfaExport:
    def make_nfa(self):
        builder = TrieBuilder()
        builder.add_run([(4,), (2, 4), (1,)])  # a1 {A,a1} b (Fig. 8)
        builder.add_run([(4,), (1,)])
        return builder.minimized()

    def test_dot_contains_states_and_edges(self):
        nfa = self.make_nfa()
        dot = nfa_to_dot(nfa)
        assert dot.startswith("digraph")
        for state in range(nfa.num_states):
            assert f"s{state}" in dot
        assert dot.count("->") == nfa.num_transitions + 1

    def test_dot_decodes_gids(self, ex_dictionary):
        dot = nfa_to_dot(self.make_nfa(), ex_dictionary)
        assert "{a1,A}" in dot or "{A,a1}" in dot
        assert "{b}" in dot

    def test_statistics(self):
        nfa = self.make_nfa()
        stats = nfa_statistics(nfa)
        assert stats.num_states == nfa.num_states
        assert stats.num_transitions == nfa.num_transitions
        assert stats.num_final_states >= 1
        assert stats.num_candidates == 3  # a1 a1 b, a1 A b, a1 b
        assert stats.max_label_size == 2
        assert stats.as_dict()["candidates"] == 3
