"""Tests for FST dot export and structural statistics."""

from __future__ import annotations

from repro.fst import fst_statistics, fst_to_dot
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
