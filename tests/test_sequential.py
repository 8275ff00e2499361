"""Tests for the sequential and specialised reference miners."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DCandMiner, DSeqMiner
from repro.dictionary import build_dictionary
from repro.dictionary.hierarchy import Hierarchy
from repro.errors import MiningError
from repro.mapreduce import ClusterConfig
from repro.sequential import (
    GapConstrainedMiner,
    LashMiner,
    MgFsmMiner,
    PrefixSpanMiner,
    SequentialDesqCount,
    SequentialDesqDfs,
)

from tests.conftest import RUNNING_EXAMPLE_PATEX


def small_hierarchy() -> Hierarchy:
    hierarchy = Hierarchy()
    hierarchy.add_edge("a1", "A")
    hierarchy.add_edge("a2", "A")
    hierarchy.add_item("b")
    hierarchy.add_item("c")
    hierarchy.add_item("d")
    return hierarchy


class TestSequentialDesqDfs:
    def test_running_example(self, ex_dictionary, ex_database):
        result = SequentialDesqDfs(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        decoded = {"".join(p): f for p, f in result.decoded(ex_dictionary).items()}
        assert decoded == {"a1a1b": 2, "a1Ab": 2, "a1b": 3}
        assert result.algorithm == "DESQ-DFS"
        assert result.metrics.num_workers == 1

    def test_agrees_with_distributed_miners(self, ex_dictionary, ex_database):
        sequential = SequentialDesqDfs(RUNNING_EXAMPLE_PATEX, 1, ex_dictionary).mine(
            ex_database
        )
        dseq = DSeqMiner(RUNNING_EXAMPLE_PATEX, 1, ex_dictionary).mine(ex_database)
        dcand = DCandMiner(RUNNING_EXAMPLE_PATEX, 1, ex_dictionary).mine(ex_database)
        assert dict(sequential) == dict(dseq) == dict(dcand)


class TestSequentialDesqCount:
    def test_agrees_with_desq_dfs(self, ex_dictionary, ex_database):
        count = SequentialDesqCount(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        dfs = SequentialDesqDfs(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        assert dict(count) == dict(dfs)

    def test_metrics(self, ex_dictionary, ex_database):
        result = SequentialDesqCount(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        assert result.metrics.input_records == 5
        assert result.metrics.output_records == 3


class TestPrefixSpan:
    def test_simple_database(self):
        dictionary = build_dictionary([["a", "b"], ["a", "b"], ["b", "a"]])
        database = [dictionary.encode(s) for s in (["a", "b"], ["a", "b"], ["b", "a"])]
        result = PrefixSpanMiner(2, 2, dictionary).mine(database)
        decoded = result.decoded(dictionary)
        assert decoded[("a",)] == 3
        assert decoded[("b",)] == 3
        assert decoded[("a", "b")] == 2
        assert ("b", "a") not in decoded or decoded[("b", "a")] == 1

    def test_max_length_respected(self):
        dictionary = build_dictionary([["a", "b", "c"]] * 3)
        database = [dictionary.encode(["a", "b", "c"])] * 3
        result = PrefixSpanMiner(3, 2, dictionary).mine(database)
        assert all(len(pattern) <= 2 for pattern in result)

    def test_counts_each_sequence_once(self):
        dictionary = build_dictionary([["a", "a", "a"]])
        database = [dictionary.encode(["a", "a", "a"])]
        result = PrefixSpanMiner(1, 1, dictionary).mine(database)
        assert result.decoded(dictionary) == {("a",): 1}

    def test_invalid_parameters(self):
        with pytest.raises(MiningError):
            PrefixSpanMiner(0, 5)
        with pytest.raises(MiningError):
            PrefixSpanMiner(1, 0)

    def test_matches_t1_pattern_expression(self, ex_dictionary, ex_database):
        # T1(σ=2, λ=3) as a pattern expression vs PrefixSpan semantics.
        dseq = DSeqMiner(".*(.)[.*(.)]{0,2}.*", 2, ex_dictionary).mine(ex_database)
        prefixspan = PrefixSpanMiner(2, 3, ex_dictionary).mine(ex_database)
        assert dict(prefixspan) == dict(dseq)


class TestGapConstrainedMiner:
    def test_lash_matches_t3_pattern_expression(self, ex_dictionary, ex_database):
        lash = LashMiner(2, ex_dictionary, max_gap=1, max_length=3).mine(ex_database)
        dseq = DSeqMiner(".*(.^)[.{0,1}(.^)]{1,2}.*", 2, ex_dictionary).mine(ex_database)
        dcand = DCandMiner(".*(.^)[.{0,1}(.^)]{1,2}.*", 2, ex_dictionary).mine(ex_database)
        assert dict(lash) == dict(dseq) == dict(dcand)
        assert lash.algorithm == "LASH"

    def test_mgfsm_matches_t2_pattern_expression(self, ex_dictionary, ex_database):
        mgfsm = MgFsmMiner(2, ex_dictionary, max_gap=0, max_length=3).mine(ex_database)
        dseq = DSeqMiner(".*(.)[.{0,0}(.)]{1,2}.*", 2, ex_dictionary).mine(ex_database)
        assert dict(mgfsm) == dict(dseq)
        assert mgfsm.algorithm == "MG-FSM"

    def test_max_gap_zero_means_consecutive(self, ex_dictionary, ex_database):
        result = MgFsmMiner(2, ex_dictionary, max_gap=0, max_length=2).mine(ex_database)
        decoded = result.decoded(ex_dictionary)
        # "d b" occurs consecutively in T4 only; "c b" in T1 and T3.
        assert decoded.get(("c", "b")) == 2
        assert ("d", "b") not in decoded

    def test_hierarchy_generalization(self, ex_dictionary, ex_database):
        result = LashMiner(2, ex_dictionary, max_gap=1, max_length=2).mine(ex_database)
        decoded = result.decoded(ex_dictionary)
        # With gap <= 1: "A b" occurs in T2, T4 and T5 (a1/a2 generalize to A),
        # while the ungeneralized "a1 b" occurs only in T2 and T5.
        assert decoded.get(("A", "b")) == 3
        assert decoded.get(("a1", "b")) == 2

    def test_worker_count_invariance(self, ex_dictionary, ex_database):
        one = LashMiner(
            2, ex_dictionary, max_gap=1, max_length=3, cluster=ClusterConfig(num_workers=1)
        ).mine(
            ex_database
        )
        four = LashMiner(
            2, ex_dictionary, max_gap=1, max_length=3, cluster=ClusterConfig(num_workers=4)
        ).mine(
            ex_database
        )
        assert dict(one) == dict(four)

    def test_invalid_parameters(self, ex_dictionary):
        with pytest.raises(MiningError):
            GapConstrainedMiner(0, ex_dictionary, max_gap=1, max_length=3)
        with pytest.raises(MiningError):
            GapConstrainedMiner(1, ex_dictionary, max_gap=1, max_length=1, min_length=2)

    @given(
        st.lists(
            st.lists(st.sampled_from(["a1", "a2", "b", "c", "d"]), min_size=1, max_size=7),
            min_size=2,
            max_size=12,
        ),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_lash_equals_dseq_property(self, sequences, max_gap, max_length, sigma):
        dictionary = build_dictionary(sequences, small_hierarchy())
        database = [dictionary.encode(raw) for raw in sequences]
        lash = LashMiner(sigma, dictionary, max_gap=max_gap, max_length=max_length).mine(
            database
        )
        expression = f".*(.^)[.{{0,{max_gap}}}(.^)]{{1,{max_length - 1}}}.*"
        dseq = DSeqMiner(expression, sigma, dictionary).mine(database)
        assert dict(lash) == dict(dseq)
