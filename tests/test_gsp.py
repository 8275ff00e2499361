"""Tests for the GSP-style level-wise miner (generate-and-count oracle)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MiningError
from repro.mapreduce import ClusterConfig
from repro.sequential import GapConstrainedMiner, PrefixSpanMiner
from repro.sequences import SequenceDatabase
from tests.reference import GspMiner


class TestGspBasics:
    def test_simple_bigrams(self, ex_dictionary):
        # Dex without hierarchy use: bigrams with gap 0.
        database = SequenceDatabase(
            [ex_dictionary.encode(s) for s in (["a1", "b"], ["a1", "b"], ["a1", "c"])]
        )
        miner = GspMiner(2, ex_dictionary, max_gap=0, max_length=2, use_hierarchy=False)
        result = miner.mine(database)
        decoded = result.decoded(ex_dictionary)
        assert decoded == {("a1", "b"): 2}

    def test_hierarchy_generalization(self, ex_dictionary, ex_database):
        miner = GspMiner(2, ex_dictionary, max_gap=1, max_length=2, use_hierarchy=True)
        decoded = miner.mine(ex_database).decoded(ex_dictionary)
        # a1 generalizes to A; A d occurs in T1 (a1 . d) and T4 (a2 d).
        assert decoded.get(("A", "d")) == 2

    def test_min_length_one_reports_single_items(self, ex_dictionary, ex_database):
        miner = GspMiner(
            3, ex_dictionary, max_gap=None, max_length=1, min_length=1, use_hierarchy=False
        )
        decoded = miner.mine(ex_database).decoded(ex_dictionary)
        assert decoded[("b",)] == 5
        assert all(len(pattern) == 1 for pattern in decoded)

    def test_support_counted_once_per_sequence(self, ex_dictionary):
        # "a1 a1 a1 b" contains "a1 b" three ways but supports it once.
        database = SequenceDatabase(
            [ex_dictionary.encode(["a1", "a1", "a1", "b"])] * 2
        )
        miner = GspMiner(1, ex_dictionary, max_gap=None, max_length=2, use_hierarchy=False)
        decoded = miner.mine(database).decoded(ex_dictionary)
        assert decoded[("a1", "b")] == 2

    def test_gap_constraint_requires_backtracking(self, ex_dictionary):
        # With gap 0, "a1 a1 b" supports (a1, b) only via the second a1.
        database = SequenceDatabase([ex_dictionary.encode(["a1", "a1", "b"])] )
        miner = GspMiner(1, ex_dictionary, max_gap=0, max_length=2, use_hierarchy=False)
        decoded = miner.mine(database).decoded(ex_dictionary)
        assert ("a1", "b") in decoded

    def test_infrequent_items_never_appear(self, ex_dictionary, ex_database):
        miner = GspMiner(2, ex_dictionary, max_gap=2, max_length=3, use_hierarchy=True)
        result = miner.mine(ex_database)
        max_frequent = ex_dictionary.largest_frequent_fid(2)
        assert all(max(pattern) <= max_frequent for pattern in result)

    def test_parameter_validation(self, ex_dictionary):
        with pytest.raises(MiningError):
            GspMiner(0, ex_dictionary, max_gap=1, max_length=5)
        with pytest.raises(MiningError):
            GspMiner(1, ex_dictionary, max_gap=1, max_length=1, min_length=2)
        with pytest.raises(MiningError):
            GspMiner(1, ex_dictionary, max_gap=1, max_length=2, min_length=0)


class TestGspAgainstSpecialist:
    """GSP and the LASH/MG-FSM-style miner are independent implementations of
    the same constraint family and must agree exactly."""

    @pytest.mark.parametrize("max_gap,max_length,use_hierarchy", [
        (0, 3, False),
        (1, 3, False),
        (1, 3, True),
        (2, 4, True),
        (None, 3, False),
    ])
    def test_agreement_on_running_example(
        self, ex_dictionary, ex_database, max_gap, max_length, use_hierarchy
    ):
        gsp = GspMiner(
            2, ex_dictionary, max_gap=max_gap, max_length=max_length,
            use_hierarchy=use_hierarchy,
        )
        specialist = GapConstrainedMiner(
            2, ex_dictionary, max_gap=max_gap, max_length=max_length,
            use_hierarchy=use_hierarchy, cluster=ClusterConfig(num_workers=2),
        )
        assert gsp.mine(ex_database).patterns() == specialist.mine(ex_database).patterns()

    def test_agreement_with_prefixspan_setting(self, ex_dictionary, ex_database):
        """Unbounded gaps, no hierarchy, min_length 1 is the PrefixSpan setting."""
        gsp = GspMiner(
            2, ex_dictionary, max_gap=None, max_length=3, min_length=1,
            use_hierarchy=False,
        )
        prefixspan = PrefixSpanMiner(2, 3, ex_dictionary)
        assert gsp.mine(ex_database).patterns() == prefixspan.mine(ex_database).patterns()

    @settings(max_examples=30, deadline=None)
    @given(
        sequences=st.lists(
            st.lists(st.sampled_from(["a1", "a2", "b", "c", "d", "e"]), min_size=1, max_size=8),
            min_size=1,
            max_size=12,
        ),
        sigma=st.integers(min_value=1, max_value=3),
        max_gap=st.sampled_from([0, 1, 2, None]),
        use_hierarchy=st.booleans(),
    )
    def test_agreement_property(self, ex_dictionary, sequences, sigma, max_gap, use_hierarchy):
        database = SequenceDatabase([ex_dictionary.encode(s) for s in sequences])
        gsp = GspMiner(
            sigma, ex_dictionary, max_gap=max_gap, max_length=3, use_hierarchy=use_hierarchy
        )
        specialist = GapConstrainedMiner(
            sigma, ex_dictionary, max_gap=max_gap, max_length=3,
            use_hierarchy=use_hierarchy, cluster=ClusterConfig(num_workers=2),
        )
        assert gsp.mine(database).patterns() == specialist.mine(database).patterns()
