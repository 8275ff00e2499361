"""Tests for the pivot-aware DESQ-DFS local miner and the NFA local miner."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DCandMiner, DSeqMiner
from repro.core.local_mining import DesqDfsMiner
from repro.core.nfa_mining import NfaLocalMiner
from repro.dictionary import build_dictionary
from repro.dictionary.hierarchy import Hierarchy
from repro.errors import MiningError
from repro.fst import generate_candidates
from repro.mapreduce import ClusterConfig
from repro.core.pivot_search import pivots_of_sorted_sets
from repro.nfa import (
    TrieBuilder,
    decode_tables,
    deserialize,
    serialize_pivot_tries,
    serialize_trie,
)
from repro.patex import PatEx
from repro.sequences import preprocess

from tests.conftest import gids, weighted
from tests.reference import mine_by_labels, minimized, trie


def reference_counts(fst, dictionary, database, sigma):
    """Brute-force mining by candidate generation (ground truth)."""
    counts = Counter()
    for sequence in database:
        counts.update(generate_candidates(fst, sequence, dictionary, sigma=sigma))
    return {
        pattern: frequency for pattern, frequency in counts.items() if frequency >= sigma
    }


class TestDesqDfsMiner:
    def test_running_example_without_pivot(self, ex_fst, ex_dictionary, ex_database):
        miner = DesqDfsMiner(ex_fst, ex_dictionary, sigma=2)
        patterns = miner.mine(list(ex_database))
        assert gids(ex_dictionary, patterns) == {"a1a1b", "a1Ab", "a1b"}
        assert patterns[ex_dictionary.encode(("a1", "b"))] == 3

    def test_matches_reference_for_sigma_1(self, ex_fst, ex_dictionary, ex_database):
        miner = DesqDfsMiner(ex_fst, ex_dictionary, sigma=1)
        patterns = miner.mine(list(ex_database))
        assert patterns == reference_counts(ex_fst, ex_dictionary, ex_database, 1)

    def test_pivot_restriction_fig6(self, ex_fst, ex_dictionary, ex_database):
        # Partition P_a1 (Fig. 6) receives T1, T2, T5 and mines a1a1b, a1Ab, a1b.
        a1 = ex_dictionary.fid_of("a1")
        received = [ex_database[0], ex_database[1], ex_database[4]]
        miner = DesqDfsMiner(ex_fst, ex_dictionary, sigma=2, pivot=a1)
        patterns = miner.mine(received)
        assert gids(ex_dictionary, patterns) == {"a1a1b", "a1Ab", "a1b"}

    def test_pivot_partition_outputs_only_pivot_sequences(
        self, ex_fst, ex_dictionary, ex_database
    ):
        # Partition P_c with σ=1: only sequences whose maximum item is c.
        c = ex_dictionary.fid_of("c")
        miner = DesqDfsMiner(ex_fst, ex_dictionary, sigma=1, pivot=c)
        patterns = miner.mine([ex_database[0]])
        assert all(max(pattern) == c for pattern in patterns)
        assert gids(ex_dictionary, patterns) == {
            "a1cdcb",
            "a1cdb",
            "a1cb",
            "a1dcb",
            "a1ccb",
        }

    def test_early_stopping_does_not_change_results(
        self, ex_fst, ex_dictionary, ex_database
    ):
        a1 = ex_dictionary.fid_of("a1")
        received = [ex_database[0], ex_database[1], ex_database[4]]
        with_stop = DesqDfsMiner(
            ex_fst, ex_dictionary, sigma=2, pivot=a1, use_early_stopping=True
        ).mine(received)
        without_stop = DesqDfsMiner(
            ex_fst, ex_dictionary, sigma=2, pivot=a1, use_early_stopping=False
        ).mine(received)
        assert with_stop == without_stop

    def test_weights_are_respected(self, ex_fst, ex_dictionary, ex_database):
        miner = DesqDfsMiner(ex_fst, ex_dictionary, sigma=2)
        patterns = miner.mine([ex_database[4]], weights=[3])
        assert patterns[ex_dictionary.encode(("a1", "b"))] == 3

    def test_weight_misalignment_rejected(self, ex_fst, ex_dictionary, ex_database):
        miner = DesqDfsMiner(ex_fst, ex_dictionary, sigma=2)
        with pytest.raises(MiningError):
            miner.mine([ex_database[0]], weights=[1, 2])

    def test_invalid_sigma_rejected(self, ex_fst, ex_dictionary):
        with pytest.raises(MiningError):
            DesqDfsMiner(ex_fst, ex_dictionary, sigma=0)

    def test_high_sigma_yields_nothing(self, ex_fst, ex_dictionary, ex_database):
        miner = DesqDfsMiner(ex_fst, ex_dictionary, sigma=10)
        assert miner.mine(list(ex_database)) == {}

    def test_no_matching_sequences(self, ex_fst, ex_dictionary, ex_database):
        miner = DesqDfsMiner(ex_fst, ex_dictionary, sigma=1)
        assert miner.mine([ex_database[2]]) == {}

    @given(
        st.lists(
            st.lists(st.sampled_from(["a1", "a2", "b", "c"]), min_size=1, max_size=6),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_counts_property(self, sequences, sigma):
        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        hierarchy.add_edge("a2", "A")
        hierarchy.add_item("b")
        dictionary = build_dictionary(sequences, hierarchy)
        fst = PatEx(".*(A^)[(.^)|.]*(.).*").compile(dictionary)
        database = [dictionary.encode(raw) for raw in sequences]
        mined = DesqDfsMiner(fst, dictionary, sigma=sigma).mine(database)
        assert mined == reference_counts(fst, dictionary, database, sigma)


class TestNfaLocalMiner:
    def _nfas_for(self, fst, dictionary, sequences, sigma, pivot):
        """Build per-sequence pivot NFAs the way D-CAND's map phase does."""
        from repro.core.dcand import DCandJob

        job = DCandJob(fst, dictionary, sigma)
        nfas = []
        for sequence in sequences:
            for key, payload in job.map(weighted(sequence)):
                if key == pivot:
                    from repro.nfa import deserialize

                    nfas.append(deserialize(payload))
        return nfas

    def test_counts_on_running_example_partition(self, ex_fst, ex_dictionary, ex_database):
        a1 = ex_dictionary.fid_of("a1")
        nfas = self._nfas_for(ex_fst, ex_dictionary, list(ex_database), 2, a1)
        miner = NfaLocalMiner(sigma=2, pivot=a1)
        patterns = miner.mine(nfas)
        assert gids(ex_dictionary, patterns) == {"a1a1b", "a1Ab", "a1b"}
        assert patterns[ex_dictionary.encode(("a1", "b"))] == 3

    def test_weights(self):
        builder = TrieBuilder()
        builder.add_run([(4,), (1,)])
        nfa = minimized(builder)
        miner = NfaLocalMiner(sigma=3, pivot=4)
        assert miner.mine([nfa], weights=[3]) == {(4, 1): 3}
        assert miner.mine([nfa], weights=[2]) == {}

    def test_pivot_filter(self):
        builder = TrieBuilder()
        builder.add_run([(4,), (1,)])
        builder.add_run([(1,)])
        nfa = minimized(builder)
        # Without a pivot, both candidates are counted; with pivot 4 only (4, 1).
        assert set(NfaLocalMiner(sigma=1).mine([nfa])) == {(4, 1), (1,)}
        assert set(NfaLocalMiner(sigma=1, pivot=4).mine([nfa])) == {(4, 1)}

    def test_invalid_sigma(self):
        with pytest.raises(MiningError):
            NfaLocalMiner(sigma=0)

    def test_weight_misalignment_rejected(self):
        builder = TrieBuilder()
        builder.add_run([(1,)])
        with pytest.raises(MiningError):
            NfaLocalMiner(sigma=1).mine([trie(builder)], weights=[1, 2])

    def test_empty_input(self):
        assert NfaLocalMiner(sigma=1).mine([]) == {}


def runs_strategy(max_item=7):
    """Accepting runs as the map inserts them: ε-free ascending output sets."""
    return st.lists(
        st.lists(st.integers(min_value=1, max_value=max_item), min_size=1, max_size=3).map(
            lambda items: tuple(sorted(set(items)))
        ),
        min_size=1,
        max_size=4,
    )


def mine_three_ways(payloads, weights, sigma, pivot):
    """The decoded-table search, the ``OutputNfa`` route to the same search,
    and the labelled-edge oracle, each as an ordered list of patterns."""
    miner = NfaLocalMiner(sigma, pivot=pivot)
    nfas = [deserialize(payload) for payload in payloads]
    decoded = miner.mine_tables([decode_tables(payload) for payload in payloads], weights)
    return (
        list(decoded.items()),
        list(miner.mine(nfas, weights).items()),
        list(mine_by_labels(nfas, weights, sigma, pivot).items()),
    )


class TestTableSearch:
    """The reduce counts on tables decoded from the bytes, pruning a prefix
    without the pivot to the states that can still read it; the labelled-edge
    walk (``tests.reference.mine_by_labels``) is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        records=st.lists(st.lists(runs_strategy(), min_size=1, max_size=4), min_size=1, max_size=6),
        weights=st.lists(st.integers(min_value=0, max_value=3), min_size=6, max_size=6),
        sigma=st.integers(min_value=1, max_value=4),
        minimize=st.booleans(),
        data=st.data(),
    )
    def test_pivot_partitions_equal_the_oracle(self, records, weights, sigma, minimize, data):
        """Per-pivot NFAs the way D-CAND's map writes them, one partition."""
        partitions: dict[int, list[bytes]] = {}
        for runs in records:
            forest = TrieBuilder()
            for run in runs:
                forest.add_run(run, pivots_of_sorted_sets(run))
            for pivot, payload in serialize_pivot_tries(forest, minimize):
                partitions.setdefault(pivot, []).append(payload)
        pivot = data.draw(st.sampled_from(sorted(partitions)))
        payloads = partitions[pivot]
        decoded, from_nfas, oracle = mine_three_ways(
            payloads, weights[: len(payloads)], sigma, pivot
        )
        assert decoded == from_nfas == oracle

    @settings(max_examples=150, deadline=None)
    @given(
        tries=st.lists(st.lists(runs_strategy(9), min_size=1, max_size=5), min_size=1, max_size=4),
        weights=st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
        sigma=st.integers(min_value=1, max_value=4),
        pivot=st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
    )
    def test_any_tries_and_pivots_equal_the_oracle(self, tries, weights, sigma, pivot):
        """Items above the pivot, pivots no label holds, and no pivot at all."""
        payloads = []
        for runs in tries:
            builder = TrieBuilder()
            for run in runs:
                builder.add_run(run)
            payloads.append(serialize_trie(builder))
        decoded, from_nfas, oracle = mine_three_ways(
            payloads, weights[: len(payloads)], sigma, pivot
        )
        assert decoded == from_nfas == oracle

    def test_a_shared_state_numbered_below_its_source(self):
        """``(2)(4)`` leads to the state ``(1)`` reached first: the bytes name
        it by its smaller number.  A sweep from the highest state number down
        would settle state 4 before state 1 knows it can still read 5."""
        builder = TrieBuilder()
        builder.add_run([(1,), (3,), (5,)])
        builder.add_run([(2,), (4,), (3,), (5,)])
        payload = serialize_trie(builder)
        nfa = deserialize(payload)
        assert nfa.transitions == [
            [((1,), 1), ((2,), 4)], [((3,), 2)], [((5,), 3)], [], [((4,), 1)]
        ]
        rows, finals, tops = decode_tables(payload)
        assert tops == [5, 5, 5, 0, 5]
        for weight in (1, 2):
            decoded, from_nfas, oracle = mine_three_ways([payload], [weight], 1, 5)
            assert decoded == from_nfas == oracle
            assert dict(decoded) == {(1, 3, 5): weight, (2, 4, 3, 5): weight}


class TestDeepPatterns:
    """Patterns as long as a 1,500-item input sequence.

    Both local miners used to recurse once per pattern item, so all three
    reducers died with a bare ``RecursionError`` here.  ``(a)+`` must consume
    the whole input (one pattern, 1,500 items); ``(a)+ a*`` also yields every
    shorter prefix, in ascending length — the order of the depth-first walk.
    """

    LENGTH = 1500
    EXPRESSIONS = ("(a)+", "(a)+ a*")

    @pytest.fixture(scope="class")
    def deep(self):
        return preprocess([("a",) * self.LENGTH])

    def expected(self, expression):
        lengths = range(1, self.LENGTH + 1) if expression == "(a)+ a*" else [self.LENGTH]
        return [((1,) * length, 1) for length in lengths]

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_desq_dfs_miner(self, deep, expression):
        dictionary, database = deep
        fst = PatEx(expression).compile(dictionary)
        mined = DesqDfsMiner(fst, dictionary, 1).mine(list(database))
        assert list(mined.items()) == self.expected(expression)

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_dseq_miner(self, deep, expression):
        dictionary, database = deep
        result = DSeqMiner(expression, 1, dictionary, cluster=ClusterConfig()).mine(database)
        assert list(result.patterns().items()) == self.expected(expression)

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_dcand_miner(self, deep, expression):
        dictionary, database = deep
        result = DCandMiner(expression, 1, dictionary, cluster=ClusterConfig()).mine(database)
        assert list(result.patterns().items()) == self.expected(expression)

    def test_max_patterns_still_raises_at_the_same_count(self, deep):
        dictionary, database = deep
        fst = PatEx("(a)+ a*").compile(dictionary)
        builder = TrieBuilder()
        for length in range(1, self.LENGTH + 1):
            builder.add_run([(1,)] * length)
        nfa = minimized(builder)
        for cap, raises in ((self.LENGTH - 1, True), (self.LENGTH, False)):
            miners = (
                lambda: DesqDfsMiner(fst, dictionary, 1, max_patterns=cap).mine(list(database)),
                lambda: NfaLocalMiner(1, max_patterns=cap).mine([nfa]),
            )
            for mine in miners:
                if raises:
                    with pytest.raises(MiningError, match=f"more than {cap} patterns"):
                        mine()
                else:
                    assert len(mine()) == self.LENGTH
