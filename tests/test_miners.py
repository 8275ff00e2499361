"""End-to-end tests for the distributed miners (D-SEQ, D-CAND, NAÏVE, SEMI-NAÏVE)."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import mine
from repro.core import DCandJob, DCandMiner, DSeqJob, DSeqMiner, NaiveMiner, SemiNaiveMiner
from repro.core.partitioning import pivot_item
from repro.dictionary import build_dictionary
from repro.dictionary.hierarchy import Hierarchy
from repro.errors import MiningError
from repro.fst import generate_candidates
from repro.mapreduce import ClusterConfig
from repro.patex import PatEx
from repro.sequences import SequenceDatabase

from tests.conftest import RUNNING_EXAMPLE_PATEX, weighted
from tests.reference import nfa_candidates


EXPECTED_RUNNING_EXAMPLE = {"a1a1b": 2, "a1Ab": 2, "a1b": 3}

ONE_WORKER = ClusterConfig(num_workers=1)
EIGHT_WORKERS = ClusterConfig(num_workers=8)


def decode_counts(dictionary, result):
    return {"".join(pattern): count for pattern, count in result.decoded(dictionary).items()}


def reference_counts(fst, dictionary, database, sigma):
    counts = Counter()
    for sequence in database:
        counts.update(generate_candidates(fst, sequence, dictionary, sigma=sigma))
    return {p: f for p, f in counts.items() if f >= sigma}


# ---------------------------------------------------------------- partitioning
class TestPartitioning:
    def test_pivot_item(self):
        assert pivot_item((4, 1, 3)) == 4
        with pytest.raises(ValueError):
            pivot_item(())


# ------------------------------------------------------------- running example
class TestRunningExample:
    @pytest.mark.parametrize("algorithm", ["naive", "semi-naive", "dseq", "dcand"])
    def test_paper_result(self, algorithm, ex_dictionary, ex_database):
        result = mine(
            (ex_database, ex_dictionary), RUNNING_EXAMPLE_PATEX, sigma=2, algorithm=algorithm
        )
        assert decode_counts(ex_dictionary, result) == EXPECTED_RUNNING_EXAMPLE

    @pytest.mark.parametrize("sigma,expected_count", [(1, 19), (3, 1), (4, 0)])
    def test_other_sigmas_agree_across_algorithms(
        self, sigma, expected_count, ex_dictionary, ex_database
    ):
        results = [
            mine((ex_database, ex_dictionary), RUNNING_EXAMPLE_PATEX, sigma=sigma, algorithm=a)
            for a in ("naive", "semi-naive", "dseq", "dcand")
        ]
        reference = dict(results[0])
        assert all(dict(result) == reference for result in results)
        assert len(reference) == expected_count

    def test_metrics_populated(self, ex_dictionary, ex_database):
        result = DSeqMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        assert result.metrics.input_records == 5
        assert result.metrics.shuffle_bytes > 0
        assert result.metrics.total_seconds >= 0.0
        assert result.algorithm == "D-SEQ"

    def test_unknown_algorithm(self, ex_dictionary, ex_database):
        with pytest.raises(MiningError):
            mine((ex_database, ex_dictionary), RUNNING_EXAMPLE_PATEX, 2, algorithm="bogus")


# ----------------------------------------------------------------------- D-SEQ
class TestDSeq:
    def test_map_sends_to_fig3_partitions(self, ex_fst, ex_dictionary, ex_database):
        job = DSeqJob(ex_fst, ex_dictionary, sigma=2)
        a1 = ex_dictionary.fid_of("a1")
        c = ex_dictionary.fid_of("c")
        destinations = [
            {key for key, _value in job.map(weighted(sequence))} for sequence in ex_database
        ]
        assert destinations == [{a1, c}, {a1}, set(), set(), {a1}]

    def test_map_rewrites_t2(self, ex_fst, ex_dictionary, ex_database):
        job = DSeqJob(ex_fst, ex_dictionary, sigma=2)
        [(key, value)] = list(job.map(weighted(ex_database[1])))
        assert key == ex_dictionary.fid_of("a1")
        assert ex_dictionary.decode(value) == ("a1", "e", "a1", "e", "b")

    def test_no_rewriting_option_sends_original(self, ex_fst, ex_dictionary, ex_database):
        job = DSeqJob(ex_fst, ex_dictionary, sigma=2, use_rewriting=False)
        [(_key, value)] = list(job.map(weighted(ex_database[1])))
        assert value == ex_database[1]

    @pytest.mark.parametrize(
        "options",
        [
            {"use_grid": False},
            {"use_rewriting": False},
            {"use_early_stopping": False},
            {"use_grid": False, "use_rewriting": False, "use_early_stopping": False},
        ],
    )
    def test_ablation_options_do_not_change_results(
        self, options, ex_dictionary, ex_database
    ):
        baseline = DSeqMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        variant = DSeqMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, **options).mine(
            ex_database
        )
        assert dict(variant) == dict(baseline)

    def test_worker_count_does_not_change_results(self, ex_dictionary, ex_database):
        one = DSeqMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=ONE_WORKER).mine(
            ex_database
        )
        eight = DSeqMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=EIGHT_WORKERS).mine(
            ex_database
        )
        assert dict(one) == dict(eight)

    def test_rewriting_reduces_shuffle(self, ex_dictionary, ex_database):
        with_rewriting = DSeqMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        without = DSeqMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, use_rewriting=False
        ).mine(ex_database)
        assert with_rewriting.metrics.shuffle_bytes <= without.metrics.shuffle_bytes


# ---------------------------------------------------------------------- D-CAND
class TestDCand:
    def test_map_emits_one_nfa_per_pivot(self, ex_fst, ex_dictionary, ex_database):
        job = DCandJob(ex_fst, ex_dictionary, sigma=2)
        a1 = ex_dictionary.fid_of("a1")
        c = ex_dictionary.fid_of("c")
        keys = [key for key, _payload in job.map(weighted(ex_database[0]))]
        assert sorted(keys) == sorted([a1, c])

    def test_map_nfa_contains_pivot_candidates(self, ex_fst, ex_dictionary, ex_database):
        from repro.nfa import deserialize

        job = DCandJob(ex_fst, ex_dictionary, sigma=2)
        payloads = dict(job.map(weighted(ex_database[0])))
        c = ex_dictionary.fid_of("c")
        nfa = deserialize(payloads[c])
        expected = {
            candidate
            for candidate in generate_candidates(
                ex_fst, ex_database[0], ex_dictionary, sigma=2
            )
            if max(candidate) == c
        }
        assert nfa_candidates(nfa) >= expected

    @pytest.mark.parametrize(
        "options",
        [
            {"minimize_nfas": False},
            {"aggregate_nfas": False},
            {"minimize_nfas": False, "aggregate_nfas": False},
        ],
    )
    def test_ablation_options_do_not_change_results(
        self, options, ex_dictionary, ex_database
    ):
        baseline = DCandMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        variant = DCandMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, **options).mine(
            ex_database
        )
        assert dict(variant) == dict(baseline)

    def test_aggregation_reduces_shuffle_records(self, ex_dictionary, ex_database):
        # T2 and T5 send identical NFAs to partition a1 (both generate the same
        # pivot-a1 candidate set); with a single map task the combiner merges
        # them into one weighted record.
        aggregated = DCandMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=ONE_WORKER
        ).mine(ex_database)
        plain = DCandMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, aggregate_nfas=False, cluster=ONE_WORKER
        ).mine(ex_database)
        assert aggregated.metrics.shuffle_records < plain.metrics.shuffle_records

    def test_minimization_reduces_nfa_states(self, ex_fst, ex_dictionary, ex_database):
        from repro.nfa import deserialize

        c = ex_dictionary.fid_of("c")
        minimized_job = DCandJob(ex_fst, ex_dictionary, sigma=2, minimize_nfas=True)
        trie_job = DCandJob(ex_fst, ex_dictionary, sigma=2, minimize_nfas=False)
        minimized_nfa = deserialize(dict(minimized_job.map(weighted(ex_database[0])))[c])
        trie_nfa = deserialize(dict(trie_job.map(weighted(ex_database[0])))[c])
        assert nfa_candidates(minimized_nfa) == nfa_candidates(trie_nfa)
        assert minimized_nfa.num_states < trie_nfa.num_states


# ------------------------------------------------------------------- baselines
class TestBaselines:
    def test_naive_equals_semi_naive_on_example(self, ex_dictionary, ex_database):
        naive = NaiveMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        semi = SemiNaiveMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        assert dict(naive) == dict(semi)

    def test_semi_naive_shuffles_less(self, ex_dictionary, ex_database):
        naive = NaiveMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        semi = SemiNaiveMiner(RUNNING_EXAMPLE_PATEX, 2, ex_dictionary).mine(ex_database)
        assert semi.metrics.shuffle_records <= naive.metrics.shuffle_records
        assert semi.metrics.shuffle_bytes <= naive.metrics.shuffle_bytes

    def test_naive_matches_reference(self, ex_fst, ex_dictionary, ex_database):
        result = NaiveMiner(RUNNING_EXAMPLE_PATEX, 1, ex_dictionary).mine(ex_database)
        assert dict(result) == reference_counts(ex_fst, ex_dictionary, ex_database, 1)


# ----------------------------------------------------------- cross-algorithm QA
class TestCrossAlgorithmConsistency:
    EXPRESSIONS = [
        ".*(A)[(.^)|.]*(b).*",
        ".*(.^)[.{0,1}(.^)]{1,3}.*",
        ".*(.)[.*(.)]{0,2}.*",
        ".*(a1)(.)*(b)?.*",
    ]

    @given(
        st.lists(
            st.lists(st.sampled_from(["a1", "a2", "b", "c", "d"]), min_size=1, max_size=6),
            min_size=2,
            max_size=12,
        ),
        st.sampled_from(EXPRESSIONS),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_algorithms_agree(self, sequences, expression, sigma):
        hierarchy = Hierarchy()
        hierarchy.add_edge("a1", "A")
        hierarchy.add_edge("a2", "A")
        hierarchy.add_item("b")
        dictionary = build_dictionary(sequences, hierarchy)
        database = [dictionary.encode(raw) for raw in sequences]
        fst = PatEx(expression).compile(dictionary)
        reference = reference_counts(fst, dictionary, database, sigma)
        for algorithm in ("semi-naive", "dseq", "dcand"):
            result = mine(
                (SequenceDatabase(database), dictionary), expression, sigma, algorithm=algorithm
            )
            assert dict(result) == reference, algorithm
