"""Tests for the partition-balance analysis (Sec. III-B's balance claim)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DCandMiner,
    DSeqMiner,
    PartitionBalance,
    dcand_partition_balance,
    dseq_partition_balance,
    measure_partition_balance,
)
from repro.core.dcand import DCandJob
from repro.core.dseq import DSeqJob
from repro.errors import MiningError
from repro.mapreduce import ClusterConfig, MapReduceJob, lpt_worker_loads
from repro.patex import PatEx
from repro.sequences import SequenceDatabase, as_mining_records

from tests.conftest import RUNNING_EXAMPLE_PATEX, weighted


class _WordCountJob(MapReduceJob):
    """A tiny job used to test the generic balance measurement."""

    use_combiner = True

    def map(self, record):
        for item in record:
            yield item, 1

    def combine(self, key, values):
        yield key, sum(values)

    def reduce(self, key, values):
        yield key, sum(values)

    def record_size(self, key, value):
        return 10


# ----------------------------------------------------------- generic measuring
class TestMeasurePartitionBalance:
    def test_word_count_with_combiner(self):
        balance = measure_partition_balance(_WordCountJob(), [(1, 1, 2), (2, 3)])
        # With the combiner, each key contributes exactly one 10-byte record.
        assert balance.records_by_partition == {1: 1, 2: 1, 3: 1}
        assert balance.bytes_by_partition == {1: 10, 2: 10, 3: 10}
        assert balance.total_bytes == 30
        assert balance.total_records == 3

    def test_word_count_without_combiner(self):
        balance = measure_partition_balance(
            _WordCountJob(), [(1, 1, 2), (2, 3)], use_combiner=False
        )
        assert balance.records_by_partition == {1: 2, 2: 2, 3: 1}
        assert balance.total_records == 5

    def test_empty_input(self):
        balance = measure_partition_balance(_WordCountJob(), [])
        assert balance.num_partitions == 0
        assert balance.total_bytes == 0
        assert balance.imbalance == 1.0
        assert balance.gini() == 0.0
        assert balance.histogram() == []


# ------------------------------------------------------------------ statistics
class TestPartitionBalanceStatistics:
    def make(self, sizes: dict) -> PartitionBalance:
        return PartitionBalance(
            bytes_by_partition=dict(sizes),
            records_by_partition={key: 1 for key in sizes},
        )

    def test_perfectly_balanced(self):
        balance = self.make({1: 100, 2: 100, 3: 100, 4: 100})
        assert balance.imbalance == pytest.approx(1.0)
        assert balance.gini() == pytest.approx(0.0)

    def test_skewed(self):
        balance = self.make({1: 1000, 2: 10, 3: 10, 4: 10})
        assert balance.imbalance == pytest.approx(1000 / 257.5)
        assert balance.gini() > 0.5
        assert balance.max_bytes == 1000
        assert balance.mean_bytes == pytest.approx(257.5)

    def test_top(self):
        balance = self.make({5: 50, 2: 200, 9: 10})
        assert balance.top(2) == [(2, 200, 1), (5, 50, 1)]

    def test_top_decodes_fids(self, ex_dictionary):
        pivot_b = ex_dictionary.fid_of("b")
        pivot_c = ex_dictionary.fid_of("c")
        balance = self.make({pivot_b: 10, pivot_c: 90})
        assert balance.top(2, ex_dictionary) == [("c", 90, 1), ("b", 10, 1)]

    def test_histogram_is_logarithmic(self):
        balance = self.make({1: 1, 2: 3, 3: 5, 4: 200})
        histogram = balance.histogram()
        # Bins: [1,1] -> 1 partition, [2,3] -> 1, [4,7] -> 1, [128,255] -> 1.
        assert histogram == [(1, 1, 1), (2, 3, 1), (4, 7, 1), (128, 255, 1)]

    def test_histogram_truncation_keeps_largest_bins(self):
        # Regression: truncation used to keep ``rows[:num_bins]``, silently
        # dropping the *largest* bins — the straggler partitions the
        # histogram exists to show.  14 octaves with one partition each:
        balance = self.make({index: 2**index for index in range(14)})
        full = balance.histogram(num_bins=0)
        assert len(full) == 14
        truncated = balance.histogram()
        assert len(truncated) == 10
        # The largest bins survive; the smallest are the ones dropped.
        assert truncated == full[-10:]
        assert truncated[-1] == (2**13, 2**14 - 1, 1)
        assert (1, 1, 1) not in truncated

    def test_largest_worker_share(self):
        balance = self.make({1: 4, 2: 3, 3: 2, 4: 1})
        # Greedy LPT on 2 workers: {4,1} vs {3,2} -> perfectly split.
        assert balance.largest_worker_share(2) == pytest.approx(0.5)
        assert balance.largest_worker_share(1) == pytest.approx(1.0)

    def test_largest_worker_share_rejects_bad_worker_count(self):
        with pytest.raises(MiningError):
            self.make({1: 1}).largest_worker_share(0)

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 10_000), max_size=30),
        num_workers=st.integers(1, 6),
    )
    def test_heap_lpt_matches_quadratic_reference(self, sizes, num_workers):
        # The heap-based LPT must reproduce the historical quadratic scan
        # exactly, including its lowest-index tie-breaking.
        reference = [0] * num_workers
        for size in sorted(sizes, reverse=True):
            reference[reference.index(min(reference))] += size
        assert lpt_worker_loads(sizes, num_workers) == reference

    def test_as_dict_keys(self):
        summary = self.make({1: 10, 2: 30}).as_dict()
        assert summary["partitions"] == 2
        assert summary["total_bytes"] == 40
        assert summary["imbalance"] == 1.5

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.integers(1, 50), st.integers(0, 10_000), min_size=1))
    def test_gini_is_between_zero_and_one(self, sizes):
        balance = self.make(sizes)
        assert 0.0 <= balance.gini() <= 1.0
        assert balance.imbalance >= 1.0 or balance.total_bytes == 0


# -------------------------------------------------------- algorithm-level APIs
class TestAlgorithmBalance:
    def test_dseq_balance_on_running_example(self, ex_dictionary, ex_database):
        balance = dseq_partition_balance(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, ex_database
        )
        # With σ=2 the pivot partitions are exactly a1 and c (Fig. 3).
        expected_keys = {ex_dictionary.fid_of("a1"), ex_dictionary.fid_of("c")}
        assert set(balance.bytes_by_partition) == expected_keys
        assert balance.total_bytes > 0

    def test_dcand_balance_on_running_example(self, ex_dictionary, ex_database):
        balance = dcand_partition_balance(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, ex_database
        )
        expected_keys = {ex_dictionary.fid_of("a1"), ex_dictionary.fid_of("c")}
        assert set(balance.bytes_by_partition) == expected_keys

    def test_balance_bytes_match_cluster_shuffle(self, ex_dictionary, ex_database):
        """The balance measurement agrees with the cluster's shuffle accounting."""
        miner = DSeqMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=ClusterConfig(num_workers=1)
        )
        result = miner.mine(ex_database)
        balance = measure_partition_balance(
            DSeqJob(
                miner.patex.compile(ex_dictionary), ex_dictionary, 2
            ),
            as_mining_records(ex_database),
        )
        assert balance.total_bytes == result.metrics.shuffle_bytes

    def test_balance_matches_shuffle_on_duplicated_corpus(self, ex_dictionary, ex_database):
        """Regression: the measurement must map what live miners map.

        Live miners map the weighted ``unique_view()`` records (corpus-level
        dedup); replaying the *raw* records instead overstates the shuffle on
        any corpus with duplicate sequences.  Triplicate the running example
        so the two record views genuinely diverge.
        """
        database = SequenceDatabase([list(sequence) for sequence in ex_database] * 3)
        miner = DSeqMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=ClusterConfig(num_workers=1)
        )
        shuffle_bytes = miner.mine(database).metrics.shuffle_bytes
        deduped = dseq_partition_balance(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, database
        )
        assert deduped.total_bytes == shuffle_bytes

    def test_dcand_balance_matches_shuffle_without_combiner(
        self, ex_dictionary, ex_database
    ):
        """Same agreement for D-CAND with NFA aggregation (the combiner) off."""
        database = SequenceDatabase([list(sequence) for sequence in ex_database] * 3)
        miner = DCandMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, aggregate_nfas=False,
            cluster=ClusterConfig(num_workers=1),
        )
        shuffle_bytes = miner.mine(database).metrics.shuffle_bytes
        balance = dcand_partition_balance(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, database, aggregate_nfas=False
        )
        assert balance.total_bytes == shuffle_bytes
        # Without a combiner nothing re-collapses replayed duplicates, so
        # measuring the *raw* records (the pre-dedup behaviour: every input
        # sequence mapped as a weight-1 record) overstates the shuffle — the
        # regression this fixture pins down.
        raw = measure_partition_balance(
            DCandJob(
                PatEx(RUNNING_EXAMPLE_PATEX).compile(ex_dictionary), ex_dictionary, 2,
                aggregate_nfas=False,
            ),
            [weighted(sequence) for sequence in database],
        )
        assert raw.total_bytes > shuffle_bytes
        assert raw.total_records == 3 * balance.total_records

    def test_frequency_order_balances_partitions(self, ex_dictionary, ex_database):
        """The most frequent pivot item receives the least data (Sec. III-B)."""
        balance = dseq_partition_balance(
            RUNNING_EXAMPLE_PATEX, 1, ex_dictionary, ex_database
        )
        sizes = balance.bytes_by_partition
        pivot_b = ex_dictionary.fid_of("b")
        if pivot_b in sizes:
            assert sizes[pivot_b] <= max(sizes.values())
