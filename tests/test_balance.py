"""Tests for the partition-balance analysis (Sec. III-B's balance claim)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DCandMiner,
    DSeqMiner,
    PartitionBalance,
    PartitionPlan,
    dcand_partition_balance,
    dseq_partition_balance,
    estimate_partition_loads,
    measure_partition_balance,
    plan_job_partitions,
    plan_partitions,
)
from repro.core.dseq import DSeqJob
from repro.errors import MiningError
from repro.mapreduce import ClusterConfig, MapReduceJob, lpt_worker_loads, stable_hash
from repro.sequences import SequenceDatabase, as_mining_records

from tests.conftest import RUNNING_EXAMPLE_PATEX


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
            as_mining_records(ex_database, dedup=True),
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
        # measuring the *raw* records (the pre-dedup behaviour) overstates
        # the shuffle — the regression this fixture pins down.
        raw = dcand_partition_balance(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, database,
            aggregate_nfas=False, dedup=False,
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


# -------------------------------------------------------------------- planning
def hash_bucket_loads(loads_by_key: dict, num_reduce_tasks: int) -> list[int]:
    """Per-bucket bytes under the reference ``stable_hash`` assignment."""
    loads = [0] * num_reduce_tasks
    for key, size in loads_by_key.items():
        loads[stable_hash(key) % num_reduce_tasks] += size
    return loads


class TestPartitionPlanning:
    def test_plan_partitions_packs_largest_first(self):
        plan = plan_partitions({1: 100, 2: 50, 3: 50}, 2)
        assert plan.table == {1: 0, 2: 1, 3: 1}
        assert plan.loads == (100, 100)
        assert plan.num_planned_keys == 3
        assert plan.estimated_total_bytes == 200
        assert plan.estimated_max_bytes == 100
        assert plan.estimated_imbalance == pytest.approx(1.0)

    def test_plan_partitions_rejects_bad_bucket_count(self):
        with pytest.raises(MiningError):
            plan_partitions({1: 10}, 0)

    def test_lookup_returns_none_for_unplanned_keys(self):
        plan = plan_partitions({1: 10}, 4)
        assert plan.lookup(1) == 0
        assert plan.lookup(99) is None

    def test_job_partition_consults_plan_and_falls_back(self):
        job = _WordCountJob()
        plan = plan_partitions({"heavy": 100, "light": 1}, 8)
        job.partition_plan = plan
        assert job.partition("heavy", 8) == plan.table["heavy"]
        assert job.partition("light", 8) == plan.table["light"]
        # Unplanned keys fall back to the stable hash, so a sampled (partial)
        # plan still routes every record somewhere deterministic.
        assert job.partition("unseen", 8) == stable_hash("unseen") % 8
        # A plan that routes a key out of the job's actual bucket range is
        # ignored for that key (the stable hash takes over).
        job.partition_plan = PartitionPlan(num_reduce_tasks=16, table={"heavy": 12})
        assert job.partition("heavy", 8) == stable_hash("heavy") % 8

    def test_planned_beats_hash_on_skewed_loads(self):
        # A zipf-ish pivot distribution: a few heavy pivots, a long tail.
        loads = {key: 36_000 // key for key in range(1, 60)}
        plan = plan_partitions(loads, 8)
        hash_max = max(hash_bucket_loads(loads, 8))
        assert plan.estimated_max_bytes <= hash_max
        assert plan.estimated_total_bytes == sum(loads.values())

    @settings(max_examples=100, deadline=None)
    @given(
        loads=st.dictionaries(st.integers(0, 1000), st.integers(0, 100_000), min_size=1),
        num_reduce_tasks=st.integers(1, 16),
    )
    def test_planned_max_is_never_far_from_hash(self, loads, num_reduce_tasks):
        """LPT is a 4/3-approximation of the optimal makespan.

        ``planned <= hash`` is *not* a theorem (a lucky hash layout can beat
        the greedy plan on adversarial loads), but LPT's worst case is within
        4/3 of the optimum, and the hash assignment can only be worse than
        optimal — so the planned maximum is always within 4/3 of the hash
        maximum, and always at least the largest single key.
        """
        plan = plan_partitions(loads, num_reduce_tasks)
        hash_max = max(hash_bucket_loads(loads, num_reduce_tasks))
        assert plan.estimated_max_bytes <= (4 / 3) * hash_max + 1
        assert plan.estimated_max_bytes >= max(loads.values(), default=0)
        assert plan.estimated_total_bytes == sum(loads.values())
        assert set(plan.table) == set(loads)
        assert all(0 <= bucket < num_reduce_tasks for bucket in plan.table.values())

    def test_estimate_partition_loads_matches_measurement(self):
        job = _WordCountJob()
        records = [(1, 1, 2), (2, 3)]
        loads = estimate_partition_loads(job, records)
        assert loads == measure_partition_balance(job, records).bytes_by_partition

    def test_estimate_partition_loads_sampling(self):
        job = _WordCountJob()
        records = [(1,), (2,), (1,), (2,)]
        assert estimate_partition_loads(job, records) == {1: 10, 2: 10}
        # sample=0.5 -> stride 2: only records 0 and 2 (both key 1) are mapped.
        assert estimate_partition_loads(job, records, sample=0.5) == {1: 10}
        with pytest.raises(MiningError):
            estimate_partition_loads(job, records, sample=0.0)
        with pytest.raises(MiningError):
            estimate_partition_loads(job, records, sample=1.5)

    def test_sampling_works_over_store_backed_records(self):
        """The estimation pass must accept record views that reject strided
        slicing (the persistent backends' store slices)."""
        from repro.sequences.store import EncodedSequenceStore

        job = _WordCountJob()
        store = EncodedSequenceStore.from_sequences([(1,), (2,), (1,), (2,)])
        try:
            assert estimate_partition_loads(job, store, sample=0.5) == {1: 10}
            assert estimate_partition_loads(
                job, store.slice(0, len(store)), sample=0.5
            ) == {1: 10}
        finally:
            store.close()

    def test_plan_sample_knob_keeps_patterns_byte_identical(
        self, ex_dictionary, ex_database
    ):
        """``ClusterConfig(plan_sample=...)`` may change the plan, never the mining."""
        results = {
            sample: DSeqMiner(
                RUNNING_EXAMPLE_PATEX, 2, ex_dictionary,
                cluster=ClusterConfig(
                    num_workers=2, partitioner="planned", plan_sample=sample
                ),
            ).mine(ex_database)
            for sample in (None, 0.5)
        }
        full, sampled = results[None], results[0.5]
        assert sampled.patterns() == full.patterns()
        assert sampled.metrics.shuffle_bytes == full.metrics.shuffle_bytes
        assert sampled.metrics.shuffle_records == full.metrics.shuffle_records
        assert sampled.metrics.partitioner == "planned"

    def test_plan_job_partitions_on_running_example(self, ex_dictionary, ex_database):
        miner = DSeqMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary, cluster=ClusterConfig(num_workers=1)
        )
        job = DSeqJob(miner.patex.compile(ex_dictionary), ex_dictionary, 2)
        records = as_mining_records(ex_database, dedup=True)
        plan = plan_job_partitions(job, records, 4)
        # With σ=2 the pivots are exactly a1 and c (Fig. 3); both get a bucket.
        expected_keys = {ex_dictionary.fid_of("a1"), ex_dictionary.fid_of("c")}
        assert set(plan.table) == expected_keys
        assert plan.num_reduce_tasks == 4
        assert plan.estimated_total_bytes == sum(
            estimate_partition_loads(job, records).values()
        )

    def test_planned_mining_reduces_modeled_imbalance(self, ex_dictionary):
        """On a skewed corpus the planner's modeled imbalance <= the hash's."""
        import random

        rng = random.Random(7)
        # Zipf-ish item weights over the Fig. 2 leaves: the heavy items
        # dominate a few pivot partitions, the regime the planner targets.
        vocabulary = ["a1", "a1", "a1", "a2", "a2", "b", "b", "c", "d", "e"]
        sequences = [
            [rng.choice(vocabulary) for _ in range(rng.randint(2, 8))]
            for _ in range(120)
        ]
        database = SequenceDatabase(
            [ex_dictionary.encode(sequence) for sequence in sequences]
        )
        results = {
            partitioner: DSeqMiner(
                RUNNING_EXAMPLE_PATEX, 2, ex_dictionary,
                cluster=ClusterConfig(num_workers=4, partitioner=partitioner),
            ).mine(database)
            for partitioner in ("hash", "planned")
        }
        hash_metrics = results["hash"].metrics
        planned_metrics = results["planned"].metrics
        assert results["planned"].patterns() == results["hash"].patterns()
        assert planned_metrics.partitioner == "planned"
        assert hash_metrics.partitioner == "hash"
        assert planned_metrics.shuffle_bytes == hash_metrics.shuffle_bytes
        assert planned_metrics.partition_imbalance <= hash_metrics.partition_imbalance
        assert (
            planned_metrics.modeled_straggler_seconds
            <= hash_metrics.modeled_straggler_seconds
        )


class TestJobPlanner:
    """The per-miner plan cache: estimate once, replay everywhere."""

    def test_repeated_mine_calls_estimate_once(
        self, ex_dictionary, ex_database, monkeypatch
    ):
        """Two mine() calls over one corpus share a single estimation pass."""
        import repro.core.balance as balance

        calls: list[str] = []
        real = balance.plan_job_partitions

        def spy(job, records, num_reduce_tasks, **kwargs):
            calls.append(type(job).__name__)
            return real(job, records, num_reduce_tasks, **kwargs)

        monkeypatch.setattr(balance, "plan_job_partitions", spy)
        miner = DSeqMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary,
            cluster=ClusterConfig(num_workers=2, partitioner="planned"),
        )
        first = miner.mine(ex_database)
        after_first = len(calls)
        assert after_first == 1  # one job, one estimation
        second = miner.mine(ex_database)
        assert len(calls) == after_first  # cache hit: the plan is replayed
        assert second.patterns() == first.patterns()
        assert second.metrics.partitioner == "planned"
        # The cached plan is literally the same object across calls.
        planner = miner._job_planner
        assert len(planner._plans) == 1

    def test_distinct_corpora_get_their_own_plans(
        self, ex_dictionary, ex_database, monkeypatch
    ):
        import repro.core.balance as balance

        calls: list[str] = []
        real = balance.plan_job_partitions

        def spy(job, records, num_reduce_tasks, **kwargs):
            calls.append(type(job).__name__)
            return real(job, records, num_reduce_tasks, **kwargs)

        monkeypatch.setattr(balance, "plan_job_partitions", spy)
        miner = DSeqMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary,
            cluster=ClusterConfig(num_workers=2, partitioner="planned"),
        )
        miner.mine(ex_database)
        other = SequenceDatabase([list(sequence) * 2 for sequence in ex_database])
        miner.mine(other)
        assert len(calls) == 2  # a different corpus is a different cache key

    def test_hash_partitioner_never_estimates(
        self, ex_dictionary, ex_database, monkeypatch
    ):
        import repro.core.balance as balance

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("hash-partitioned mining must not plan")

        monkeypatch.setattr(balance, "plan_job_partitions", boom)
        miner = DSeqMiner(
            RUNNING_EXAMPLE_PATEX, 2, ex_dictionary,
            cluster=ClusterConfig(num_workers=2, partitioner="hash"),
        )
        result = miner.mine(ex_database)
        assert result.metrics.partitioner == "hash"
        assert not hasattr(miner, "_job_planner")
