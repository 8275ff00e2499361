"""Tests for the simulated MapReduce substrate."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MapReduceError
from repro.mapreduce import (
    ClusterConfig,
    Counters,
    JobMetrics,
    MapReduceJob,
    PersistentProcessPoolCluster,
    ReduceTaskResult,
    SimulatedCluster,
    make_cluster,
)
from repro.mapreduce.base import InlineExecutor


class WordCountJob(MapReduceJob):
    """Classic word count used as the reference job."""

    use_combiner = True

    def map(self, record):
        for word in record.split():
            yield word, 1

    def combine(self, key, values):
        yield key, sum(values)

    def reduce(self, key, values):
        yield key, sum(values)


class NoCombinerJob(WordCountJob):
    use_combiner = False


class TestSimulatedCluster:
    RECORDS = ["a b a", "b c", "a", "c c c"]

    def test_word_count_output(self):
        result = SimulatedCluster(num_workers=2).run(WordCountJob(), self.RECORDS)
        assert dict(result.outputs) == {"a": 3, "b": 2, "c": 4}

    def test_output_independent_of_worker_count(self):
        def outputs(workers):
            return dict(SimulatedCluster(num_workers=workers).run(WordCountJob(), self.RECORDS).outputs)

        expected = outputs(1)
        for workers in (2, 3, 8):
            assert outputs(workers) == expected

    def test_combiner_reduces_shuffle_records(self):
        with_combiner = SimulatedCluster(num_workers=1).run(WordCountJob(), self.RECORDS)
        without = SimulatedCluster(num_workers=1).run(NoCombinerJob(), self.RECORDS)
        assert dict(with_combiner.outputs) == dict(without.outputs)
        assert with_combiner.metrics.shuffle_records < without.metrics.shuffle_records
        assert with_combiner.metrics.shuffle_bytes < without.metrics.shuffle_bytes

    def test_map_tasks_match_worker_count(self):
        result = SimulatedCluster(num_workers=2).run(WordCountJob(), self.RECORDS)
        assert len(result.metrics.map_task_seconds) == 2

    def test_empty_input(self):
        result = SimulatedCluster(num_workers=4).run(WordCountJob(), [])
        assert result.outputs == []
        assert result.metrics.input_records == 0

    def test_metrics_counts(self):
        result = SimulatedCluster(num_workers=2).run(WordCountJob(), self.RECORDS)
        metrics = result.metrics
        assert metrics.input_records == 4
        assert metrics.output_records == 3
        assert metrics.map_output_records == 9  # one per word occurrence
        assert metrics.shuffle_records == metrics.combined_records
        assert metrics.shuffle_bytes > 0

    def test_invalid_worker_count(self):
        with pytest.raises(MapReduceError):
            SimulatedCluster(num_workers=0)

    def test_custom_record_size(self):
        class SizedJob(WordCountJob):
            def record_size(self, key, value):
                return 100

        result = SimulatedCluster(num_workers=1).run(SizedJob(), ["a b"])
        assert result.metrics.shuffle_bytes == 100 * result.metrics.shuffle_records

    def test_reduce_tasks_default_overpartitioning(self):
        cluster = SimulatedCluster(num_workers=3)
        assert cluster.num_reduce_tasks == 12

    @given(
        st.lists(
            st.lists(st.sampled_from("abcdef"), min_size=0, max_size=6).map(" ".join),
            min_size=0,
            max_size=20,
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_word_count_matches_reference(self, records, workers):
        from collections import Counter

        expected = Counter(word for record in records for word in record.split())
        observed = SimulatedCluster(num_workers=workers).run(WordCountJob(), records)
        assert dict(observed.outputs) == dict(expected)


class TestJobMetrics:
    def test_total_is_map_plus_reduce_makespan(self):
        metrics = JobMetrics(
            num_workers=2,
            map_task_seconds=[1.0, 3.0],
            reduce_task_seconds=[2.0, 1.0],
        )
        assert metrics.map_seconds == 3.0
        assert metrics.reduce_seconds == 2.0
        assert metrics.total_seconds == 5.0
        assert metrics.sequential_seconds == 7.0

    def test_empty_metrics(self):
        metrics = JobMetrics()
        assert metrics.total_seconds == 0.0
        assert metrics.combine_ratio == 0.0

    def test_combine_ratio(self):
        metrics = JobMetrics(map_output_records=10, combined_records=4)
        assert metrics.combine_ratio == pytest.approx(0.6)

    def test_as_dict_keys(self):
        keys = set(JobMetrics().as_dict())
        assert {"total_seconds", "shuffle_bytes", "map_seconds", "reduce_seconds"} <= keys

    def test_as_dict_shows_every_counter(self):
        names = [counter.name for counter in fields(Counters)]
        metrics = JobMetrics(**{name: 100 + index for index, name in enumerate(names)})
        view = metrics.as_dict()
        for index, name in enumerate(names):
            assert view[name] == 100 + index, name

    def test_inline_reduce_times_follow_the_lpt_schedule(self):
        # Longest first: the 2 s task gets a worker of its own and the two
        # 1 s tasks share the other, so the modelled stage takes 2 s, not 3.
        results = [ReduceTaskResult(seconds=seconds) for seconds in (1.0, 1.0, 2.0)]
        loads = InlineExecutor.worker_times(results, 2)
        assert sorted(loads) == [2.0, 2.0]
        assert JobMetrics(num_workers=2, reduce_task_seconds=loads).reduce_seconds == 2.0

    def test_default_record_size_positive(self):
        job = MapReduceJob()
        assert job.record_size(("k",), (1, 2, 3)) > 0


class StampingExecutor(InlineExecutor):
    """The inline executor, except that the n-th task result it reports
    carries the counters ``stamp(n)`` instead of its own."""

    def __init__(self, stamp) -> None:
        self.stamp = stamp
        self.stamped: list[Counters] = []

    @contextmanager
    def scope(self, cluster, records, job, run_dir):
        with super().scope(cluster, records, job, run_dir) as (chunks, task_job, execute):

            def stamping(tasks, fail_fast=True):
                outcome = execute(tasks, fail_fast)
                for result in outcome.results.values():
                    result.counters = self.stamp(len(self.stamped))
                    self.stamped.append(result.counters)
                return outcome

            yield chunks, task_job, stamping


class TestCounterFold:
    RECORDS = TestSimulatedCluster.RECORDS

    def run(self, stamp) -> tuple[StampingExecutor, JobMetrics]:
        cluster = SimulatedCluster(num_workers=2)
        cluster.executor = executor = StampingExecutor(stamp)
        return executor, cluster.run(WordCountJob(), self.RECORDS).metrics

    def test_the_driver_folds_every_counter_by_field(self):
        names = [counter.name for counter in fields(Counters)]
        # What the driver counts itself (input shipping, retries), with
        # every task reporting zeros ...
        _executor, own = self.run(lambda _n: Counters())
        # ... plus, field by field, the sum of what the tasks report.
        executor, folded = self.run(
            lambda n: Counters(**{name: 1000 * (n + 1) + i for i, name in enumerate(names)})
        )
        assert len(executor.stamped) > 2  # the map and the reduce results
        for name in names:
            total = sum(getattr(counters, name) for counters in executor.stamped)
            assert getattr(folded, name) == getattr(own, name) + total, name


class TestClusterConfig:
    """One value object configures the whole execution substrate."""

    def test_replace_is_the_one_way_to_vary_a_config(self):
        config = ClusterConfig(backend="multihost", codec="zlib")
        varied = replace(config, num_workers=9, max_task_attempts=1)
        assert (varied.backend, varied.codec, varied.num_workers) == ("multihost", "zlib", 9)
        assert varied.max_task_attempts == 1
        assert config.num_workers is None and config.max_task_attempts == 2  # untouched

    def test_backend_instances_pass_through_build(self):
        instance = PersistentProcessPoolCluster(num_workers=2)
        assert ClusterConfig(backend=instance).build() is instance

    def test_build_makes_a_matching_cluster(self):
        cluster = ClusterConfig(
            backend="persistent-processes", num_workers=3, codec="zlib"
        ).build()
        assert isinstance(cluster, PersistentProcessPoolCluster)
        assert cluster.num_workers == 3

    def test_make_cluster_takes_no_config(self):
        with pytest.raises(MapReduceError, match="unknown execution backend"):
            make_cluster(ClusterConfig(backend="simulated"))
