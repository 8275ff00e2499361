"""Tests for the simulated MapReduce substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MapReduceError
from repro.mapreduce import (
    ClusterConfig,
    JobMetrics,
    MapReduceJob,
    SimulatedCluster,
    ThreadPoolCluster,
    make_cluster,
)


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

    def test_default_record_size_positive(self):
        job = MapReduceJob()
        assert job.record_size(("k",), (1, 2, 3)) > 0


class TestClusterConfig:
    """One value object configures the whole execution substrate."""

    def test_resolve_from_legacy_keywords(self):
        config = ClusterConfig.resolve(
            None, backend="threads", num_workers=3, codec="zlib",
            spill_budget_bytes=64, grid="legacy",
        )
        assert config.backend == "threads"
        assert config.num_workers == 3
        assert config.codec == "zlib"
        assert config.spill_budget_bytes == 64
        assert config.grid_name == "legacy"

    def test_resolve_passes_configs_through(self):
        config = ClusterConfig(backend="persistent-processes", num_workers=2)
        assert ClusterConfig.resolve(config, backend="threads") is config

    def test_explicit_grid_overrides_a_provided_config(self):
        # miner(..., cluster=config, grid="legacy") must reliably pick the
        # reference grid even though the config otherwise wins.
        config = ClusterConfig(backend="simulated")
        resolved = ClusterConfig.resolve(config, grid="legacy")
        assert resolved.grid_name == "legacy"
        assert config.grid is None  # the original is untouched
        pinned = ClusterConfig(backend="simulated", grid="flat")
        assert ClusterConfig.resolve(pinned, grid="legacy").grid_name == "legacy"
        assert ClusterConfig.resolve(pinned).grid_name == "flat"

    def test_cluster_construction_rejects_unknown_grids(self):
        from repro.errors import MiningError

        with pytest.raises(MiningError, match="unknown grid engine"):
            make_cluster("threads", grid="jit")

    def test_resolve_wraps_backend_names_and_instances(self):
        named = ClusterConfig.resolve("threads", codec="zlib")
        assert named.backend == "threads" and named.codec == "zlib"
        instance = ThreadPoolCluster(num_workers=2)
        wrapped = ClusterConfig.resolve(instance)
        assert wrapped.backend is instance
        assert wrapped.build() is instance

    def test_grid_name_defaults_and_inherits_from_cluster_instances(self):
        assert ClusterConfig().grid_name == "flat"
        cluster = SimulatedCluster(num_workers=1, grid="legacy")
        assert ClusterConfig(backend=cluster).grid_name == "legacy"
        assert ClusterConfig(backend=cluster, grid="flat").grid_name == "flat"

    def test_build_makes_a_matching_cluster(self):
        cluster = ClusterConfig(
            backend="threads", num_workers=3, codec="zlib", grid="legacy"
        ).build()
        assert isinstance(cluster, ThreadPoolCluster)
        assert cluster.num_workers == 3
        assert cluster.grid == "legacy"

    def test_make_cluster_takes_no_config(self):
        with pytest.raises(MapReduceError, match="unknown execution backend"):
            make_cluster(ClusterConfig(backend="simulated"))

    def test_merged_replaces_fields(self):
        config = ClusterConfig(backend="threads").merged(num_workers=9)
        assert config.backend == "threads"
        assert config.num_workers == 9
