"""Tests for the experiment harness (small-scale runs of each experiment)."""

from __future__ import annotations

import pytest

from repro.datasets import constraint
from repro.experiments import (
    candidate_statistics,
    figure10a,
    figure10b,
    figure11_scalability,
    format_table,
    human_bytes,
    prepare_dataset,
    run_algorithm,
    run_comparison,
    table2_dataset_characteristics,
)
from repro.errors import MiningError
from repro.mapreduce import ClusterConfig

#: Tiny dataset sizes so these tests stay fast.
TINY = {"NYT": 120, "AMZN": 200, "AMZN-F": 200, "CW": 150}
TWO_WORKERS = ClusterConfig(num_workers=2)


class TestPrepareDataset:
    def test_prepare_and_cache(self):
        first = prepare_dataset("AMZN", TINY["AMZN"])
        second = prepare_dataset("AMZN", TINY["AMZN"])
        assert first is second  # lru_cache
        assert first.size == TINY["AMZN"]

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            prepare_dataset("XYZ", 10)


class TestHarness:
    def test_run_algorithm_record(self):
        prepared = prepare_dataset("AMZN", TINY["AMZN"])
        record = run_algorithm(
            "dseq", constraint("A2", 2), prepared.dictionary, prepared.database,
            cluster=TWO_WORKERS, dataset_name="AMZN",
        )
        assert record.status == "ok"
        assert record.algorithm == "dseq"
        assert record.metrics.total_seconds >= 0
        assert record.as_row()["patterns"] == record.num_patterns

    def test_run_comparison_alignment(self):
        prepared = prepare_dataset("AMZN", TINY["AMZN"])
        records = run_comparison(
            ["semi-naive", "dseq", "dcand"], constraint("A2", 2),
            prepared.dictionary, prepared.database, cluster=TWO_WORKERS,
        )
        counts = {record.num_patterns for record in records if record.status == "ok"}
        assert len(counts) == 1

    def test_run_algorithm_rejects_unknown(self):
        prepared = prepare_dataset("AMZN", TINY["AMZN"])
        with pytest.raises(MiningError, match="unknown algorithm"):
            run_algorithm("nope", constraint("A2", 2), prepared.dictionary, prepared.database)

    @pytest.mark.parametrize(
        "algorithm",
        ["naive", "semi-naive", "dseq", "dcand", "desq-dfs", "desq-count", "lash", "prefixspan"],
    )
    def test_run_algorithm_all_algorithms(self, algorithm):
        prepared = prepare_dataset("AMZN", TINY["AMZN"])
        task = constraint("T3", 3, 1, 4) if algorithm == "lash" else constraint("T1", 3, 4)
        record = run_algorithm(
            algorithm, task, prepared.dictionary, prepared.database, cluster=TWO_WORKERS
        )
        assert record.status == "ok" and record.num_patterns > 0

    def test_oom_reporting(self):
        # An extremely loose constraint with a tiny cap reports "oom" rather
        # than crashing (the paper's out-of-memory analogue).
        prepared = prepare_dataset("CW", TINY["CW"])
        record = run_algorithm(
            "dcand", constraint("T1", 2, 5), prepared.dictionary, prepared.database,
            cluster=TWO_WORKERS, dataset_name="CW", max_runs=50,
        )
        assert record.status in ("ok", "oom")


class TestTables:
    def test_table2(self):
        rows = table2_dataset_characteristics(TINY)
        assert len(rows) == 4
        assert {row["dataset"] for row in rows} == {"NYT", "AMZN", "AMZN-F", "CW"}

    def test_candidate_statistics_selective_vs_loose(self):
        prepared = prepare_dataset("NYT", TINY["NYT"])
        selective = candidate_statistics(prepared, constraint("N1", 2))
        loose = candidate_statistics(prepared, constraint("N4", 2))
        assert loose["cspi_mean"] >= selective["cspi_mean"]
        assert 0 <= selective["matched_pct"] <= 100


class TestFigures:
    def test_figure10a_variants_consistent(self):
        rows = figure10a(
            constraints=[("AMZN", constraint("A2", 2))], cluster=TWO_WORKERS, sizes=TINY
        )
        assert len(rows) == 4
        assert len({row["patterns"] for row in rows}) == 1

    def test_figure10b_variants_consistent(self):
        rows = figure10b(
            constraints=[("AMZN", constraint("A2", 2))], cluster=TWO_WORKERS, sizes=TINY
        )
        assert len(rows) == 3
        completed = [row for row in rows if row["total_s"] != "oom"]
        assert len({row["patterns"] for row in completed}) == 1

    def test_figure11_shapes(self):
        results = figure11_scalability(
            base_size=TINY["AMZN-F"], fractions=(0.5, 1.0), worker_counts=(2, 4),
            base_sigma=4,
        )
        assert set(results) == {"data", "strong", "weak"}
        assert len(results["data"]) == 2
        assert len(results["strong"]) == 2
        assert len(results["weak"]) == 2


class TestReporting:
    def test_format_table(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        rendered = format_table(rows)
        assert "a" in rendered and "22" in rendered
        assert format_table([]) == "(no rows)"

    def test_human_bytes(self):
        assert human_bytes(512) == "512.0 B"
        assert human_bytes(2048) == "2.0 KiB"
        assert "MiB" in human_bytes(5 * 1024 * 1024)
