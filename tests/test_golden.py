"""Golden-file regression tests for the experiment tables and figure data.

The synthetic datasets are seeded, candidate generation is deterministic, and
shuffle byte counts (both the modeled cost and the measured wire bytes) are
pure functions of the data — so these outputs must be bit-identical run over
run.  Timings are *not* snapshotted; every golden entry is stripped down to
its deterministic fields first.

Refresh after an intentional change with ``pytest --update-golden`` and commit
the resulting diff under ``tests/golden/``.
"""

from __future__ import annotations

from repro.experiments import (
    figure9c,
    figure10b,
    table2_dataset_characteristics,
    table4_candidate_statistics,
)
from repro.mapreduce import ClusterConfig

#: Tiny dataset sizes so the golden runs stay fast (and independent of the
#: defaults, which benchmarks may scale).
SIZES = {"NYT": 120, "AMZN": 200, "AMZN-F": 200, "CW": 150}
TWO_WORKERS = ClusterConfig(num_workers=2)

#: Row keys that are deterministic (everything except timings).
FIGURE10B_KEYS = ("constraint", "dataset", "variant", "shuffle_bytes", "patterns")
FIGURE9C_KEYS = (
    "constraint",
    "algorithm",
    "status",
    "shuffle_bytes",
    "wire_bytes",
    "input_pickle_bytes",
)


def pick(rows: list[dict], keys) -> list[dict]:
    return [{key: row[key] for key in keys if key in row} for row in rows]


class TestGoldenTables:
    def test_table2_dataset_characteristics(self, golden):
        golden("table2", table2_dataset_characteristics(SIZES))

    def test_table4_candidate_statistics(self, golden):
        golden("table4", table4_candidate_statistics(SIZES))


class TestGoldenFigures:
    def test_figure9c_shuffle_sizes(self, golden):
        rows = figure9c(size=SIZES["AMZN"], cluster=TWO_WORKERS)
        # Snapshot only the deterministic fields: the modeled and measured
        # byte counts are pure functions of the data, the makespan is not.
        golden("fig9c", pick(rows, FIGURE9C_KEYS))

    def test_figure9c_wire_bytes_depend_on_codec_only(self):
        """Same data, different codec: modeled bytes equal, wire bytes differ."""
        compact = figure9c(size=SIZES["AMZN"], cluster=TWO_WORKERS)
        zlib_rows = figure9c(size=SIZES["AMZN"], cluster=ClusterConfig(num_workers=2, codec="zlib"))
        assert [row["shuffle_bytes"] for row in compact] == [
            row["shuffle_bytes"] for row in zlib_rows
        ]
        assert [row["wire_bytes"] for row in compact] != [
            row["wire_bytes"] for row in zlib_rows
        ]

    def test_figure10b_dcand_ablation(self, golden):
        from repro.datasets import constraint

        rows = figure10b(
            constraints=[("AMZN", constraint("A2", 2))], cluster=TWO_WORKERS, sizes=SIZES
        )
        golden("fig10b", pick(rows, FIGURE10B_KEYS))
