"""Microbenchmark: the flat grid vs the reference position–state grid.

Runs the map-side hot path of D-SEQ in isolation — grid construction plus
the per-pivot queries (``pivot_items``, ``rewrite_for_pivot`` bounds, and the
early-stopping oracle) — for the product's
:class:`~repro.core.grid_engine.FlatPivotGrid` and the literal grid of
``tests/reference/grid.py`` over the same prepared dataset, without any cluster or shuffle machinery in the way, and checks that
they extract the same pivots.  The seconds are printed for orientation only:
at these corpus sizes they are fractions of a millisecond per sequence and no
ratio of them is reported.  Speed is judged by ``python3 -m benchmarks.e2e``
(see ``benchmarks/evidence/pr16-grid-pass/``).
"""

from __future__ import annotations

import time

from repro.core import FlatPivotGrid
from repro.core.rewriting import rewrite_for_pivot
from repro.datasets import constraint as make_constraint
from repro.experiments import SCALED_SIGMA, format_table, prepare_dataset
from repro.fst import make_kernel

from benchmarks.conftest import BENCH_SIZES, run_once
from tests.reference import PositionStateGrid

#: The two grids, by the name of their timing column.
GRIDS = {"flat": FlatPivotGrid, "reference": PositionStateGrid}

#: Workloads: one hierarchy-heavy flexible constraint, one gap-shaped one.
WORKLOADS = [
    ("AMZN", make_constraint("A1", SCALED_SIGMA["A1"])),
    ("AMZN-F", make_constraint("T3", SCALED_SIGMA["T3"], 1, 5)),
]

#: Passes over the dataset per engine (amortizes timer noise at tiny scales).
REPEATS = 3


def _time_engine(kernel, sequences, max_frequent_fid, grid) -> tuple[float, int]:
    """Total seconds for grid build + pivot extraction + per-pivot queries."""
    started = time.perf_counter()
    total_pivots = 0
    for _ in range(REPEATS):
        for sequence in sequences:
            built = grid(kernel, sequence, max_frequent_fid=max_frequent_fid)
            pivots = built.pivot_items()
            total_pivots += len(pivots)
            for pivot in pivots:
                rewrite_for_pivot(built, pivot)
                built.last_pivot_producing_position(pivot)
    return time.perf_counter() - started, total_pivots


def measure(sizes):
    rows = []
    for dataset_name, task in WORKLOADS:
        prepared = prepare_dataset(dataset_name, (sizes or {}).get(dataset_name))
        kernel = make_kernel(task.patex().compile(prepared.dictionary), prepared.dictionary)
        max_frequent_fid = prepared.dictionary.largest_frequent_fid(task.sigma)
        sequences = prepared.database.sequences()
        timings = {}
        pivot_counts = {}
        for name, grid in GRIDS.items():
            timings[name], pivot_counts[name] = _time_engine(
                kernel, sequences, max_frequent_fid, grid
            )
        assert pivot_counts["flat"] == pivot_counts["reference"], "engines disagree"
        rows.append(
            {
                "constraint": task.name,
                "dataset": dataset_name,
                "sequences": len(sequences),
                "flat_s": round(timings["flat"], 4),
                "reference_s": round(timings["reference"], 4),
                "pivots": pivot_counts["flat"] // REPEATS,
            }
        )
    return rows


def test_grid_engine_microbenchmark(benchmark):
    rows = run_once(benchmark, measure, BENCH_SIZES)
    print()
    print("Grid-engine microbenchmark: build + pivot extraction per sequence")
    print(format_table(rows))
    # Shape check: both engines extracted (the same) pivots on every workload.
    # No speed is asserted here: tiny datasets make the timings noise.
    for row in rows:
        assert row["pivots"] > 0
        assert row["flat_s"] > 0 and row["reference_s"] > 0

