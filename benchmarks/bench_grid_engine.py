"""Microbenchmark: flat vs legacy position–state grid, per input sequence.

Runs the map-side hot path of D-SEQ in isolation — grid construction plus
the per-pivot queries (``pivot_items``, ``rewrite_for_pivot`` bounds, and the
early-stopping oracle) — for both grid engines over the same prepared
dataset, without any cluster or shuffle machinery in the way, and checks that
they extract the same pivots.  The seconds are printed for orientation only:
at these corpus sizes they are fractions of a millisecond per sequence and no
ratio of them is reported.  Speed is judged by ``python3 -m benchmarks.e2e``
(see ``benchmarks/evidence/pr16-grid-pass/``).
"""

from __future__ import annotations

import time

from repro.core import batched_grids, make_grid
from repro.core.grid_engine import FlatPivotGrid
from repro.core.rewriting import rewrite_for_pivot
from repro.datasets import constraint as make_constraint
from repro.experiments import SCALED_SIGMA, format_table, prepare_dataset
from repro.fst import make_kernel

from benchmarks.conftest import BENCH_SIZES, run_once

#: Workloads: one hierarchy-heavy flexible constraint, one gap-shaped one.
WORKLOADS = [
    ("AMZN", make_constraint("A1", SCALED_SIGMA["A1"])),
    ("AMZN-F", make_constraint("T3", SCALED_SIGMA["T3"], 1, 5)),
]

#: Passes over the dataset per engine (amortizes timer noise at tiny scales).
REPEATS = 3


def _time_engine(kernel, sequences, max_frequent_fid, grid: str) -> tuple[float, int]:
    """Total seconds for grid build + pivot extraction + per-pivot queries."""
    started = time.perf_counter()
    total_pivots = 0
    for _ in range(REPEATS):
        for sequence in sequences:
            built = make_grid(
                kernel, sequence, max_frequent_fid=max_frequent_fid, grid=grid
            )
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
        kernel = make_kernel(
            task.patex().compile(prepared.dictionary), prepared.dictionary, "compiled"
        )
        max_frequent_fid = prepared.dictionary.largest_frequent_fid(task.sigma)
        sequences = prepared.database.sequences()
        timings = {}
        pivot_counts = {}
        for grid in ("flat", "legacy"):
            timings[grid], pivot_counts[grid] = _time_engine(
                kernel, sequences, max_frequent_fid, grid
            )
        assert pivot_counts["flat"] == pivot_counts["legacy"], "engines disagree"
        rows.append(
            {
                "constraint": task.name,
                "dataset": dataset_name,
                "sequences": len(sequences),
                "flat_s": round(timings["flat"], 4),
                "legacy_s": round(timings["legacy"], 4),
                "pivots": pivot_counts["flat"] // REPEATS,
            }
        )
    return rows


#: Continuations appended per stem by the prefix-heavy expansion.
FANOUT = 8


def _prefix_heavy(kernel, sequences) -> list[tuple[int, ...]]:
    """Expand the corpus' accepting sequences into shared-stem variants.

    This models the n-gram corpora of the paper's text workloads, where the
    same word stem recurs with many continuations — the regime the
    trie-batched map targets: every variant of a stem re-runs the stem's
    forward columns on the per-sequence path, while the trie runs them once.
    Stems without an accepting run are left out because both paths skip them
    with the same cheap short-circuit (that regime is why ``map_batching``
    defaults to ``"off"``); the interesting comparison is over the sequences
    whose grids actually get built.
    """
    vocabulary = sorted({item for sequence in sequences for item in sequence})
    tails = vocabulary[:FANOUT]
    unique: set[tuple[int, ...]] = set()
    for sequence in sequences:
        stem = tuple(sequence)
        if not FlatPivotGrid(kernel, stem).has_accepting_run:
            continue
        unique.add(stem)
        for tail in tails:
            unique.add(stem + (tail,))
    return sorted(unique)


def _time_pair(kernel, sequences, max_frequent_fid) -> tuple[float, float, dict]:
    """Best-of-``REPEATS`` pass times for both paths, plus batch counters.

    The passes are interleaved (per-sequence, then batched, per round) and the
    minimum per path is reported: on shared machines a sequential
    block-per-path layout attributes load spikes to whichever path was
    running, and at these corpus sizes the spikes are larger than the
    difference being measured.  Pivot totals are compared every round, so the
    timing loop doubles as an equivalence check.
    """
    per_sequence_s = batched_s = float("inf")
    counters: dict = {}
    for _ in range(REPEATS):
        started = time.perf_counter()
        per_pivots = 0
        for sequence in sequences:
            built = FlatPivotGrid(kernel, sequence, max_frequent_fid=max_frequent_fid)
            per_pivots += len(built.pivot_items())
        per_sequence_s = min(per_sequence_s, time.perf_counter() - started)
        started = time.perf_counter()
        counters = {}
        grids = batched_grids(
            kernel, sequences, max_frequent_fid=max_frequent_fid, counters=counters
        )
        batched_pivots = 0
        for sequence in sequences:
            batched_pivots += len(grids[sequence].pivot_items())
        batched_s = min(batched_s, time.perf_counter() - started)
        assert batched_pivots == per_pivots, "batched grids disagree"
    return per_sequence_s, batched_s, counters


def measure_batched(sizes):
    """Trie-batched vs per-sequence flat builds on a prefix-heavy corpus."""
    rows = []
    for dataset_name, task in WORKLOADS:
        prepared = prepare_dataset(dataset_name, (sizes or {}).get(dataset_name))
        kernel = make_kernel(
            task.patex().compile(prepared.dictionary), prepared.dictionary, "compiled"
        )
        max_frequent_fid = prepared.dictionary.largest_frequent_fid(task.sigma)
        sequences = _prefix_heavy(kernel, prepared.database.sequences())
        per_sequence_s, batched_s, counters = _time_pair(
            kernel, sequences, max_frequent_fid
        )
        nodes = counters["batch_trie_nodes"]
        shared = counters["batch_shared_positions"]
        rows.append(
            {
                "constraint": task.name,
                "dataset": dataset_name,
                "sequences": len(sequences),
                "trie_nodes": nodes,
                "shared_positions": shared,
                "reuse": round(shared / max(nodes + shared, 1), 3),
                "per_sequence_s": round(per_sequence_s, 4),
                "batched_s": round(batched_s, 4),
                "speedup": round(per_sequence_s / max(batched_s, 1e-9), 2),
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
        assert row["flat_s"] > 0 and row["legacy_s"] > 0


def test_trie_batched_microbenchmark(benchmark):
    rows = run_once(benchmark, measure_batched, BENCH_SIZES)
    print()
    print("Trie-batched vs per-sequence flat builds, prefix-heavy corpus")
    print(format_table(rows))
    # Shape check: on the all-prefixes corpus the trie shares more than half
    # of all positions (reuse is a pure function of the seeded data, so this
    # is deterministic; the wall-clock speed-up is printed above and gated at
    # meaningful scales by the perf-smoke CI step over the BENCH artifacts).
    for row in rows:
        assert row["trie_nodes"] > 0
        assert row["shared_positions"] > 0
        assert row["reuse"] > 0.5
        assert row["per_sequence_s"] > 0 and row["batched_s"] > 0
