"""Where one map-side grid build spends its time, measured in-process.

    python build_split.py CHECKOUT [WORKLOAD] [SEED] [ROUNDS]

Generates WORKLOAD's corpus (default ``nyt_n1_scan``, seed 13) with CHECKOUT's
own ``benchmarks.e2e`` harness, compiles the workload's constraint with
CHECKOUT's ``src/`` and builds one ``FlatPivotGrid`` per distinct input
sequence the way D-SEQ's map does (``pivot_items()`` and one rewrite per pivot
after every build), timing the constructor's phases with bare clock reads
summed per phase.  ROUNDS whole passes are made (default 5) on a warm kernel;
the median pass is printed as one JSON line.

The phases depend on which grid CHECKOUT has.  The arena grid (PR 15 and
before: the class has ``_summarize``) is split by re-doing its constructor step
by step: reachability table / column allocation / ``_build`` / ``_summarize``.
The one-pass grid is split into reachability table / forward pass.  ``whole``
is the unsplit constructor timed in a pass of its own, ``memo_wrapper`` what
``cached_grid`` adds on top of it for never-repeating records (a second pass
through ``cached_grid`` with the memo cleared first, minus ``whole``).

``benchmarks/e2e`` is frozen while a PR claims a gain, so this split lives
here; nothing in the benchmark or the tests imports it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array
from pathlib import Path


def main(checkout: str, workload_name: str, seed: int, rounds: int) -> None:
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from benchmarks.e2e import harness, spec
    from repro.core import grid_engine
    from repro.core.grid_engine import FlatPivotGrid, cached_grid, clear_grid_memo
    from repro.core.rewriting import rewrite_for_pivot
    from repro.datasets import constraint
    from repro.fst import make_kernel

    workload = spec.workload_by_name(workload_name)
    workdir = harness.workdir_for(f"split-{workload.name}", seed)
    files = harness.generate_corpus(workload.dataset, workload.size, seed, workdir / "corpus")
    corpus = harness.load_corpus(files)
    dictionary = corpus.dictionary
    query = constraint(workload.constraint, workload.sigma)
    kernel = make_kernel(query.patex().compile(dictionary), dictionary)
    max_frequent_fid = dictionary.largest_frequent_fid(workload.sigma)
    sequences = list(dict.fromkeys(tuple(sequence) for sequence in corpus.database))
    clock = time.perf_counter
    arena = hasattr(FlatPivotGrid, "_summarize")

    def use(grid) -> int:
        pivots = grid.pivot_items()
        for pivot in pivots:
            rewrite_for_pivot(grid, pivot)
        return len(pivots)

    def split_arena() -> dict:
        no_output = grid_engine._NO_OUTPUT
        reach = alloc = build = summarize = 0.0
        accepted = pivots = 0
        for sequence in sequences:
            n = len(sequence)
            t0 = clock()
            alive = kernel.reachability_table(sequence)
            t1 = clock()
            grid = FlatPivotGrid.__new__(FlatPivotGrid)
            grid.kernel = kernel
            grid.fst = kernel.fst
            grid.sequence = sequence
            grid.dictionary = kernel.dictionary
            grid.max_frequent_fid = max_frequent_fid
            grid._alive = alive
            grid._has_accepting_run = alive[0][kernel.initial_state] if n else False
            grid._edge_source = array("q")
            grid._edge_target = array("q")
            grid._edge_tid = array("q")
            grid._edge_bounds = array("q", bytes(8 * (n + 1)))
            grid._out_items = array("Q")
            grid._out_start = array("q", (0,))
            grid._pivots = [{} for _ in range(n + 1)]
            grid._pos_changes_state = bytearray(n + 1)
            grid._pos_min_output = array("Q", (no_output,) * (n + 1))
            grid._last_producing = {}
            t2 = clock()
            t3 = t4 = t2
            if grid._has_accepting_run:
                grid._build()
                t3 = clock()
                grid._summarize()
                t4 = clock()
                accepted += 1
            reach += t1 - t0
            alloc += t2 - t1
            build += t3 - t2
            summarize += t4 - t3
            pivots += use(grid)
        return {
            "reachability_s": reach,
            "allocation_s": alloc,
            "_build_s": build,
            "_summarize_s": summarize,
            "accepted": accepted,
            "pivots": pivots,
        }

    def split_one_pass() -> dict:
        reach = forward = 0.0
        accepted = pivots = 0
        for sequence in sequences:
            t0 = clock()
            alive = kernel.reachability_table(sequence)
            t1 = clock()
            grid = FlatPivotGrid(kernel, sequence, max_frequent_fid=max_frequent_fid)
            t2 = clock()
            reach += t1 - t0
            # The constructor computes the table again; what is left is the
            # forward pass (and the instance itself).
            forward += (t2 - t1) - (t1 - t0)
            accepted += bool(grid.has_accepting_run)
            pivots += use(grid)
            assert grid.alive == alive
        return {
            "reachability_s": reach,
            "forward_pass_s": forward,
            "accepted": accepted,
            "pivots": pivots,
        }

    def whole(builder) -> float:
        total = 0.0
        for sequence in sequences:
            t0 = clock()
            grid = builder(sequence)
            total += clock() - t0
            use(grid)
        return total

    def direct(sequence):
        return FlatPivotGrid(kernel, sequence, max_frequent_fid=max_frequent_fid)

    def through_memo(sequence):
        # Records of the dedup store's unique view carry their span hash.
        return cached_grid(
            kernel, sequence, max_frequent_fid=max_frequent_fid, span_hash=hash(sequence)
        )

    whole(direct)  # warm the kernel's memos: the benchmark's workers are warm too
    passes = []
    for _ in range(rounds):
        row = split_arena() if arena else split_one_pass()
        row["whole_s"] = whole(direct)
        clear_grid_memo()
        row["memo_wrapper_s"] = whole(through_memo) - row["whole_s"]
        passes.append(row)
    clear_grid_memo()
    median = {
        key: statistics.median(row[key] for row in passes) for key in passes[0]
    }
    report = {
        "checkout": str(root),
        "grid": "arena" if arena else "one-pass",
        "workload": workload.name,
        "seed": seed,
        "rounds": rounds,
        "sequences": len(sequences),
        "items": sum(map(len, sequences)),
        "rejected": len(sequences) - int(median.pop("accepted")),
        "pivots": int(median.pop("pivots")),
        **{key: round(value, 4) for key, value in median.items()},
    }
    print(json.dumps(report))


if __name__ == "__main__":
    arguments = sys.argv[1:]
    main(
        arguments[0],
        arguments[1] if len(arguments) > 1 else "nyt_n1_scan",
        int(arguments[2]) if len(arguments) > 2 else 13,
        int(arguments[3]) if len(arguments) > 3 else 5,
    )
