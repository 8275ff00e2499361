"""What each pool worker builds while it reduces: grids, tables, search.

    python reduce_split.py CHECKOUT [WORKLOAD] [SEED]

The traced replay is one process, so it meets every distinct rewritten
sequence once; a real ``persistent-processes`` run has two workers that each
meet nearly all of them.  This runs WORKLOAD's query once through the public
API on ``persistent-processes`` with CHECKOUT's ``src/`` and reports, per
worker process: reduce calls, position–state grids constructed *inside*
``DSeqJob.reduce``, and the seconds of ``DesqDfsMiner.mine`` spent before the
search starts (memo lookups and per-sequence tables; on the parent that is the
grid build) against the seconds inside ``_expand`` (the search, with its lazy
step-index and finishable fills).  The wrappers are installed before the pool
forks, each worker rewrites its own totals file after every reduce call, and
the driver prints one JSON line.  The wrapped names exist on both sides of PR
20; nothing in the benchmark or the tests imports this.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path


def main(checkout: str, workload_name: str, seed: int) -> None:
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import repro.api
    from benchmarks.e2e import harness, spec
    from repro.core.dseq import DSeqJob
    from repro.core.grid_engine import FlatPivotGrid
    from repro.core.local_mining import DesqDfsMiner
    from repro.core.pivot_search import PositionStateGrid
    from repro.datasets import constraint
    from repro.mapreduce import ClusterConfig
    from repro.sequences import SequenceDatabase, load_sequences, read_dictionary

    workload = spec.workload_by_name(workload_name)
    workdir = harness.workdir_for(f"reduce-split-{workload.name}", seed)
    files = harness.generate_corpus(workload.dataset, workload.size, seed, workdir / "corpus")
    dictionary = read_dictionary(files.dictionary)
    database = SequenceDatabase.from_gid_sequences(
        dictionary, load_sequences(files.sequences, None)
    )
    reports = workdir / "reduce-split"
    reports.mkdir(parents=True, exist_ok=True)
    totals = {"reduce_calls": 0, "grids_in_reduce": 0, "reduce_s": 0.0, "mine_s": 0.0,
              "search_s": 0.0}
    reducing = False
    clock = time.perf_counter

    def timed(owner, name, field):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            started = clock()
            try:
                return original(self, *args, **kwargs)
            finally:
                totals[field] += clock() - started

        setattr(owner, name, wrapper)

    def counted(owner):
        original = owner.__init__

        def wrapper(self, *args, **kwargs):
            totals["grids_in_reduce"] += reducing
            original(self, *args, **kwargs)

        owner.__init__ = wrapper

    timed(DesqDfsMiner, "mine", "mine_s")
    timed(DesqDfsMiner, "_expand", "search_s")
    counted(FlatPivotGrid)
    counted(PositionStateGrid)
    reduce = DSeqJob.reduce

    def reporting(self, key, values):
        nonlocal reducing
        reducing = True
        started = clock()
        try:
            return list(reduce(self, key, values))
        finally:
            reducing = False
            totals["reduce_s"] += clock() - started
            totals["reduce_calls"] += 1
            (reports / f"{os.getpid()}.json").write_text(json.dumps(totals))

    DSeqJob.reduce = reporting
    started = clock()
    result = repro.api.mine(
        repro.api.Corpus(database, dictionary),
        constraint(workload.constraint, workload.sigma),
        algorithm=workload.algorithm,
        config=ClusterConfig(backend="persistent-processes", num_workers=spec.NUM_WORKERS),
    )
    wall = clock() - started
    workers = []
    for path in sorted(reports.glob("*.json")):
        worker = json.loads(path.read_text())
        worker["tables_s"] = worker.pop("mine_s") - worker["search_s"]
        workers.append({name: round(value, 4) for name, value in worker.items()})
    print(json.dumps({
        "checkout": root.name,
        "workload": workload.name,
        "seed": seed,
        "query_wall_s": round(wall, 4),
        "patterns": len(result.patterns()),
        "wire_bytes": result.metrics.wire_bytes,
        "workers": workers,
    }))
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    arguments = sys.argv[1:]
    main(
        arguments[0],
        arguments[1] if len(arguments) > 1 else "nyt_n4_dseq",
        int(arguments[2]) if len(arguments) > 2 else 13,
    )
