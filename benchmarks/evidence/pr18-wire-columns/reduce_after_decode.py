"""Does the layout a group was decoded from change what ``reduce()`` costs?

    python reduce_after_decode.py CHECKOUT columns|tagged [WORKLOAD] [SEED]

The traced pairs read ``core.local_mining.mine_s`` higher on the change side
although no line of that layer differs, so this asks the one question a
mechanism would have to answer: runs WORKLOAD's query once in this process on
the ``simulated`` backend with CHECKOUT's ``src/`` and sums the seconds spent
inside ``DSeqJob.reduce`` — with the codec as it is (``columns``), or with
``wire._encode_columns`` stubbed out so every group travels tagged and the
reducers get values built item by item, as at the parent (``tagged``).  Same
process shape, same code everywhere else; alternate the two modes in fresh
processes.  One JSON line per run.  Only meaningful on a checkout that has
column groups; nothing in the benchmark or the tests imports it.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path


def main(checkout: str, mode: str, workload_name: str, seed: int) -> None:
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import repro.api
    from benchmarks.e2e import harness, spec
    from repro.core.dseq import DSeqJob
    from repro.datasets import constraint
    from repro.mapreduce import ClusterConfig, wire
    from repro.sequences import SequenceDatabase, load_sequences, read_dictionary

    if mode == "tagged":
        wire._encode_columns = lambda buffer, values: 0
    workload = spec.workload_by_name(workload_name)
    workdir = harness.workdir_for(f"reduce-after-{mode}-{workload.name}", seed)
    files = harness.generate_corpus(workload.dataset, workload.size, seed, workdir / "corpus")
    dictionary = read_dictionary(files.dictionary)
    database = SequenceDatabase.from_gid_sequences(
        dictionary, load_sequences(files.sequences, None)
    )
    spent = 0.0
    reduce = DSeqJob.reduce

    def timed(self, key, values):
        nonlocal spent
        started = time.perf_counter()
        patterns = list(reduce(self, key, values))
        spent += time.perf_counter() - started
        return patterns

    DSeqJob.reduce = timed
    result = repro.api.mine(
        repro.api.Corpus(database, dictionary),
        constraint(workload.constraint, workload.sigma),
        algorithm=workload.algorithm,
        config=ClusterConfig(backend="simulated", num_workers=spec.NUM_WORKERS),
    )
    print(json.dumps({
        "mode": mode,
        "workload": workload.name,
        "seed": seed,
        "reduce_s": round(spent, 4),
        "wire_bytes": result.metrics.wire_bytes,
        "patterns": len(result.patterns()),
    }))
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    arguments = sys.argv[1:]
    main(
        arguments[0],
        arguments[1],
        arguments[2] if len(arguments) > 2 else "nyt_n4_dseq",
        int(arguments[3]) if len(arguments) > 3 else 13,
    )
