"""Collections and collector seconds per process of one benchmark query.

    python gc_table.py run CHECKOUT SIDE WORKLOAD SEED RUNS OUT.jsonl
    python gc_table.py summarize OUT.jsonl

``run`` generates the workload's corpus once (the checkout's own
``benchmarks.e2e.harness``), then RUNS times starts a fresh interpreter on the
checkout's ``src`` that imports and loads like ``run_query.py``, appends a
``gc.callbacks`` entry *before* ``repro.api.mine`` — so every forked worker
inherits it — and mines on the workload's backend.  The callback writes one
line per collection (pid, generation, seconds) to a log; the run's line in
OUT.jsonl holds, per process, collections and seconds per generation.
``summarize`` prints the per-process medians for the driver and the workers.
Nothing here is imported by the benchmark or the tests.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict

GENERATE = """
import sys
from pathlib import Path
from benchmarks.e2e import harness, spec
workload = next(w for w in spec.WORKLOADS if w.name == sys.argv[1])
harness.generate_corpus(workload.dataset, workload.size, int(sys.argv[2]), Path(sys.argv[3]))
"""

QUERY = """
import gc, json, os, sys, time
from benchmarks.e2e import spec
workload = next(w for w in spec.WORKLOADS if w.name == sys.argv[1])
import repro.api
from repro.datasets import constraint
from repro.mapreduce import ClusterConfig
from repro.sequences import SequenceDatabase, load_sequences, read_dictionary
dictionary = read_dictionary(sys.argv[2] + "/dictionary.json")
database = SequenceDatabase.from_gid_sequences(
    dictionary, load_sequences(sys.argv[2] + "/sequences.txt", None)
)
corpus = repro.api.Corpus(database, dictionary)
log = open(sys.argv[3], "a", buffering=1)
started = [0.0]
def observe(phase, info):
    if phase == "start":
        started[0] = time.perf_counter()
    else:
        elapsed = time.perf_counter() - started[0]
        log.write(f"{os.getpid()} {info['generation']} {elapsed:.6f} {gc.get_freeze_count()}\\n")
gc.callbacks.append(observe)
result = repro.api.mine(
    corpus, constraint(workload.constraint, workload.sigma), algorithm=workload.algorithm,
    config=ClusterConfig(backend=workload.backend, num_workers=spec.NUM_WORKERS),
)
gc.callbacks.remove(observe)
print(json.dumps({"driver": os.getpid(), "patterns": len(result)}))
"""


def run(checkout: str, side: str, workload: str, seed: str, runs: int, out: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    with tempfile.TemporaryDirectory() as scratch:
        corpus = os.path.join(scratch, "corpus")
        subprocess.run(
            [sys.executable, "-c", GENERATE, workload, seed, corpus],
            cwd=checkout, env=env, check=True,
        )
        for index in range(runs):
            log = os.path.join(scratch, f"gc-{index}.log")
            done = subprocess.run(
                [sys.executable, "-c", QUERY, workload, corpus, log],
                cwd=checkout, env=env, check=True, capture_output=True, text=True,
            )
            report = json.loads(done.stdout.strip().splitlines()[-1])
            processes: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
            frozen: dict = defaultdict(int)
            with open(log, encoding="ascii") as handle:
                for line in handle:
                    pid, generation, seconds, freeze_count = line.split()
                    cell = processes[pid][generation]
                    cell[0] += 1
                    cell[1] += float(seconds)
                    frozen[pid] = max(frozen[pid], int(freeze_count))
            driver = str(report["driver"])
            record = {
                "side": side, "workload": workload, "seed": seed, "run": index,
                "patterns": report["patterns"],
                "driver": processes.pop(driver, {}),
                "workers": [
                    {"generations": generations, "frozen": frozen[pid]}
                    for pid, generations in sorted(processes.items())
                ],
            }
            with open(out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            print(side, index, len(record["workers"]), "workers", flush=True)


def _row(label: str, processes: list[dict]) -> str:
    cells = []
    for generation in ("0", "1", "2"):
        counts = [p.get(generation, [0, 0.0])[0] for p in processes]
        seconds = [p.get(generation, [0, 0.0])[1] for p in processes]
        cells.append(f"{statistics.median(counts):g} / {statistics.median(seconds) * 1000:.1f} ms")
    totals = sorted(sum(cell[1] for cell in p.values()) * 1000 for p in processes)
    return (
        f"| {label} | {len(processes)} | " + " | ".join(cells)
        + f" | {statistics.median(totals):.1f} [{totals[0]:.1f}, {totals[-1]:.1f}] |"
    )


def summarize(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    print("| side, process | n | gen 0: collections / time | gen 1 | gen 2 "
          "| collector ms per process, median [min, max] |")
    print("|---|---|---|---|---|---|")
    for side in dict.fromkeys(row["side"] for row in rows):
        mine = [row for row in rows if row["side"] == side]
        workers = [worker for row in mine for worker in row["workers"]]
        print(_row(f"{side}, driver", [row["driver"] for row in mine]))
        print(_row(f"{side}, worker", [worker["generations"] for worker in workers]))
        print(f"| {side}, worker `gc.get_freeze_count()` at its last collection | "
              f"{len(workers)} | min {min(w['frozen'] for w in workers)} "
              f"| max {max(w['frozen'] for w in workers)} | | |")


if __name__ == "__main__":
    if len(sys.argv) == 8 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5], int(sys.argv[6]), sys.argv[7])
    elif len(sys.argv) == 3 and sys.argv[1] == "summarize":
        summarize(sys.argv[2])
    else:
        sys.exit(__doc__)
