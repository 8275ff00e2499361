"""Corpus set-up: phase seconds in alternated checkouts, and byte identity.

    python sizing.py time PARENT CHANGE ROUNDS OUT.jsonl
    python sizing.py summarize OUT.jsonl
    python sizing.py digests CHECKOUT OUT.json
    python sizing.py compare PARENT.json CHANGE.json
    python sizing.py partitions CHECKOUT

``time`` runs, per round, one fresh Python process in each checkout (parent
first in even rounds, change first in odd ones).  The process builds
``nyt_n1_scan``'s corpus the way ``benchmarks/e2e/harness.py::generate_corpus``
does, after one untimed warm-up build, and prints the seconds of its phases:
the population (``nyt_like`` over the pool), ``preprocess`` (f-list and
encoding) and the whole ``generate_corpus`` call, files included.
``summarize`` prints each phase's median [q1, q3] per side and how many rounds
the change won.

``digests`` writes the sha256 of ``sequences.txt`` and ``dictionary.json``
that ``generate_corpus`` writes for every workload of ``benchmarks/e2e/spec.py``
at seeds 13 and 29 and scales ``full`` and ``tiny``; ``compare`` prints the
cells whose bytes differ between two such files.

``partitions`` maps and folds every mining workload's corpus (seed 13,
``full``) in one process and prints how many reduce partitions, and how many
of their distinct records, weigh less than the workload's sigma: the
partitions the reduce now returns from without mining.  Nothing here is
imported by the benchmark or the tests.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

SEEDS = (13, 29)

#: Runs inside a checkout: ``python -c PHASES`` from its root.
PHASES = """
import json, random, shutil, sys, tempfile, time
from pathlib import Path
sys.path.insert(0, "src")
from benchmarks.e2e import harness, spec
from repro.datasets import nyt_like
from repro.sequences import preprocess

workload = spec.workload_by_name("nyt_n1_scan")
seed = int(sys.argv[1])
directory = Path(tempfile.mkdtemp())
harness.generate_corpus(workload.dataset, workload.size, seed, directory)
started = time.perf_counter()
population = nyt_like(round(workload.size * harness.POOL_FACTOR), seed=harness.POPULATION_SEED)
generated = time.perf_counter()
pool = population.raw_sequences
chosen = sorted(random.Random(seed).sample(range(len(pool)), workload.size))
raw = [pool[index] for index in chosen]
sampled = time.perf_counter()
preprocess(raw, population.hierarchy)
preprocessed = time.perf_counter()
harness.generate_corpus(workload.dataset, workload.size, seed, directory)
whole = time.perf_counter() - preprocessed
shutil.rmtree(directory)
print(json.dumps({
    "population_s": generated - started,
    "preprocess_s": preprocessed - sampled,
    "generate_corpus_s": whole,
}))
"""

#: Runs inside a checkout: ``python -c DIGESTS SEEDS``.
DIGESTS = """
import hashlib, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "src")
from benchmarks.e2e import harness, spec

cells = {}
for scale_name, scale in sorted(spec.SCALES.items()):
    for base in spec.WORKLOADS:
        workload = spec.scaled(base, scale)
        for seed in json.loads(sys.argv[1]):
            with tempfile.TemporaryDirectory() as directory:
                files = harness.generate_corpus(
                    workload.dataset, workload.size, seed, Path(directory)
                )
                cells[f"{workload.name}/{scale_name}/seed{seed}"] = {
                    path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (files.sequences, files.dictionary)
                }
print(json.dumps(cells, indent=1, sort_keys=True))
"""

#: Runs inside a checkout: ``python -c PARTITIONS``.
PARTITIONS = """
import sys, tempfile
from pathlib import Path
sys.path.insert(0, "src")
from benchmarks.e2e import harness, spec
from repro.core import DCandMiner, DSeqMiner
from repro.datasets import constraint
from repro.sequences import as_mining_records, fold_weighted_values

for workload in spec.WORKLOADS:
    if workload.kind != "mining":
        continue
    with tempfile.TemporaryDirectory() as directory:
        files = harness.generate_corpus(workload.dataset, workload.size, 13, Path(directory))
        corpus = harness.load_corpus(files)
    miner = {"dseq": DSeqMiner, "dcand": DCandMiner}[workload.algorithm]
    patex = constraint(workload.constraint, workload.sigma).patex()
    job = miner(patex, workload.sigma, corpus.dictionary).job
    emitted = {}
    for record in as_mining_records(corpus.database):
        for key, value in job.map(record):
            emitted.setdefault(key, []).append(value)
    folded = [fold_weighted_values(values) for values in emitted.values()]
    below = [fold for fold in folded if sum(fold.values()) < workload.sigma]
    print(
        f"{workload.name}: sigma {workload.sigma}, {len(below)} of {len(folded)} partitions"
        f" below sigma, holding {sum(map(len, below))} of {sum(map(len, folded))}"
        " distinct records"
    )
"""

PHASE_NAMES = ("population_s", "preprocess_s", "generate_corpus_s")


def in_checkout(directory: str, script: str, *args: str) -> str:
    process = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=directory, capture_output=True, text=True, check=True,
    )
    return process.stdout


def time_rounds(parent: str, change: str, rounds: int, out: str) -> None:
    sides = {"parent": parent, "change": change}
    for index in range(rounds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            seed = SEEDS[index % len(SEEDS)]
            record = {"round": index, "side": side, "seed": seed}
            record.update(json.loads(in_checkout(sides[side], PHASES, str(seed))))
            with open(out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            print(index, side, round(record["generate_corpus_s"], 3), flush=True)


def summarize(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    by_round: dict[int, dict[str, dict]] = {}
    for row in rows:
        by_round.setdefault(row["round"], {})[row["side"]] = row
    for phase in PHASE_NAMES:
        line = [f"{phase:18s}"]
        for side in ("parent", "change"):
            values = [row[phase] for row in rows if row["side"] == side]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            line.append(f"{side} {median:.3f} [{q1:.3f}, {q3:.3f}] n={len(values)}")
        wins = sum(
            pair["change"][phase] < pair["parent"][phase]
            for pair in by_round.values()
            if len(pair) == 2
        )
        line.append(f"change wins {wins}/{len(by_round)}")
        print("  ".join(line))


def compare(parent: str, change: str) -> None:
    with open(parent, encoding="utf-8") as handle:
        old = json.load(handle)
    with open(change, encoding="utf-8") as handle:
        new = json.load(handle)
    differing = sorted(cell for cell in old.keys() | new.keys() if old.get(cell) != new.get(cell))
    for cell in differing:
        print("differs:", cell)
    identical = len(old.keys() | new.keys()) - len(differing)
    print(f"{identical} cells identical, {len(differing)} differ")
    if differing:
        raise SystemExit(1)


if __name__ == "__main__":
    command = sys.argv[1]
    if command == "time":
        time_rounds(sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5])
    elif command == "summarize":
        summarize(sys.argv[2])
    elif command == "digests":
        with open(sys.argv[3], "w", encoding="utf-8") as handle:
            handle.write(in_checkout(sys.argv[2], DIGESTS, json.dumps(SEEDS)))
    elif command == "partitions":
        print(in_checkout(sys.argv[2], PARTITIONS), end="")
    else:
        compare(sys.argv[2], sys.argv[3])
