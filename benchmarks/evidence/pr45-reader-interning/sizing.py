"""Corpus readers: retained bytes per reader, peak RSS per query step, equality.

    python sizing.py retained CHECKOUT
    python sizing.py steps PARENT CHANGE ROUNDS OUT.jsonl
    python sizing.py summarize OUT.jsonl
    python sizing.py loads CHECKOUT OUT.json
    python sizing.py compare PARENT.json CHANGE.json

``retained`` writes ``nyt_n1_scan``'s corpus (seed 13, ``full``) as text,
JSON lines and the binary format, and prints, per reader, the bytes the
returned object keeps alive under ``tracemalloc`` (total and per token).

``steps`` writes ``nyt_n1_scan``'s corpus for seeds 13 and 29 once, then runs,
per round, one fresh Python process in each checkout (parent first in even
rounds, change first in odd ones, seeds alternating).  The process does what
``benchmarks/e2e/run_query.py`` does and prints ``VmHWM`` (MiB) after each
step: the imports, reading the two files, encoding, and the query on
``persistent-processes`` x2; then the workers' largest ``maxrss``
(``RUSAGE_CHILDREN``) and the seconds of the read and encode steps.
``summarize`` prints each column's median [q1, q3] per side and how many
rounds the change won.

``loads`` writes the sha256 of what ``load_sequences`` returns for every
workload of ``benchmarks/e2e/spec.py`` at seeds 13 and 29 (``full``);
``compare`` prints the cells that differ between two such files.  Nothing
here is imported by the benchmark or the tests.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile

SEEDS = (13, 29)

#: Runs inside a checkout: ``python -c GENERATE DIRECTORY SEED``.
GENERATE = """
import sys
from pathlib import Path
sys.path.insert(0, "src")
from benchmarks.e2e import harness, spec

workload = spec.workload_by_name("nyt_n1_scan")
harness.generate_corpus(workload.dataset, workload.size, int(sys.argv[2]), Path(sys.argv[1]))
"""

#: Runs inside a checkout: ``python -c RETAINED``.
RETAINED = """
import json, sys, tempfile, tracemalloc
from pathlib import Path
sys.path.insert(0, "src")
from benchmarks.e2e import harness, spec
from repro.sequences import SequenceDatabase, load_sequences, read_dictionary, save_sequences
from repro.sequences.formats import read_binary_database, write_binary_database

workload = spec.workload_by_name("nyt_n1_scan")
directory = Path(tempfile.mkdtemp())
files = harness.generate_corpus(workload.dataset, workload.size, 13, directory)
raw = load_sequences(files.sequences)
save_sequences(directory / "sequences.jsonl", raw)
dictionary = read_dictionary(files.dictionary)
write_binary_database(
    directory / "sequences.rsdb", SequenceDatabase.from_gid_sequences(dictionary, raw)
)
tokens = sum(map(len, raw))
report = {"sequences": len(raw), "tokens": tokens,
          "distinct_gids": len({gid for sequence in raw for gid in sequence})}
del raw
readers = {
    "text": lambda: load_sequences(files.sequences),
    "jsonl": lambda: load_sequences(directory / "sequences.jsonl"),
    "binary": lambda: read_binary_database(directory / "sequences.rsdb"),
}
for name, read in readers.items():
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    loaded = read()
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del loaded
    report[name] = {"retained_mib": round((after - before) / 2**20, 2),
                    "bytes_per_token": round((after - before) / tokens, 1)}
print(json.dumps(report))
"""

#: Runs inside a checkout: ``python -c STEPS DIRECTORY``.
STEPS = """
import json, resource, sys, time
sys.path.insert(0, "src")

def hwm():
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0

directory = sys.argv[1]
import repro.api
from repro.datasets import constraint
from repro.mapreduce import ClusterConfig
from repro.sequences import SequenceDatabase, load_sequences, read_dictionary
report = {"imports_mib": hwm()}
started = time.perf_counter()
dictionary = read_dictionary(directory + "/dictionary.json")
raw = load_sequences(directory + "/sequences.txt", None)
read = time.perf_counter()
report["read_mib"] = hwm()
database = SequenceDatabase.from_gid_sequences(dictionary, raw)
encoded = time.perf_counter()
report["encode_mib"] = hwm()
result = repro.api.mine(
    repro.api.Corpus(database, dictionary), constraint("N1", 42), algorithm="dseq",
    config=ClusterConfig(backend="persistent-processes", num_workers=2),
)
report["driver_mib"] = hwm()
report["workers_mib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
report["read_s"] = read - started
report["encode_s"] = encoded - read
report["patterns"] = len(result)
print(json.dumps(report))
"""

#: Runs inside a checkout: ``python -c LOADS SEEDS``.
LOADS = """
import hashlib, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "src")
from benchmarks.e2e import harness, spec
from repro.sequences import load_sequences

cells = {}
for workload in spec.WORKLOADS:
    for seed in json.loads(sys.argv[1]):
        with tempfile.TemporaryDirectory() as directory:
            files = harness.generate_corpus(workload.dataset, workload.size, seed, Path(directory))
            loaded = json.dumps(load_sequences(files.sequences)).encode()
        cells[f"{workload.name}/seed{seed}"] = hashlib.sha256(loaded).hexdigest()
print(json.dumps(cells, indent=1, sort_keys=True))
"""

STEP_NAMES = (
    "imports_mib", "read_mib", "encode_mib", "driver_mib", "workers_mib", "read_s", "encode_s",
)


def in_checkout(directory: str, script: str, *args: str) -> str:
    process = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=directory, capture_output=True, text=True, check=True,
    )
    return process.stdout


def step_rounds(parent: str, change: str, rounds: int, out: str) -> None:
    sides = {"parent": parent, "change": change}
    with tempfile.TemporaryDirectory() as scratch:
        corpora = {seed: f"{scratch}/seed{seed}" for seed in SEEDS}
        for seed, directory in corpora.items():
            in_checkout(parent, GENERATE, directory, str(seed))
        for index in range(rounds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            seed = SEEDS[index % len(SEEDS)]
            for side in order:
                record = {"round": index, "side": side, "seed": seed}
                record.update(json.loads(in_checkout(sides[side], STEPS, corpora[seed])))
                with open(out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
                print(index, side, round(record["driver_mib"], 1), flush=True)


def summarize(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    by_round: dict[int, dict[str, dict]] = {}
    for row in rows:
        by_round.setdefault(row["round"], {})[row["side"]] = row
    for step in STEP_NAMES:
        line = [f"{step:12s}"]
        for side in ("parent", "change"):
            values = [row[step] for row in rows if row["side"] == side]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            line.append(f"{side} {median:.3f} [{q1:.3f}, {q3:.3f}] n={len(values)}")
        wins = sum(
            pair["change"][step] < pair["parent"][step]
            for pair in by_round.values()
            if len(pair) == 2
        )
        line.append(f"change lower {wins}/{len(by_round)}")
        print("  ".join(line))


def compare(parent: str, change: str) -> None:
    with open(parent, encoding="utf-8") as handle:
        old = json.load(handle)
    with open(change, encoding="utf-8") as handle:
        new = json.load(handle)
    differing = sorted(cell for cell in old.keys() | new.keys() if old.get(cell) != new.get(cell))
    for cell in differing:
        print("differs:", cell)
    print(f"{len(old.keys() | new.keys()) - len(differing)} cells identical, {len(differing)} differ")
    if differing:
        raise SystemExit(1)


if __name__ == "__main__":
    command = sys.argv[1]
    if command == "retained":
        print(in_checkout(sys.argv[2], RETAINED), end="")
    elif command == "steps":
        step_rounds(sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5])
    elif command == "summarize":
        summarize(sys.argv[2])
    elif command == "loads":
        with open(sys.argv[3], "w", encoding="utf-8") as handle:
            handle.write(in_checkout(sys.argv[2], LOADS, json.dumps(SEEDS)))
    else:
        compare(sys.argv[2], sys.argv[3])
