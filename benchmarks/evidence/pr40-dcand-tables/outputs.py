"""D-CAND's map payloads and reduce patterns, compared across two checkouts.

    python outputs.py compare PARENT_DIR CHANGE_DIR [OUT.jsonl]
    python outputs.py dump CHECKOUT_DIR OUT.pickle     (one side; used by compare)

``dump`` imports ``repro`` from ``CHECKOUT_DIR/src``, draws the 2,500-user
AMZN-like corpus the way ``benchmarks/e2e/harness.py`` does (same population,
same sample) and, for A1–A4 with ``minimize_nfas`` on and off, stores:

* every record's ``DCandJob.map`` output, ``(pivot, payload)`` in order;
* every reduce partition's patterns, in emission order: the map outputs are
  grouped by pivot and folded by ``DCandJob.combine`` the way one map task
  would, then ``DCandJob.reduce`` runs per pivot.  Where the checkout has
  ``tests/reference/nfa.py::mine_by_labels``, each partition is also mined by
  ``NfaLocalMiner.mine`` over ``deserialize``'s ``OutputNfa``s and by that
  labelled-edge oracle, and all three must be equal in order;
* how many ``TrieBuilder.add_run`` calls and (distinct run, pivot)
  insertions the map made;
* the map loop's and the reduce loop's seconds (one pass, informational).

Last, it mines every row of Fig. 10b (``figure10b()``'s default constraints,
datasets and sizes, each ablation variant mined alone) and stores the
patterns.  ``compare`` runs ``dump`` in a fresh process per checkout,
requires map outputs, partition patterns and Fig. 10b patterns to be equal
case by case, and prints (and appends to ``OUT.jsonl``) one line per case.
Nothing here is imported by the benchmark or the tests.
"""

from __future__ import annotations

import json
import pickle
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CASES = (("A1", 8), ("A2", 6), ("A3", 8), ("A4", 6))
SIZE = 2500
SEED = 13


def corpus():
    from benchmarks.e2e.harness import POOL_FACTOR, POPULATION_SEED
    from repro.datasets import amzn_like
    from repro.sequences import preprocess

    population = amzn_like(round(SIZE * POOL_FACTOR), seed=POPULATION_SEED)
    pool = population.raw_sequences
    chosen = sorted(random.Random(SEED).sample(range(len(pool)), SIZE))
    return preprocess([pool[index] for index in chosen], population.hierarchy)


def counting_add_run(counts):
    """Wrap ``TrieBuilder.add_run`` to count calls and (run, pivot) insertions:
    one per call on the old one-pivot signature, ``len(pivots)`` on the new."""
    from repro.nfa import TrieBuilder

    original = TrieBuilder.add_run

    def counted(self, output_sets, *rest):
        counts["calls"] += 1
        if rest and isinstance(rest[0], (list, tuple)):
            counts["insertions"] += len(rest[0])
        else:
            counts["insertions"] += 1
        return original(self, output_sets, *rest)

    TrieBuilder.add_run = counted
    return original


def dump(checkout: str, out: str) -> None:
    sys.path[:0] = [str(Path(checkout) / "src"), checkout]
    from repro.core.dcand import DCandJob
    from repro.core.nfa_mining import NfaLocalMiner
    from repro.datasets import constraint
    from repro.fst import make_kernel
    from repro.nfa import TrieBuilder, deserialize
    from repro.sequences import as_mining_records, weighted_value_parts

    try:
        from tests.reference import mine_by_labels
    except ImportError:
        mine_by_labels = None
    dictionary, database = corpus()
    records = list(as_mining_records(database))
    results = {}
    for name, sigma in CASES:
        query = constraint(name, sigma)
        kernel = make_kernel(query.patex().compile(dictionary), dictionary)
        for minimize in (True, False):
            job = DCandJob(kernel, sigma=sigma, minimize_nfas=minimize)
            counts = {"calls": 0, "insertions": 0}
            original = counting_add_run(counts)
            try:
                started = time.perf_counter()
                emitted = [list(job.map(record)) for record in records]
                map_s = time.perf_counter() - started
            finally:
                TrieBuilder.add_run = original
            grouped: dict = {}
            for pairs in emitted:
                for pivot, value in pairs:
                    grouped.setdefault(pivot, []).append(value)
            combined = {
                pivot: [value for _key, value in job.combine(pivot, values)]
                for pivot, values in grouped.items()
            }
            started = time.perf_counter()
            partitions = {
                pivot: list(job.reduce(pivot, combined[pivot])) for pivot in sorted(combined)
            }
            reduce_s = time.perf_counter() - started
            oracle_equal = None
            if mine_by_labels is not None:
                oracle_equal = True
                for pivot, values in combined.items():
                    parts = [weighted_value_parts(value) for value in values]
                    nfas = [deserialize(payload) for payload, _weight in parts]
                    weights = [weight for _payload, weight in parts]
                    by_nfa = list(NfaLocalMiner(sigma, pivot=pivot).mine(nfas, weights).items())
                    by_labels = list(mine_by_labels(nfas, weights, sigma, pivot).items())
                    oracle_equal &= partitions[pivot] == by_nfa == by_labels
            key = f"AMZN{SIZE}-{name}-s{sigma}-minimize={minimize}"
            results[key] = {
                "records": len(records),
                "payloads": sum(map(len, emitted)),
                "emitted": emitted,
                "partitions": partitions,
                "patterns": sum(map(len, partitions.values())),
                "add_run_calls": counts["calls"],
                "insertions": counts["insertions"],
                "oracle_equal": oracle_equal,
                "map_s": map_s,
                "reduce_s": reduce_s,
            }
    results.update(figure10b_patterns())
    with open(out, "wb") as handle:
        pickle.dump(results, handle, protocol=pickle.HIGHEST_PROTOCOL)


def figure10b_patterns() -> dict:
    """Every Fig. 10b row's mined patterns, ``figure10b()``'s defaults."""
    from repro.core import DCandMiner
    from repro.datasets import constraint
    from repro.experiments.configs import SCALED_SIGMA, prepare_dataset
    from repro.experiments.figures import DCAND_ABLATION_VARIANTS
    from repro.mapreduce import ClusterConfig

    queries = (  # figure10b()'s defaults
        ("AMZN", constraint("A1", SCALED_SIGMA["A1"])),
        ("NYT", constraint("N4", SCALED_SIGMA["N4"])),
        ("AMZN-F", constraint("T3", SCALED_SIGMA["T3"], 1, 6)),
    )
    rows = {}
    for dataset_name, query in queries:
        prepared = prepare_dataset(dataset_name)
        for variant, switches in DCAND_ABLATION_VARIANTS:
            miner = DCandMiner(
                query.expression, query.sigma, prepared.dictionary,
                cluster=ClusterConfig(), **switches,
            )
            patterns = sorted(miner.mine(prepared.database).patterns().items())
            key = f"fig10b-{dataset_name}-{query.expression}-s{query.sigma}-{variant}"
            rows[key] = {"records": len(prepared.database), "patterns_list": patterns}
    return rows


def compare(parent: str, change: str, log: str | None) -> int:
    sides = {}
    with tempfile.TemporaryDirectory() as scratch:
        for side, checkout in (("parent", parent), ("change", change)):
            out = str(Path(scratch) / f"{side}.pickle")
            subprocess.run(
                [sys.executable, __file__, "dump", checkout, out], cwd=checkout, check=True
            )
            with open(out, "rb") as handle:
                sides[side] = pickle.load(handle)
    failures = 0
    for case, old in sides["parent"].items():
        new = sides["change"][case]
        if case.startswith("fig10b"):
            equal = old["patterns_list"] == new["patterns_list"]
            row = {"case": case, "records": old["records"],
                   "patterns": len(old["patterns_list"]), "identical": equal}
        else:
            equal = (
                old["emitted"] == new["emitted"]
                and old["partitions"] == new["partitions"]
                and new["oracle_equal"] is not False
            )
            row = {
                "case": case,
                "records": old["records"],
                "payloads": old["payloads"],
                "patterns": old["patterns"],
                "payloads_identical_in_order": old["emitted"] == new["emitted"],
                "partition_patterns_identical_in_order": old["partitions"] == new["partitions"],
                "change_reduce_equals_outputnfa_miner_and_oracle": new["oracle_equal"],
                "add_run_calls": {"parent": old["add_run_calls"], "change": new["add_run_calls"]},
                "insertions": {"parent": old["insertions"], "change": new["insertions"]},
                "map_s": {"parent": round(old["map_s"], 3), "change": round(new["map_s"], 3)},
                "reduce_s": {"parent": round(old["reduce_s"], 3), "change": round(new["reduce_s"], 3)},
            }
        failures += not equal
        print(json.dumps(row), flush=True)
        if log:
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(row) + "\n")
    return failures


if __name__ == "__main__":
    command = sys.argv[1]
    if command == "dump":
        dump(sys.argv[2], sys.argv[3])
    elif command == "compare":
        sys.exit(1 if compare(sys.argv[2], sys.argv[3], sys.argv[4] if len(sys.argv) > 4 else None) else 0)
    else:
        sys.exit(__doc__)
