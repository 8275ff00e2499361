"""D-SEQ's map emissions, record by record, compared across two checkouts.

    python emissions.py compare PARENT_DIR CHANGE_DIR [OUT.jsonl]
    python emissions.py dump CHECKOUT_DIR OUT.pickle     (one side; used by compare)

``dump`` imports ``repro`` from ``CHECKOUT_DIR/src``, draws each corpus below
the way ``benchmarks/e2e/harness.py`` does (same population, same sample), and
for every record of the deduplicated view stores the list ``DSeqJob.map``
yields — ``(pivot, representation)`` pairs in emission order.  It also times
the map loop alone, one pass over the records with a freshly compiled kernel.
Last, it mines every row of Fig. 10a (``figure10a()``'s defaults, each
ablation variant) and stores the patterns.
``compare`` runs ``dump`` in a fresh process per checkout, requires the two
emission lists to be equal case by case, and prints (and appends to
``OUT.jsonl``) one line per case.  Nothing here is imported by the benchmark or
the tests.
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

#: (dataset, corpus size, constraint, sigma, DSeqJob switches): the judged
#: D-SEQ workloads, the AMZN D-SEQ queries of ``service_mix`` on the
#: 2,500-user corpus, and Fig. 10a's grid / rewriting switches off.
CASES = (
    ("NYT", 17000, "N1", 42, {}),
    ("NYT", 17000, "N1", 10, {}),
    ("NYT", 1200, "N4", 30, {}),
    ("AMZN", 2500, "A1", 8, {}),
    ("AMZN", 2500, "A1", 16, {}),
    ("AMZN", 2500, "A2", 6, {}),
    ("AMZN", 2500, "A4", 6, {}),
    ("NYT", 1200, "N4", 30, {"use_rewriting": False}),
    ("NYT", 1200, "N4", 30, {"use_grid": False}),
    ("AMZN", 2500, "A1", 8, {"use_rewriting": False}),
    ("AMZN", 2500, "A1", 8, {"use_grid": False}),
    ("AMZN", 2500, "A1", 8, {"grid": "legacy"}),
)
SEED = 13
#: Corpus size of every Fig. 10a dataset mined by ``figure10a_patterns``.
FIG10A_SIZE = 400


def corpus(dataset: str, size: int):
    from benchmarks.e2e.harness import POOL_FACTOR, POPULATION_SEED
    from repro.datasets import amzn_like, nyt_like
    from repro.sequences import preprocess

    generator = {"NYT": nyt_like, "AMZN": amzn_like}[dataset]
    population = generator(round(size * POOL_FACTOR), seed=POPULATION_SEED)
    pool = population.raw_sequences
    chosen = sorted(random.Random(SEED).sample(range(len(pool)), size))
    return preprocess([pool[index] for index in chosen], population.hierarchy)


def make_job(kernel, sigma: int, switches: dict):
    """``DSeqJob(kernel, sigma=sigma, **switches)``; ``grid="legacy"`` is the
    reference grid's job in a checkout that keeps it in ``tests/reference``."""
    from repro.core.dseq import DSeqJob

    if switches.get("grid") == "legacy":
        try:
            from tests.reference.grid import ReferenceGridJob
        except ImportError:  # an older checkout: DSeqJob still takes grid=
            pass
        else:
            return ReferenceGridJob(kernel, sigma=sigma)
    return DSeqJob(kernel, sigma=sigma, **switches)


def dump(checkout: str, out: str) -> None:
    sys.path[:0] = [str(Path(checkout) / "src"), checkout]
    from repro.datasets import constraint
    from repro.fst import make_kernel
    from repro.sequences import as_mining_records

    results = {}
    corpora = {}
    for dataset, size, name, sigma, switches in CASES:
        if (dataset, size) not in corpora:
            corpora[dataset, size] = corpus(dataset, size)
        dictionary, database = corpora[dataset, size]
        records = list(as_mining_records(database))
        query = constraint(name, sigma)
        kernel = make_kernel(query.patex().compile(dictionary), dictionary)
        job = make_job(kernel, sigma, switches)
        started = time.perf_counter()
        emitted = [list(job.map(record)) for record in records]
        seconds = time.perf_counter() - started
        label = "".join(f",{key}={value}" for key, value in switches.items())
        results[f"{dataset}{size}-{name}-s{sigma}{label}"] = (len(records), seconds, emitted)
    results.update(figure10a_patterns())
    with open(out, "wb") as handle:
        pickle.dump(results, handle, protocol=pickle.HIGHEST_PROTOCOL)


def figure10a_patterns() -> dict:
    """Every Fig. 10a row's mined patterns: ``figure10a()``'s default
    constraints, datasets and sizes, each ablation variant mined alone."""
    from repro.core import DSeqMiner
    from repro.datasets import constraint
    from repro.experiments.configs import SCALED_SIGMA, prepare_dataset
    from repro.experiments.figures import DSEQ_ABLATION_VARIANTS
    from repro.mapreduce import ClusterConfig

    queries = (  # figure10a()'s defaults
        ("AMZN", constraint("A1", SCALED_SIGMA["A1"])),
        ("NYT", constraint("N5", SCALED_SIGMA["N5"])),
        ("AMZN-F", constraint("T3", SCALED_SIGMA["T3"], 1, 6)),
        ("AMZN-F", constraint("T3", 10 * SCALED_SIGMA["T3"], 3, 5)),
    )
    rows = {}
    for dataset_name, query in queries:
        prepared = prepare_dataset(dataset_name)
        for variant, switches in DSEQ_ABLATION_VARIANTS:
            miner = DSeqMiner(
                query.expression, query.sigma, prepared.dictionary,
                cluster=ClusterConfig(), **switches,
            )
            started = time.perf_counter()
            patterns = sorted(miner.mine(prepared.database).patterns().items())
            seconds = time.perf_counter() - started
            key = f"fig10a-{dataset_name}-{query.expression}-s{query.sigma}-{variant}"
            rows[key] = (len(prepared.database), seconds, [patterns])
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
    for case, (records, parent_s, parent_out) in sides["parent"].items():
        _records, change_s, change_out = sides["change"][case]
        equal = parent_out == change_out
        failures += not equal
        row = {
            "case": case,
            "records": records,
            "pairs_or_patterns": sum(map(len, parent_out)),
            "identical_in_order": equal,
            # the map loop alone; for a Fig. 10a row, the whole mine
            ("mine_s" if case.startswith("fig10a") else "map_loop_s"): {
                "parent": round(parent_s, 4), "change": round(change_s, 4)
            },
        }
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
