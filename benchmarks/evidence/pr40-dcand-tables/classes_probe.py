"""ROADMAP item 9's probe: how many fids does a query touch, and how many
match classes do they fall into?

    python classes_probe.py CHECKOUT_DIR OUT.jsonl

For each judged mining workload's corpus and constraint (drawn the way
``benchmarks/e2e/harness.py`` draws them), one fresh process per workload:

* ``distinct_fids``: the distinct items of the deduplicated map input;
* ``match_classes``: how many distinct per-state matching-transition rows
  (``CompiledFst._match_rows``) those fids have — the classes a kernel keyed
  by what the FST can tell apart would hold;
* ``edge_row_classes``: distinct ``edge_rows`` values (captured outputs
  included, which a ``.^`` capture makes per item);
* ``cold_edge_rows_s``: a fresh kernel's ``edge_rows`` over every distinct
  fid, once — the first-touch cost a class-keyed kernel could save, per
  process.

Nothing here is imported by the benchmark or the tests.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = (
    ("nyt_n1_scan", "NYT", 17000, "N1", 42),
    ("nyt_n4_dseq", "NYT", 1200, "N4", 30),
    ("amzn_a3_dcand", "AMZN", 2500, "A3", 8),
)
SEED = 13


def probe(checkout: str, workload: str) -> dict:
    sys.path[:0] = [str(Path(checkout) / "src"), checkout]
    from benchmarks.e2e.harness import POOL_FACTOR, POPULATION_SEED
    from repro.datasets import amzn_like, constraint, nyt_like
    from repro.fst import make_kernel
    from repro.sequences import as_mining_records, preprocess, record_parts

    (_name, dataset, size, name, sigma), = [w for w in WORKLOADS if w[0] == workload]
    generator = {"NYT": nyt_like, "AMZN": amzn_like}[dataset]
    population = generator(round(size * POOL_FACTOR), seed=POPULATION_SEED)
    pool = population.raw_sequences
    chosen = sorted(random.Random(SEED).sample(range(len(pool)), size))
    dictionary, database = preprocess([pool[i] for i in chosen], population.hierarchy)
    fids = sorted({item for record in as_mining_records(database) for item in record_parts(record)[0]})
    fst = constraint(name, sigma).patex().compile(dictionary)
    kernel = make_kernel(fst, dictionary)
    started = time.perf_counter()
    rows = [kernel.edge_rows(fid) for fid in fids]
    cold = time.perf_counter() - started
    return {
        "workload": workload,
        "constraint": f"{name}(sigma={sigma})",
        "fst_states": kernel.num_states,
        "distinct_fids": len(fids),
        "match_classes": len({kernel._match_rows(fid) for fid in fids}),
        "edge_row_classes": len(set(rows)),
        "cold_edge_rows_s": round(cold, 4),
    }


def main(checkout: str, out: str) -> None:
    for workload, *_rest in WORKLOADS:
        line = subprocess.run(
            [sys.executable, __file__, "one", checkout, workload],
            cwd=checkout, check=True, capture_output=True, text=True,
        ).stdout.strip().splitlines()[-1]
        print(line, flush=True)
        with open(out, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")


if __name__ == "__main__":
    if sys.argv[1] == "one":
        print(json.dumps(probe(sys.argv[2], sys.argv[3])))
    else:
        main(sys.argv[1], sys.argv[2])
