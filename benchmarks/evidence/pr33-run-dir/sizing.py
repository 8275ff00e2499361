"""Shared memory vs a file in the run directory: in-process sizing of the store path.

    python sizing.py queries CHECKOUT OUT.jsonl [ROUNDS]
    python sizing.py publish CHECKOUT OUT.jsonl [ROUNDS]
    python sizing.py summarize OUT.jsonl

Both modes load the corpora of the three e2e mining workloads (seed 13,
generated by the checkout's own ``benchmarks.e2e`` harness into a temporary
directory) and work on each workload's mining store, the unique view the
miners hand to ``Cluster.run``.  Every variant runs once per round, in this
one process, the first of them alternating between rounds; one JSON line is
appended per timed sample.

- ``queries``: one warm-up query per variant, then ``ROUNDS`` (default 10)
  rounds of ``repro.api.mine`` on the workload's own backend with 2 workers;
  a sample is the query's wall seconds, pattern count and wire bytes.
- ``publish``: publish + attach + close + release of the store, repeated
  200 times per sample; a sample is the median milliseconds of one cycle.

The variants are the store transports the checkout has: ``shm`` and
``file`` where the process backends still take ``store_transport=`` (a tree
before the shared-memory path was removed), ``file`` alone otherwise.
``summarize`` prints median [q1, q3] per (checkout, mode, workload, variant)
cell, and for ``queries`` how many rounds ``file`` won against ``shm``.  Runs
may append to one file, alternating checkouts; each cell pools its runs.
Nothing here is imported by the benchmark or the tests.
"""

from __future__ import annotations

import inspect
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SEED = 13
WORKERS = 2
WORKLOADS = ("nyt_n1_scan", "amzn_a3_dcand", "nyt_n4_dseq")
CYCLES = 200


def transports(cluster_class) -> list[str]:
    """The store transports this checkout's process backends can be asked for."""
    if "store_transport" in inspect.signature(cluster_class.__init__).parameters:
        return ["shm", "file"]
    return ["file"]


def run(mode: str, checkout: str, out: str, rounds: int) -> None:
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import repro.api
    from repro.datasets import constraint
    from repro.mapreduce import ClusterConfig, MultiHostCluster, PersistentProcessPoolCluster
    from repro.sequences import EncodedSequenceStore, as_encoded_store, as_mining_records

    from benchmarks.e2e.harness import generate_corpus, load_corpus
    from benchmarks.e2e.spec import workload_by_name

    classes = {
        "persistent-processes": PersistentProcessPoolCluster,
        "multihost": MultiHostCluster,
    }
    scratch = Path(tempfile.mkdtemp(prefix="sizing-"))
    try:
        with open(out, "a") as sink:
            for name in WORKLOADS:
                workload = workload_by_name(name)
                files = generate_corpus(workload.dataset, workload.size, SEED, scratch / name)
                corpus = load_corpus(files)
                cluster_class = classes[workload.backend]
                variants = transports(cluster_class)

                def sample(transport: str) -> dict:
                    options = {} if variants == ["file"] else {"store_transport": transport}
                    if mode == "queries":
                        cluster = cluster_class(num_workers=WORKERS, **options)
                        started = time.perf_counter()
                        result = repro.api.mine(
                            corpus,
                            constraint(workload.constraint, workload.sigma),
                            algorithm=workload.algorithm,
                            config=ClusterConfig(backend=cluster),
                        )
                        return {
                            "wall_s": time.perf_counter() - started,
                            "patterns": len(result),
                            "wire_bytes": result.metrics.wire_bytes,
                        }
                    store = as_encoded_store(as_mining_records(corpus.database))
                    publish_options = {} if variants == ["file"] else {"transport": transport}
                    cycles = []
                    for _ in range(CYCLES):
                        started = time.perf_counter()
                        handle, release = store.publish(str(scratch), **publish_options)
                        EncodedSequenceStore.attach(handle).close()
                        release()
                        cycles.append(time.perf_counter() - started)
                    return {"ms": 1000 * statistics.median(cycles), "nbytes": store.nbytes}

                for transport in variants:
                    sample(transport)  # warm-up
                for index in range(rounds):
                    # Alternate which transport goes first, as pairs.py does.
                    for transport in variants[:: 1 if index % 2 == 0 else -1]:
                        record = {
                            "mode": mode,
                            "checkout": root.name,
                            "workload": name,
                            "variant": transport,
                            "round": index,
                            **sample(transport),
                        }
                        sink.write(json.dumps(record) + "\n")
                        sink.flush()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def summarize(path: str) -> None:
    cells: dict[tuple, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        key = (record["checkout"], record["mode"], record["workload"], record["variant"])
        cells.setdefault(key, []).append(record)
    print(f"{'checkout':10} {'mode':8} {'workload':14} {'variant':7} {'n':>3} "
          f"{'median':>8} {'q1':>8} {'q3':>8}  detail")
    for (checkout, mode, workload, variant), records in cells.items():
        metric = "wall_s" if mode == "queries" else "ms"
        values = [record[metric] for record in records]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        median = statistics.median(values)
        if mode == "queries":
            detail = (
                f"patterns {sorted({r['patterns'] for r in records})} "
                f"wire_bytes {sorted({r['wire_bytes'] for r in records})}"
            )
            other = cells.get((checkout, mode, workload, "shm"))
            if variant == "file" and other:
                # Each round runs both: the n-th records of the two cells are
                # one round, however many processes appended them.
                shm = [record["wall_s"] for record in other]
                wins = sum(file_s < shm_s for shm_s, file_s in zip(shm, values))
                change = median / statistics.median(shm) - 1
                detail += f"  file won {wins}/{len(shm)} rounds, median {change:+.1%} vs shm"
        else:
            detail = f"store {records[0]['nbytes']:,} bytes, {CYCLES} cycles a sample"
        print(f"{checkout:10} {mode:8} {workload:14} {variant:7} {len(values):>3} "
              f"{median:8.4f} {q1:8.4f} {q3:8.4f}  {detail}")


if __name__ == "__main__":
    if sys.argv[1] == "summarize":
        summarize(sys.argv[2])
    else:
        run(sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]) if len(sys.argv) > 4 else 10)
