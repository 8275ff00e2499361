"""Which backends and ``ClusterConfig`` fields earn their place: in-process sizing.

    python substrate.py backends CHECKOUT OUT.jsonl [ROUNDS]
    python substrate.py measure  CHECKOUT OUT.jsonl [ROUNDS]
    python substrate.py codec    CHECKOUT OUT.jsonl [ROUNDS]
    python substrate.py summarize OUT.jsonl

Each mode loads the corpora of the e2e mining workloads (seed 13, generated
by the checkout's own ``benchmarks.e2e`` harness into a temporary directory),
runs one warm-up query per variant and then ``ROUNDS`` (default 5) rounds in
which every variant runs once, in turn, in this one process, with 2 workers.
It appends one JSON line per timed query: the variant, the wall seconds
around ``repro.api.mine`` and the run's blob and wire bytes.

- ``backends``: ``nyt_n4_dseq`` and ``amzn_a3_dcand`` on every backend of
  ``simulated``, ``threads`` and ``persistent-processes`` that the checkout
  still has;
- ``measure``: the three mining workloads on their own backends with
  ``measure_shuffle`` on and off (checkouts that still have the field);
- ``codec``: ``amzn_a3_dcand`` and ``nyt_n4_dseq`` on ``multihost`` with the
  ``compact`` and ``zlib`` codecs.

``summarize`` prints the median and quartiles of the wall seconds of every
(checkout, mode, workload, variant) cell, with its byte counts.
Nothing here is imported by the benchmark or the tests.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SEED = 13
WORKERS = 2


def variants(mode: str, workload, backends, fields) -> list[tuple[str, dict]]:
    """``(label, ClusterConfig fields)`` of every variant ``mode`` compares."""
    if mode == "backends":
        return [
            (name, {"backend": name})
            for name in ("simulated", "threads", "persistent-processes")
            if name in backends
        ]
    if mode == "measure":
        if "measure_shuffle" not in fields:
            return []
        return [
            (f"measure_shuffle={flag}", {"backend": workload.backend, "measure_shuffle": flag})
            for flag in (True, False)
        ]
    return [(codec, {"backend": "multihost", "codec": codec}) for codec in ("compact", "zlib")]


WORKLOADS = {
    "backends": ("nyt_n4_dseq", "amzn_a3_dcand"),
    "measure": ("nyt_n4_dseq", "amzn_a3_dcand", "nyt_n1_scan"),
    "codec": ("amzn_a3_dcand", "nyt_n4_dseq"),
}


def run(mode: str, checkout: str, out: str, rounds: int) -> None:
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import repro.api
    from repro.datasets import constraint
    from repro.mapreduce import BACKENDS, ClusterConfig

    from benchmarks.e2e.harness import generate_corpus, load_corpus
    from benchmarks.e2e.spec import workload_by_name

    fields = {field.name for field in dataclasses.fields(ClusterConfig)}
    scratch = Path(tempfile.mkdtemp(prefix="substrate-"))
    try:
        with open(out, "a") as sink:
            for name in WORKLOADS[mode]:
                workload = workload_by_name(name)
                files = generate_corpus(workload.dataset, workload.size, SEED, scratch / name)
                corpus = load_corpus(files)
                request = constraint(workload.constraint, workload.sigma)
                cells = variants(mode, workload, BACKENDS, fields)

                def query(settings: dict):
                    config = ClusterConfig(num_workers=WORKERS, **settings)
                    started = time.perf_counter()
                    result = repro.api.mine(
                        corpus, request, algorithm=workload.algorithm, config=config
                    )
                    return time.perf_counter() - started, result

                for _label, settings in cells:
                    query(settings)  # warm-up
                for index in range(rounds):
                    for label, settings in cells:
                        seconds, result = query(settings)
                        record = {
                            "mode": mode,
                            "checkout": root.name,
                            "workload": name,
                            "variant": label,
                            "round": index,
                            "wall_s": seconds,
                            "patterns": len(result),
                            "wire_bytes": result.metrics.wire_bytes,
                            "blob_put_bytes": result.metrics.blob_put_bytes,
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
    print(f"{'checkout':9} {'mode':9} {'workload':14} {'variant':24} {'n':>2} {'wall_s':>7} "
          f"{'q1':>6} {'q3':>6} {'blob_put_bytes':>14} {'wire_bytes':>10} {'patterns':>8}")
    for (checkout, mode, workload, variant), records in cells.items():
        q1, _, q3 = statistics.quantiles([r["wall_s"] for r in records], n=4)
        print(
            f"{checkout:9} {mode:9} {workload:14} {variant:24} {len(records):>2} "
            f"{statistics.median(r['wall_s'] for r in records):7.3f} {q1:6.3f} {q3:6.3f} "
            f"{statistics.median(r['blob_put_bytes'] for r in records):>14,.0f} "
            f"{statistics.median(r['wire_bytes'] for r in records):>10,.0f} "
            f"{records[0]['patterns']:>8}"
        )


if __name__ == "__main__":
    if sys.argv[1] == "summarize":
        summarize(sys.argv[2])
    else:
        run(sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]) if len(sys.argv) > 4 else 5)
