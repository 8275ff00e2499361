"""Spill file vs fragment store: what one map task's stored payloads cost.

    python sizing.py run CHECKOUT OUT.jsonl [ROUNDS]
    python sizing.py summarize OUT.jsonl

A sample is the milliseconds one map task spends writing ``count`` payloads
of ``size`` random bytes past a zero spill budget and one reduce side reading
them all back, on a local disk, in this one process.  Two shapes: 16 × 4 KB
and 64 × 20 KB (a map task has at most ``num_reduce_tasks`` payloads).  The
variants are what the checkout has:

- ``spill-file`` (a tree with ``SpillWriter``): ``store_payloads(…, 0, dir)``
  appends to one per-task spill file, a ``FragmentReader`` reads every slice
  back, and the file is removed;
- ``blob``: every payload is put into a ``DirectoryBlobStore`` under its
  ``content_key`` and read back with ``get_with_retry``.  A tree with a
  ``FragmentStore`` does this through its own ``store_payloads`` and
  ``FragmentReader.read_many``; an older tree through ``content_key`` +
  ``put_with_retry`` + ``get_with_retry`` directly.

Every round runs each (shape, variant) once, the first variant alternating
between rounds; one JSON line is appended per sample.  ``summarize`` prints
median [q1, q3] per (checkout, shape, variant) and the per-payload
difference of the medians.  Nothing here is imported by the benchmark or the
tests.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SHAPES = ((16, 4 * 1024), (64, 20 * 1024))


def run(checkout: str, out: str, rounds: int) -> None:
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src")]
    from repro.mapreduce import spill
    from repro.mapreduce.blobstore import (
        DirectoryBlobStore,
        content_key,
        get_with_retry,
        put_with_retry,
    )

    def spill_file(directory: str, payloads: list[bytes]) -> None:
        encoded = ((index, blob, 1) for index, blob in enumerate(payloads))
        fragments, path = spill.store_payloads(encoded, 0, directory)
        with spill.FragmentReader() as reader:
            for _index, fragment in fragments:
                reader.read(fragment)
        spill.remove_spill_files([path])

    def blob(directory: str, payloads: list[bytes]) -> None:
        store = DirectoryBlobStore(directory)
        if hasattr(spill, "FragmentStore"):
            encoded = ((index, blob, 1) for index, blob in enumerate(payloads))
            namespace = spill.FragmentStore(store, "job")
            fragments, _stats = spill.store_payloads(encoded, 0, namespace)
            with spill.FragmentReader(store) as reader:
                for _payload in reader.read_many([f for _index, f in fragments]):
                    pass
        else:
            keys = []
            for payload in payloads:
                key = content_key(payload, "job")
                put_with_retry(store, key, payload)
                keys.append(key)
            for key in keys:
                get_with_retry(store, key)

    variants = {"blob": blob}
    if hasattr(spill, "SpillWriter"):
        variants["spill-file"] = spill_file
    names = sorted(variants)
    scratch = tempfile.mkdtemp(prefix="fragment-sizing-")
    try:
        with open(out, "a") as sink:
            for round_index in range(rounds):
                order = names if round_index % 2 == 0 else names[::-1]
                for count, size in SHAPES:
                    payloads = [os.urandom(size) for _ in range(count)]
                    for name in order:
                        directory = tempfile.mkdtemp(dir=scratch)
                        started = time.perf_counter()
                        variants[name](directory, payloads)
                        elapsed_ms = (time.perf_counter() - started) * 1000
                        shutil.rmtree(directory)
                        sink.write(
                            json.dumps(
                                {
                                    "checkout": root.name,
                                    "shape": f"{count}x{size // 1024}KB",
                                    "count": count,
                                    "variant": name,
                                    "round": round_index,
                                    "ms": elapsed_ms,
                                }
                            )
                            + "\n"
                        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def summarize(path: str) -> None:
    cells: dict[tuple[str, str, str], list[float]] = {}
    counts: dict[str, int] = {}
    for line in open(path):
        row = json.loads(line)
        cells.setdefault((row["checkout"], row["shape"], row["variant"]), []).append(row["ms"])
        counts[row["shape"]] = row["count"]
    medians = {}
    for (checkout, shape, variant), samples in sorted(cells.items()):
        q1, median, q3 = statistics.quantiles(samples, n=4)
        medians[checkout, shape, variant] = median
        print(
            f"{checkout}  {shape:>9}  {variant:<10}  n={len(samples):<3} "
            f"median {median:7.3f} ms  [{q1:7.3f}, {q3:7.3f}]"
        )
    for (checkout, shape, variant), median in sorted(medians.items()):
        if variant == "blob" and (checkout, shape, "spill-file") in medians:
            extra = (median - medians[checkout, shape, "spill-file"]) / counts[shape]
            print(f"{checkout}  {shape:>9}  blob − spill-file: {extra:+.3f} ms a payload")


if __name__ == "__main__":
    if sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3], int(sys.argv[4]) if len(sys.argv) > 4 else 40)
    elif sys.argv[1] == "summarize":
        summarize(sys.argv[2])
    else:  # pragma: no cover - usage error
        raise SystemExit(__doc__)
