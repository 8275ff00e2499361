"""The shuffle codec alone, on the bucket payloads of one real query.

    python codec_split.py CHECKOUT [WORKLOAD] [SEED] [ROUNDS]

Generates WORKLOAD's corpus (default ``nyt_n4_dseq``, seed 13) with CHECKOUT's
own ``benchmarks.e2e`` harness, runs the workload's query once in this process
on the ``simulated`` backend with CHECKOUT's ``src/`` (two workers, so the map
chunks — and with them the combiner's groups — are the timed query's) and
keeps every payload the map tasks hand to ``encode_bucket``.  Then times, over
those payloads and nothing else,

    encode   ``codec.encode_bucket(payload)`` for every payload
    decode   ``codec.decode_bucket(blob)`` for every blob

ROUNDS times each (default 9) and prints the medians as one JSON line with the
encoded bytes, records, items, bytes per record, how many key groups are
uniform ``(payload, weight)`` groups, and a digest of the decoded payloads,
which must be equal between two checkouts.

``benchmarks/e2e`` is frozen while a PR claims a gain, so this split lives
here; nothing in the benchmark or the tests imports it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path


def uniform(values: list) -> bool:
    """All ``(tuple, weight)`` or all ``(bytes, weight)`` pairs."""
    if not values or any(type(v) is not tuple or len(v) != 2 for v in values):
        return False
    return len({type(payload) for payload, _weight in values}) == 1 and type(
        values[0][0]
    ) in (tuple, bytes)


def main(checkout: str, workload_name: str, seed: int, rounds: int) -> None:
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    import repro.api
    from benchmarks.e2e import harness, spec
    from repro.datasets import constraint
    from repro.mapreduce import ClusterConfig, make_codec
    from repro.mapreduce.wire import CompactCodec
    from repro.sequences import SequenceDatabase, load_sequences, read_dictionary

    workload = spec.workload_by_name(workload_name)
    workdir = harness.workdir_for(f"codec-split-{workload.name}", seed)
    files = harness.generate_corpus(workload.dataset, workload.size, seed, workdir / "corpus")
    dictionary = read_dictionary(files.dictionary)
    database = SequenceDatabase.from_gid_sequences(
        dictionary, load_sequences(files.sequences, None)
    )

    payloads: list[dict] = []
    encode_bucket = CompactCodec.encode_bucket

    def capturing(self, payload):
        payloads.append(payload)
        return encode_bucket(self, payload)

    CompactCodec.encode_bucket = capturing
    try:
        result = repro.api.mine(
            repro.api.Corpus(database, dictionary),
            constraint(workload.constraint, workload.sigma),
            algorithm=workload.algorithm,
            config=ClusterConfig(backend="simulated", num_workers=spec.NUM_WORKERS),
        )
    finally:
        CompactCodec.encode_bucket = encode_bucket

    codec = make_codec("compact")
    clock = time.perf_counter
    encode_s, decode_s = [], []
    for _ in range(rounds + 1):  # the first round warms allocator and caches
        started = clock()
        blobs = [codec.encode_bucket(payload) for payload in payloads]
        encode_s.append(clock() - started)
        started = clock()
        decoded = [codec.decode_bucket(blob) for blob in blobs]
        decode_s.append(clock() - started)
    assert decoded == payloads
    groups = [values for payload in payloads for values in payload.values()]
    records = sum(map(len, groups))
    wire_bytes = sum(map(len, blobs))
    assert wire_bytes == result.metrics.wire_bytes
    print(json.dumps({
        "checkout": str(root),
        "workload": workload.name,
        "seed": seed,
        "rounds": rounds,
        "payloads": len(payloads),
        "groups": len(groups),
        "uniform_groups": sum(map(uniform, groups)),
        "records": records,
        "items": sum(len(v[0]) for values in groups if uniform(values) for v in values),
        "wire_bytes": wire_bytes,
        "bytes_per_record": round(wire_bytes / max(records, 1), 2),
        "encode_ms": round(1000 * statistics.median(encode_s[1:]), 2),
        "decode_ms": round(1000 * statistics.median(decode_s[1:]), 2),
        "payloads_sha256": hashlib.sha256(repr(decoded).encode()).hexdigest()[:16],
    }))
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    arguments = sys.argv[1:]
    main(
        arguments[0],
        arguments[1] if len(arguments) > 1 else "nyt_n4_dseq",
        int(arguments[2]) if len(arguments) > 2 else 13,
        int(arguments[3]) if len(arguments) > 3 else 9,
    )
