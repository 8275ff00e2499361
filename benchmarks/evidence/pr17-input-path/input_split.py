"""Where the input path of one query spends its time, measured in-process.

    python input_split.py CHECKOUT [WORKLOAD] [SEED] [ROUNDS]

Generates WORKLOAD's corpus (default ``nyt_n1_scan``, seed 13) with CHECKOUT's
own ``benchmarks.e2e`` harness and walks the path every query takes from its
two files to the records a map task sees, with CHECKOUT's ``src/``, one clock
bracket per step:

    read_dictionary   ``sequences.io.read_dictionary``
    load              ``load_sequences`` (text lines -> gid tuples)
    encode            ``SequenceDatabase.from_gid_sequences`` (gid -> fid)
    pack              ``EncodedSequenceStore.from_sequences`` (the block)
    unique_view       the dedup grouping over the packed block
    publish_attach    ``publish`` + ``attach`` + ``close`` + ``release``
    decode            full iteration of the *attached* unique view — what the
                      workers of a ``persistent-processes`` job do between them

ROUNDS whole walks are made (default 7), each over fresh objects; the median
of every step is printed as one JSON line with the block sizes and a digest
of the decoded records, which must be equal between two checkouts.

``benchmarks/e2e`` is frozen while a PR claims a gain, so this split lives
here; nothing in the benchmark or the tests imports it.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path


def main(checkout: str, workload_name: str, seed: int, rounds: int) -> None:
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from benchmarks.e2e import harness, spec
    from repro.sequences import (
        EncodedSequenceStore,
        SequenceDatabase,
        load_sequences,
        read_dictionary,
    )

    workload = spec.workload_by_name(workload_name)
    workdir = harness.workdir_for(f"input-split-{workload.name}", seed)
    files = harness.generate_corpus(workload.dataset, workload.size, seed, workdir / "corpus")
    clock = time.perf_counter

    def walk() -> dict:
        row = {}
        t0 = clock()
        dictionary = read_dictionary(files.dictionary)
        t1 = clock()
        raw = load_sequences(files.sequences, None)
        t2 = clock()
        database = SequenceDatabase.from_gid_sequences(dictionary, raw)
        t3 = clock()
        store = EncodedSequenceStore.from_sequences(database)
        t4 = clock()
        unique = store.unique_view()
        t5 = clock()
        handle, release = unique.publish(str(workdir))
        try:
            attached = EncodedSequenceStore.attach(handle)
            t6 = clock()
            records = list(attached)
            t7 = clock()
            attached.close()
        finally:
            release()
        t8 = clock()
        row["read_dictionary_s"] = t1 - t0
        row["load_s"] = t2 - t1
        row["encode_s"] = t3 - t2
        row["pack_s"] = t4 - t3
        row["unique_view_s"] = t5 - t4
        row["publish_attach_s"] = (t6 - t5) + (t8 - t7)
        row["decode_s"] = t7 - t6
        digest = hashlib.sha256(repr([tuple(record) for record in records]).encode())
        row["facts"] = {
            "sequences": len(database),
            "items": sum(map(len, database)),
            "unique_records": len(records),
            "store_nbytes": store.nbytes,
            "unique_view_nbytes": unique.nbytes,
            "records_sha256": digest.hexdigest()[:16],
        }
        return row

    walk()  # imports, page cache and allocator warm, as in a timed repeat's process
    passes = [walk() for _ in range(rounds)]
    facts = passes[0].pop("facts")
    for row in passes[1:]:
        assert row.pop("facts") == facts
    report = {
        "checkout": str(root),
        "workload": workload.name,
        "seed": seed,
        "rounds": rounds,
        **facts,
        **{
            key: round(statistics.median(row[key] for row in passes), 4)
            for key in passes[0]
        },
    }
    print(json.dumps(report))
    import shutil

    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    arguments = sys.argv[1:]
    main(
        arguments[0],
        arguments[1] if len(arguments) > 1 else "nyt_n1_scan",
        int(arguments[2]) if len(arguments) > 2 else 13,
        int(arguments[3]) if len(arguments) > 3 else 7,
    )
