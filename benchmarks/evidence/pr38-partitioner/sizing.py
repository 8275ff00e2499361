"""Fresh-process sizing of the reduce partitioners on skewed AMZN-like corpora.

    python sizing.py run CHECKOUT USERS ROUNDS OUT.jsonl [EXPONENT ...]
    python sizing.py summarize OUT.jsonl

``run`` needs a checkout whose ``ClusterConfig`` still has ``partitioner`` and
``plan_sample`` (the commit before they were removed).  For every Zipf
exponent it draws an AMZN-like corpus of ``USERS`` users (seed 13) in which
each department's product popularity follows that exponent in place of the
generator's 1.1, writes it under ``CHECKOUT/.sizing/``, and then, ``ROUNDS``
times over, runs each query under each variant in a fresh Python process:
``hash``, ``planned`` and ``planned`` with ``plan_sample=0.1``, on
``persistent-processes`` x 2 workers.  The order of the variants rotates from
round to round.  One JSON line per run: the wall seconds from spawn to exit,
the pattern digest, the shuffle bytes per reduce bucket and the balance
figures.  ``summarize`` prints median [q1, q3] per cell, the heaviest hash
bucket's share of the shuffle bytes, and the decision rule's verdict: a plan
is kept only if its median beats ``hash``'s by more than ``hash``'s
interquartile distance in some cell.

The query runner (``query``) is this file run under the checkout's
``PYTHONPATH``; it builds ``ClusterConfig`` with typed values (a
``plan_sample`` passed as the string ``"0.1"`` is accepted by the parent's
config and then fails inside its planner).  Nothing here is imported by the
benchmark or the tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

SEED = 13
WORKERS = 2
BACKEND = "persistent-processes"
QUERIES = (("dseq", "A1", 8), ("dcand", "A3", 8))
VARIANTS = {
    "hash": {"partitioner": "hash"},
    "planned": {"partitioner": "planned"},
    "planned-0.1": {"partitioner": "planned", "plan_sample": 0.1},
}


def generate(exponent: float, users: int, directory: str) -> None:
    """Write ``sequences.txt`` / ``dictionary.json`` of a skewed corpus."""
    import repro.datasets.amzn as amzn
    from repro.sequences import preprocess, save_sequences, write_dictionary

    skew = exponent

    class SkewedZipf(amzn.ZipfSampler):
        def __init__(self, population, exponent, rng):
            super().__init__(population, skew, rng)

    amzn.ZipfSampler = SkewedZipf
    dataset = amzn.amzn_like(users, seed=SEED)
    dictionary, _database = preprocess(dataset.raw_sequences, dataset.hierarchy)
    os.makedirs(directory, exist_ok=True)
    save_sequences(os.path.join(directory, "sequences.txt"), dataset.raw_sequences, "text")
    write_dictionary(os.path.join(directory, "dictionary.json"), dictionary)


def query(directory: str, algorithm: str, key: str, sigma: int, variant: str) -> None:
    """Mine one query the way ``repro mine`` does; print one JSON line."""
    import repro.api
    from repro.datasets import constraint
    from repro.mapreduce import ClusterConfig
    from repro.sequences import SequenceDatabase, load_sequences, read_dictionary

    dictionary = read_dictionary(os.path.join(directory, "dictionary.json"))
    database = SequenceDatabase.from_gid_sequences(
        dictionary, load_sequences(os.path.join(directory, "sequences.txt"), None)
    )
    config = ClusterConfig(backend=BACKEND, num_workers=WORKERS, **VARIANTS[variant])
    result = repro.api.mine(
        repro.api.Corpus(database, dictionary),
        constraint(key, sigma),
        algorithm=algorithm,
        config=config,
    )
    lines = "".join(
        f"{' '.join(dictionary.decode(pattern))}\t{frequency}\n"
        for pattern, frequency in result.sorted_patterns()
    )
    metrics = result.metrics
    print(json.dumps({
        "sequences": len(database),
        "patterns": len(result),
        "digest": hashlib.sha256(lines.encode()).hexdigest()[:16],
        "shuffle_bytes": metrics.shuffle_bytes,
        "bucket_bytes": {str(k): v for k, v in sorted(metrics.reduce_bucket_bytes.items())},
        "partition_imbalance": round(metrics.partition_imbalance, 3),
        "modeled_straggler_seconds": metrics.modeled_straggler_seconds,
    }))


def run(checkout: str, users: int, rounds: int, out: str, exponents: list[float]) -> None:
    checkout = os.path.abspath(checkout)
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    for exponent in exponents:
        corpus = os.path.join(checkout, ".sizing", f"amzn-{users}-zipf{exponent}")
        subprocess.run(
            [sys.executable, __file__, "generate", str(exponent), str(users), corpus],
            env=env, check=True,
        )
        names = list(VARIANTS)
        for round_index in range(rounds):
            shift = round_index % len(names)
            order = names[shift:] + names[:shift]
            for algorithm, key, sigma in QUERIES:
                for variant in order:
                    started = time.perf_counter()
                    process = subprocess.run(
                        [sys.executable, __file__, "query", corpus, algorithm, key,
                         str(sigma), variant],
                        env=env, capture_output=True, text=True,
                    )
                    wall = time.perf_counter() - started
                    record = {
                        "exponent": exponent,
                        "users": users,
                        "query": f"{algorithm} {key} s={sigma}",
                        "variant": variant,
                        "round": round_index,
                        "wall_s": round(wall, 4),
                        "returncode": process.returncode,
                    }
                    if process.returncode == 0:
                        record.update(json.loads(process.stdout.strip().splitlines()[-1]))
                    else:
                        record["stderr"] = process.stderr[-400:]
                    with open(out, "a", encoding="utf-8") as handle:
                        handle.write(json.dumps(record) + "\n")
                    print(exponent, record["query"], variant, record["wall_s"], flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(sorted(values), n=4, method="inclusive")
    return statistics.median(values), q1, q3


def summarize(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    failed = [row for row in rows if row["returncode"] != 0]
    print(f"{path}: {len(rows)} runs, {len(failed)} failed")
    cells: dict[tuple, dict[str, list[dict]]] = {}
    for row in rows:
        if row["returncode"] == 0:
            cells.setdefault((row["exponent"], row["query"]), {}).setdefault(
                row["variant"], []
            ).append(row)
    keep = []
    print("| Zipf exp. | users | query | variant | wall s median [q1, q3] | n |"
          " imbalance | heaviest bucket share | digests |")
    print("|---|---|---|---|---|---|---|---|---|")
    for (exponent, name), variants in sorted(cells.items()):
        hash_median, hash_q1, hash_q3 = quartiles([r["wall_s"] for r in variants["hash"]])
        for variant in VARIANTS:
            runs = variants.get(variant, [])
            if not runs:
                continue
            median, q1, q3 = quartiles([r["wall_s"] for r in runs])
            shares = {
                round(max(r["bucket_bytes"].values()) / sum(r["bucket_bytes"].values()), 3)
                for r in runs
            }
            imbalances = {r["partition_imbalance"] for r in runs}
            digests = {r["digest"] for r in runs}
            print(
                f"| {exponent} | {runs[0]['users']} | {name} | {variant} | "
                f"{median:.3f} [{q1:.3f}, {q3:.3f}] | {len(runs)} | "
                f"{', '.join(map(str, sorted(imbalances)))} | "
                f"{', '.join(map(str, sorted(shares)))} | {', '.join(sorted(digests))} |"
            )
            if variant != "hash" and hash_median - median > hash_q3 - hash_q1:
                keep.append((exponent, name, variant))
    all_digests = {
        key: {r["digest"] for runs in variants.values() for r in runs}
        for key, variants in cells.items()
    }
    print("one digest per cell:", all(len(d) == 1 for d in all_digests.values()))
    print("hash raw repeat minimum (s):", {
        f"{e} {n}": min(r["wall_s"] for r in v["hash"]) for (e, n), v in sorted(cells.items())
    })
    if keep:
        print("verdict: KEEP the planner; a plan beats hash by more than its IQR in", keep)
    else:
        print("verdict: DELETE the planner; no plan beats hash by more than hash's IQR")


def main(argv: list[str]) -> None:
    command, rest = argv[0], argv[1:]
    if command == "generate":
        generate(float(rest[0]), int(rest[1]), rest[2])
    elif command == "query":
        query(rest[0], rest[1], rest[2], int(rest[3]), rest[4])
    elif command == "run":
        exponents = [float(e) for e in rest[4:]] or [2.0, 3.0]
        run(rest[0], int(rest[1]), int(rest[2]), rest[3], exponents)
    elif command == "summarize":
        summarize(rest[0])
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
