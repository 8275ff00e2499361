"""Fresh-process sizing of the last two knobs: corpus dedup and reduce buckets.

    python sizing.py run CHECKOUT AMZN_USERS ZIPF_USERS ROUNDS OUT.jsonl [GROUP ...]
    python sizing.py summarize OUT.jsonl

``run`` needs a checkout whose miners still take ``dedup=`` and whose
``ClusterConfig`` still has ``num_reduce_tasks`` (the commit before they were
removed).  It writes its corpora under ``CHECKOUT/.sizing/`` and then,
``ROUNDS`` times over, runs every cell of each GROUP (default: both) under
each of the group's variants, each query in a fresh Python process with the
checkout's ``src`` on ``PYTHONPATH``; the order of the variants rotates from
round to round.  The groups:

``dedup``
    ``on`` (``dedup=True``, the default) against ``off`` (``dedup=False``,
    the raw record stream), on the duplication-heavy corpus ``amzn-x3`` (the
    ``amzn_a3_dcand`` sample of ``AMZN_USERS`` users, seed 13, with the whole
    corpus written three times over) under D-SEQ A1 and D-CAND A3 at σ=24,
    and on the all-distinct controls ``nyt_n1_scan`` and ``nyt_n4_dseq``
    (the benchmark's own corpora and queries, seed 13).
``buckets``
    1x / 4x / 16x reduce buckets per worker (``num_reduce_tasks`` = ratio x
    2 workers; 4x is the default) on PR 38's Zipf-2.0 AMZN-like corpus of
    ``ZIPF_USERS`` users under D-SEQ A1 σ=8 and D-CAND A3 σ=8, and on
    ``nyt_n4_dseq``.

One JSON line per run: wall seconds from spawn to exit, the query's own
``mine_s``, pattern count and digest, wire bytes and the bucket count.
``summarize`` prints median [q1, q3] per cell and variant and applies the
decision rules fixed before any ``src/`` edit:

* dedup stays the only path if it beats ``off`` on every duplication-heavy
  cell by more than its own interquartile distance, and on no control costs
  more than ``off``'s interquartile distance; otherwise the knob stays;
* the bucket count becomes a constant if no ratio's median is below 4x's by
  more than 4x's interquartile distance in any cell; otherwise it stays.

The query runner (``query``) is this file run under the checkout's
``PYTHONPATH`` and builds ``ClusterConfig`` with typed values.  Nothing here is
imported by the benchmark or the tests.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
import time

SEED = 13
WORKERS = 2
HERE = os.path.dirname(os.path.abspath(__file__))

#: cell name -> (corpus, algorithm, constraint, sigma, backend)
CELLS = {
    "dedup": {
        "amzn-x3 dseq A1": ("amzn-x3", "dseq", "A1", 24, "persistent-processes"),
        "amzn-x3 dcand A3": ("amzn-x3", "dcand", "A3", 24, "multihost"),
        "nyt_n1_scan": ("nyt-17000", "dseq", "N1", 42, "persistent-processes"),
        "nyt_n4_dseq": ("nyt-1200", "dseq", "N4", 30, "persistent-processes"),
    },
    "buckets": {
        "zipf2 dseq A1": ("zipf2", "dseq", "A1", 8, "persistent-processes"),
        "zipf2 dcand A3": ("zipf2", "dcand", "A3", 8, "persistent-processes"),
        "nyt_n4_dseq": ("nyt-1200", "dseq", "N4", 30, "persistent-processes"),
    },
}
#: group -> variant -> (dedup, reduce buckets per worker); the first is the default
VARIANTS = {
    "dedup": {"on": (True, 4), "off": (False, 4)},
    "buckets": {"4x": (True, 4), "1x": (True, 1), "16x": (True, 16)},
}
#: the duplication-heavy corpus repeats the whole sample this many times
REPEAT = 3


def generate(kind: str, size: int, directory: str) -> None:
    """Write ``sequences.txt`` / ``dictionary.json`` of one sizing corpus."""
    from benchmarks.e2e import harness
    from repro.datasets import amzn_like, nyt_like
    from repro.sequences import preprocess, save_sequences, write_dictionary

    if kind == "zipf2":
        spec = importlib.util.spec_from_file_location(
            "pr38_sizing", os.path.join(HERE, "..", "pr38-partitioner", "sizing.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.generate(2.0, size, directory)
        return
    # The benchmark's own sample of its population (harness.generate_corpus),
    # written ``REPEAT`` times over for ``amzn-x3``.
    dataset, repeat = {"nyt": ("NYT", 1), "amzn-x3": ("AMZN", REPEAT)}[kind]
    generator = {"NYT": nyt_like, "AMZN": amzn_like}[dataset]
    population = generator(round(size * harness.POOL_FACTOR), seed=harness.POPULATION_SEED)
    pool = population.raw_sequences
    chosen = sorted(random.Random(SEED).sample(range(len(pool)), size))
    raw = [pool[index] for index in chosen] * repeat
    dictionary, _database = preprocess(raw, population.hierarchy)
    os.makedirs(directory, exist_ok=True)
    save_sequences(os.path.join(directory, "sequences.txt"), raw, "text")
    write_dictionary(os.path.join(directory, "dictionary.json"), dictionary)


def query(directory: str, algorithm: str, key: str, sigma: int, backend: str,
          dedup: bool, ratio: int) -> None:
    """Mine one query the way ``run_query.py`` does; print one JSON line."""
    started = time.perf_counter()
    import repro.api
    from repro.datasets import constraint
    from repro.mapreduce import ClusterConfig
    from repro.sequences import SequenceDatabase, load_sequences, read_dictionary

    dictionary = read_dictionary(os.path.join(directory, "dictionary.json"))
    database = SequenceDatabase.from_gid_sequences(
        dictionary, load_sequences(os.path.join(directory, "sequences.txt"), None)
    )
    loaded = time.perf_counter()
    config = ClusterConfig(
        backend=backend, num_workers=WORKERS, num_reduce_tasks=ratio * WORKERS
    )
    result = repro.api.mine(
        repro.api.Corpus(database, dictionary),
        constraint(key, sigma),
        algorithm=algorithm,
        config=config,
        dedup=dedup,
    )
    mined = time.perf_counter()
    lines = "".join(
        f"{' '.join(dictionary.decode(pattern))}\t{frequency}\n"
        for pattern, frequency in result.sorted_patterns()
    )
    metrics = result.metrics
    print(json.dumps({
        "sequences": len(database),
        "distinct": len({tuple(sequence) for sequence in database}),
        "patterns": len(result),
        "digest": hashlib.sha256(lines.encode()).hexdigest()[:16],
        "load_s": round(loaded - started, 4),
        "mine_s": round(mined - loaded, 4),
        "wire_bytes": metrics.wire_bytes,
        "buckets": len(metrics.reduce_bucket_bytes),
        "input_records": metrics.input_records,
    }))


def corpus_dir(checkout: str, corpus: str, amzn_users: int, zipf_users: int) -> tuple[str, list[str]]:
    kind, size = {
        "amzn-x3": ("amzn-x3", amzn_users),
        "zipf2": ("zipf2", zipf_users),
        "nyt-17000": ("nyt", 17000),
        "nyt-1200": ("nyt", 1200),
    }[corpus]
    return os.path.join(checkout, ".sizing", f"{corpus}-{size}"), [kind, str(size)]


def run(checkout: str, amzn_users: int, zipf_users: int, rounds: int, out: str,
        groups: list[str]) -> None:
    checkout = os.path.abspath(checkout)
    env = {**os.environ, "PYTHONPATH": f"{os.path.join(checkout, 'src')}{os.pathsep}{checkout}"}
    corpora = {cell[0] for group in groups for cell in CELLS[group].values()}
    for corpus in sorted(corpora):
        directory, args = corpus_dir(checkout, corpus, amzn_users, zipf_users)
        if not os.path.exists(os.path.join(directory, "dictionary.json")):
            subprocess.run([sys.executable, __file__, "generate", *args, directory],
                           env=env, cwd=checkout, check=True)
    for round_index in range(rounds):
        for group in groups:
            names = list(VARIANTS[group])
            shift = round_index % len(names)
            order = names[shift:] + names[:shift]
            for cell, (corpus, algorithm, key, sigma, backend) in CELLS[group].items():
                directory, _args = corpus_dir(checkout, corpus, amzn_users, zipf_users)
                for variant in order:
                    dedup, ratio = VARIANTS[group][variant]
                    started = time.perf_counter()
                    process = subprocess.run(
                        [sys.executable, __file__, "query", directory, algorithm, key,
                         str(sigma), backend, str(dedup), str(ratio)],
                        env=env, cwd=checkout, capture_output=True, text=True,
                    )
                    wall = time.perf_counter() - started
                    record = {
                        "group": group,
                        "cell": cell,
                        "corpus": os.path.basename(directory),
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
                    print(group, cell, variant, record["wall_s"], flush=True)


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
            cells.setdefault((row["group"], row["cell"]), {}).setdefault(
                row["variant"], []
            ).append(row)
    contradictions = {"dedup": [], "buckets": []}
    print("| group | cell | variant | wall s median [q1, q3] | mine_s median [q1, q3] | n |"
          " distinct / records | buckets | wire bytes | digests |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for (group, cell), variants in sorted(cells.items()):
        stats = {}
        for variant in VARIANTS[group]:
            runs = variants.get(variant, [])
            if not runs:
                continue
            stats[variant] = quartiles([r["wall_s"] for r in runs])
            mine = quartiles([r["mine_s"] for r in runs])
            median, q1, q3 = stats[variant]
            print(
                f"| {group} | {cell} | {variant} | {median:.3f} [{q1:.3f}, {q3:.3f}] | "
                f"{mine[0]:.3f} [{mine[1]:.3f}, {mine[2]:.3f}] | {len(runs)} | "
                f"{runs[0]['distinct']} / {runs[0]['sequences']} | "
                f"{', '.join(map(str, sorted({r['buckets'] for r in runs})))} | "
                f"{', '.join(map(str, sorted({r['wire_bytes'] for r in runs})))} | "
                f"{', '.join(sorted({r['digest'] for r in runs}))} |"
            )
        if group == "dedup":
            on, off = stats["on"], stats["off"]
            heavy = cell.startswith("amzn-x3")
            if heavy and not off[0] - on[0] > on[2] - on[1]:
                contradictions["dedup"].append(f"{cell}: dedup does not win beyond its IQR")
            if not heavy and on[0] - off[0] > off[2] - off[1]:
                contradictions["dedup"].append(f"{cell}: dedup costs more than off's IQR")
        else:
            default = stats["4x"]
            for variant, (median, _q1, _q3) in stats.items():
                if default[0] - median > default[2] - default[1]:
                    contradictions["buckets"].append(f"{cell}: {variant} beats 4x beyond its IQR")
    digests = {key: {r["digest"] for runs in v.values() for r in runs} for key, v in cells.items()}
    print("one digest per cell:", all(len(d) == 1 for d in digests.values()))
    print("raw repeat minimum (s):", {
        f"{g} {c}": min(r["wall_s"] for runs in v.values() for r in runs)
        for (g, c), v in sorted(cells.items())
    })
    for group, found in contradictions.items():
        if not any(key[0] == group for key in cells):
            continue
        if found:
            print(f"verdict {group}: KEEP the knob;", "; ".join(found))
        elif group == "dedup":
            print("verdict dedup: dedup becomes the only path")
        else:
            print("verdict buckets: the bucket count becomes a constant (4 per worker)")


def main(argv: list[str]) -> None:
    command, rest = argv[0], argv[1:]
    if command == "generate":
        generate(rest[0], int(rest[1]), rest[2])
    elif command == "query":
        query(rest[0], rest[1], rest[2], int(rest[3]), rest[4], rest[5] == "True", int(rest[6]))
    elif command == "run":
        run(rest[0], int(rest[1]), int(rest[2]), int(rest[3]), rest[4],
            rest[5:] or list(CELLS))
    elif command == "summarize":
        summarize(rest[0])
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
