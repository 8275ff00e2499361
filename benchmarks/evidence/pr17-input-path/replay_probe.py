"""The traced replay of one workload, alone in a fresh process, with GC accounted.

    python replay_probe.py CHECKOUT [WORKLOAD] [SEED] [cpu]

``--trace 1`` pairs run a timed query and then the replay, twenty seconds
apart on a box that changes speed under them, so a layer nobody touched can
read ±30 % between the sides.  This runs *only* CHECKOUT's
``benchmarks.e2e.replay.replay_mining`` (unmodified) over CHECKOUT's own
corpus files, in a new interpreter, and prints the layers of interest with
the seconds and counts the garbage collector took per generation — alternate
the two checkouts back to back and the untouched layers can be compared at
one box speed.  One JSON line per run.  With ``cpu`` as the last argument
``time.perf_counter`` is replaced by ``time.process_time`` for the replay, to
tell time the process was not running from time it ran slowly.

``benchmarks/e2e`` is frozen while a PR claims a gain, so this probe lives
here; nothing in the benchmark or the tests imports it.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

LAYERS = (
    "sequences.database.encode_s",
    "sequences.store.dedup_s",
    "sequences.store.decode_s",
    "core.grid_engine.build_s",
    "core.local_mining.mine_s",
    "replay.wall_s",
)


def replay(root: Path, workload_name: str, seed: int, workdir: Path, count: int, items: int,
           clock: str):
    if clock == "cpu":
        time.perf_counter = time.process_time
    sys.path[:0] = [str(root / "src"), str(root)]
    from benchmarks.e2e import harness, replay as replay_module, spec

    files = harness.CorpusFiles(
        workdir / "corpus" / "sequences.txt", workdir / "corpus" / "dictionary.json",
        count, items,
    )
    seconds = [0.0, 0.0, 0.0]
    collections = [0, 0, 0]
    started = [0.0]

    def account(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            seconds[info["generation"]] += time.perf_counter() - started[0]
            collections[info["generation"]] += 1

    gc.callbacks.append(account)
    result = replay_module.replay_mining(
        spec.workload_by_name(workload_name), files, spec.NUM_WORKERS, workdir, seed
    )
    gc.callbacks.remove(account)
    print(json.dumps({
        "checkout": str(root),
        "workload": workload_name,
        "seed": seed,
        "clock": clock,
        **{name: round(result.layers[name], 4) for name in LAYERS},
        "gc_seconds_by_generation": [round(value, 4) for value in seconds],
        "gc_collections_by_generation": collections,
        "digest": result.digest[:16],
    }))


def main(checkout: str, workload_name: str, seed: int, clock: str) -> None:
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from benchmarks.e2e import harness, spec

    workload = spec.workload_by_name(workload_name)
    workdir = harness.workdir_for(f"replay-probe-{workload.name}", seed)
    files = harness.generate_corpus(workload.dataset, workload.size, seed, workdir / "corpus")
    try:
        subprocess.run(
            [sys.executable, __file__, "--replay", str(root), workload_name, str(seed),
             str(workdir), str(files.count), str(files.items), clock],
            check=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    arguments = sys.argv[1:]
    if arguments[0] == "--replay":
        _flag, root, name, seed, workdir, count, items, clock = arguments
        replay(Path(root), name, int(seed), Path(workdir), int(count), int(items), clock)
    else:
        main(
            arguments[0],
            arguments[1] if len(arguments) > 1 else "nyt_n1_scan",
            int(arguments[2]) if len(arguments) > 2 else 13,
            arguments[3] if len(arguments) > 3 else "wall",
        )
