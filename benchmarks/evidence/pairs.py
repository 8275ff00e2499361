"""Alternated parent/change driver runs of one workload, and their summary.

    python pairs.py run PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS OUT.jsonl
    python pairs.py summarize OUT.jsonl

``run`` first byte-compiles ``src`` and ``benchmarks`` in both checkouts
(``python3 -m compileall -q``, which writes bytecode even under
``PYTHONDONTWRITEBYTECODE=1``), so neither side recompiles stale modules in
every run.  It then starts ``python3 -m benchmarks.e2e --workload W --seed N
--seconds 30 --trace 0`` in the two checkouts in turn (parent first in even
pairs, change first in odd ones) and appends one JSON line per run: the
judged medians of the last stdout line and the medians of the raw samples on
stderr.
``summarize`` prints, per metric, both sides' median [q1, q3], n, the delta of
the medians, the parent's interquartile distance and how many pairs the change
won.  Nothing here is imported by the benchmark or the tests.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

METRICS = (
    "mine_wall_s",
    "mine_cpu_s",
    "input_seqs_per_s",
    "setup_s",
    "peak_rss_mb",
    "shuffle_wire_bytes",
)


def run_once(directory: str, side: str, workload: str, seed: str) -> dict:
    process = subprocess.run(
        ["python3", "-m", "benchmarks.e2e", "--workload", workload, "--seed", seed,
         "--seconds", "30", "--trace", "0"],
        cwd=directory, capture_output=True, text=True,
    )
    last = json.loads(process.stdout.strip().splitlines()[-1])
    samples = json.loads(process.stderr.strip().splitlines()[-1])
    return {
        "side": side,
        "workload": workload,
        "seed": seed,
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "judged": {name: cell["value"] for name, cell in last["metrics"].items()},
        "raw_median": {
            name: statistics.median(values)
            for name, values in samples.get("raw_samples", {}).items()
        },
    }


def run(parent: str, change: str, workload: str, seed: str, pairs: int, out: str) -> None:
    sides = {"parent": parent, "change": change}
    for directory in sides.values():
        subprocess.run(
            ["python3", "-m", "compileall", "-q", "src", "benchmarks"], cwd=directory, check=True
        )
    for index in range(pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            record = run_once(sides[side], side, workload, seed)
            with open(out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            print(index, side, record["judged"]["mine_wall_s"], flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _q2, q3 = statistics.quantiles(sorted(values), n=4, method="inclusive")
    return statistics.median(values), q1, q3


def summarize(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    pairs = [(rows[i], rows[i + 1]) for i in range(0, len(rows) - 1, 2)]
    print(
        f"{path}: {len(rows)} runs, failed {sum(r['failed'] for r in rows)}"
        f"/{sum(r['attempted'] for r in rows)}, all correct: {all(r['correct'] for r in rows)}"
    )
    for kind in ("judged", "raw_median"):
        for metric in METRICS:
            if metric not in rows[0][kind]:
                continue
            old = [r[kind][metric] for r in rows if r["side"] == "parent"]
            new = [r[kind][metric] for r in rows if r["side"] == "change"]
            old_median, old_q1, old_q3 = quartiles(old)
            new_median, new_q1, new_q3 = quartiles(new)
            lower_is_better = metric != "input_seqs_per_s"
            wins = 0
            for first, second in pairs:
                before, after = (first, second) if first["side"] == "parent" else (second, first)
                if after[kind][metric] != before[kind][metric]:
                    wins += (after[kind][metric] < before[kind][metric]) == lower_is_better
            print(
                f"  {kind:10s} {metric:18s} parent {old_median:.4g} [{old_q1:.4g}, {old_q3:.4g}]"
                f" n={len(old)}  change {new_median:.4g} [{new_q1:.4g}, {new_q3:.4g}] n={len(new)}"
                f"  delta {100 * (new_median - old_median) / old_median:+.1f}%"
                f"  parent IQR {old_q3 - old_q1:.3g}  change wins {wins}/{len(pairs)}"
            )


if __name__ == "__main__":
    if sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5], int(sys.argv[6]), sys.argv[7])
    else:
        summarize(sys.argv[2])
