"""Alternated parent/change *traced* driver runs of one workload, and their summary.

    python traced_pairs.py run PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS OUT.jsonl
    python traced_pairs.py summarize OUT.jsonl METRIC[,METRIC...]

``run`` starts ``python3 -m benchmarks.e2e --workload W --seed N --seconds 30
--trace 1`` in the two checkouts in turn (parent first in even pairs, change
first in odd ones) and appends one JSON line per run holding every metric of
the last stdout line (per-layer seconds are raw, not judged).  ``summarize``
prints one markdown row per metric: both sides' median [q1, q3], the delta of
the medians and in how many pairs the change read lower.  The untraced
end-to-end pairs are made by ``pairs.py`` beside this file.  Nothing here is
imported by the benchmark or the tests.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys


def run(parent: str, change: str, workload: str, seed: str, pairs: int, out: str) -> None:
    sides = {"parent": parent, "change": change}
    for index in range(pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            done = subprocess.run(
                ["python3", "-m", "benchmarks.e2e", "--workload", workload, "--seed", seed,
                 "--seconds", "30", "--trace", "1"],
                cwd=sides[side], capture_output=True, text=True,
            )
            last = json.loads(done.stdout.strip().splitlines()[-1])
            record = {
                "side": side,
                "pair": index,
                "correct": last["correct"],
                "attempted": last["attempted"],
                "failed": last["failed"],
                "layers": {name: cell["value"] for name, cell in last["metrics"].items()},
            }
            with open(out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            print(index, side, flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _q2, q3 = statistics.quantiles(sorted(values), n=4, method="inclusive")
    return statistics.median(values), q1, q3


def summarize(path: str, metrics: list[str]) -> None:
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    pairs = max(row["pair"] for row in rows) + 1
    print(
        f"{path}: {len(rows)} runs, failed {sum(r['failed'] for r in rows)}"
        f"/{sum(r['attempted'] for r in rows)}, all correct: {all(r['correct'] for r in rows)}"
    )

    def cell(side: str, pair: int, metric: str) -> float:
        return next(r for r in rows if r["side"] == side and r["pair"] == pair)["layers"][metric]

    for metric in metrics:
        old = quartiles([cell("parent", pair, metric) for pair in range(pairs)])
        new = quartiles([cell("change", pair, metric) for pair in range(pairs)])
        lower = sum(
            cell("change", pair, metric) < cell("parent", pair, metric) for pair in range(pairs)
        )
        delta = f"{100 * (new[0] - old[0]) / old[0]:+.1f}%" if old[0] else "n/a"
        print(
            f"| `{metric}` | {old[0]:.4g} [{old[1]:.4g}, {old[2]:.4g}] "
            f"| {new[0]:.4g} [{new[1]:.4g}, {new[2]:.4g}] | {delta} | {lower}/{pairs} |"
        )


if __name__ == "__main__":
    if sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5], int(sys.argv[6]), sys.argv[7])
    else:
        summarize(sys.argv[2], sys.argv[3].split(","))
