"""``--variants``: the two D-SEQ workloads re-run with one knob flipped per row.

Not part of the default run and not part of ``BENCHMARK.json``: this is the
re-measurement table the ROADMAP's knob-collapse item needs, made with the
same timed unit (fresh process, k repeats, median and quartiles).  Rows are
measured round-robin — one repeat of every variant per round — so that the
minutes-long fast and slow spells of a shared box fall on all rows alike and
the ratios between rows survive them.  A knob the code no longer accepts is
reported as ``removed`` — the expected outcome once that item lands — not as
a failure.  Output: ``benchmarks/e2e/VARIANTS.md``.
"""

from __future__ import annotations

import platform
import shutil
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, spec
from .run_query import EXIT_KNOB_REMOVED

VARIANTS_MD = Path(__file__).resolve().with_name("VARIANTS.md")

VARIANT_WORKLOADS = ("nyt_n4_dseq", "nyt_n1_scan")

#: (row label, knobs handed to run_query.py, backend override).
VARIANTS = (
    ("baseline", (), None),
    ("kernel=interpreted", (("kernel", "interpreted"),), None),
    ("grid=legacy", (("grid", "legacy"),), None),
    ("map_batching=trie", (("map_batching", "trie"),), None),
    ("dedup=False", (("dedup", False),), None),
    ("partitioner=planned", (("partitioner", "planned"),), None),
    ("backend=processes", (), "processes"),
)

DEFAULT_REPEATS = 5


def measure_workload(workload, seed: int, repeats: int) -> dict[str, dict]:
    """``label -> cell`` for every variant of ``workload``, rounds interleaved."""
    workdir = harness.workdir_for(workload.name, seed)
    files = harness.generate_corpus(workload.dataset, workload.size, seed, workdir / "corpus")
    expected, _count = harness.oracle_digest(
        harness.load_corpus(files), workload.constraint, workload.sigma
    )

    runs: dict[str, list] = {label: [] for label, _knobs, _backend in VARIANTS}
    scales: dict[str, list[float]] = {label: [] for label, _knobs, _backend in VARIANTS}
    removed: set[str] = set()
    box = harness.BoxSpeed()
    for round_index in range(repeats):
        print(f"[{workload.name}] round {round_index + 1}/{repeats} ...",
              file=sys.stderr, flush=True)
        for label, knobs, backend in VARIANTS:
            if label in removed:
                continue
            variant = workload if backend is None else replace(workload, backend=backend)
            run = harness.run_query_once(variant, files, workdir, knobs)
            scales[label].append(box.factor())
            if run.returncode == EXIT_KNOB_REMOVED:
                scales[label].pop()
                removed.add(label)
                continue
            runs[label].append(run)
    shutil.rmtree(workdir, ignore_errors=True)

    cells: dict[str, dict] = {}
    for label, _knobs, _backend in VARIANTS:
        if label in removed:
            cells[label] = {"status": "removed"}
            continue
        problems = [p for run in runs[label] for p in run.problems(expected)]
        if problems:
            cells[label] = {"status": "failed", "notes": problems[:3]}
            continue
        reports = [run.report for run in runs[label]]
        judged = list(zip(runs[label], scales[label]))
        cells[label] = {
            "status": "ok",
            # The benchmark's own definitions: judged at the reference box speed.
            "wall": harness.summarize([run.wall_s * scale for run, scale in judged]),
            "cpu_s": statistics.median(run.cpu_s * scale for run, scale in judged),
            "raw_wall_s": statistics.median(run.wall_s for run in runs[label]),
            "map_stage_s": statistics.median(r["metrics"]["map_seconds"] for r in reports),
            "reduce_stage_s": statistics.median(
                r["metrics"]["reduce_seconds"] for r in reports
            ),
            "wire_bytes": reports[-1]["metrics"]["wire_bytes"],
        }
    return cells


def _row(label: str, cell: dict, baseline: dict | None) -> str:
    if cell["status"] != "ok":
        detail = "; ".join(cell.get("notes", []))
        return f"| `{label}` | {cell['status']} | | | | | | | | {detail} |"
    wall = cell["wall"]
    ratio = ""
    if baseline and baseline["status"] == "ok":
        ratio = f"{wall['median'] / baseline['wall']['median']:.2f}x"
    return (
        f"| `{label}` | {wall['median']:.2f} | {wall['q1']:.2f}-{wall['q3']:.2f} "
        f"| {ratio} | {cell['raw_wall_s']:.2f} | {cell['cpu_s']:.2f} | {cell['map_stage_s']:.2f} "
        f"| {cell['reduce_stage_s']:.2f} | {cell['wire_bytes']} | |"
    )


def _batched_reduce_ratios(tables: dict) -> dict[str, tuple[dict, dict]]:
    pairs = {}
    for name, cells in tables.items():
        base, trie = cells["baseline"], cells["map_batching=trie"]
        if base["status"] == "ok" and trie["status"] == "ok":
            pairs[name] = (base, trie)
    return pairs


def first_customer(tables: dict) -> list[str]:
    """Does ``BENCH_fig9c.json``'s batched-dseq ``reduce_s`` cell survive?"""
    lines = [
        "## First customer: the batched-dseq `reduce_s` cell of `BENCH_fig9c.json`",
        "",
        "`BENCH_fig9c.json` (80 sequences, one shot) records `reduce_s` 17.6 ms for "
        "the trie-batched D-SEQ row of A1(10) against 2.3 ms unbatched: a 7.6x "
        "reduce-side slowdown, or noise.  At seconds scale, k repeats, interleaved:",
        "",
    ]
    pairs = _batched_reduce_ratios(tables)
    if not pairs:
        return lines + ["**Verdict:** not measurable here — the knob is gone."]
    for name, (base, trie) in pairs.items():
        lines.append(
            f"- `{name}`: reduce stage {trie['reduce_stage_s']:.2f} s with "
            f"`map_batching=trie` vs {base['reduce_stage_s']:.2f} s without "
            f"({trie['reduce_stage_s'] / base['reduce_stage_s']:.2f}x); whole query "
            f"{trie['wall']['median']:.2f} s vs {base['wall']['median']:.2f} s "
            f"({trie['wall']['median'] / base['wall']['median']:.2f}x)."
        )
    worst = max(trie["reduce_stage_s"] / base["reduce_stage_s"] for base, trie in pairs.values())
    lines.append("")
    if worst >= 1.5:
        lines.append(
            f"**Verdict:** it survives.  The batched reduce stage is up to {worst:.1f}x "
            "the unbatched one at seconds scale, far outside the run-to-run spread: "
            "the cell recorded a real cost of the batched path, not noise (the "
            "magnitude differs because the workloads do)."
        )
    else:
        lines.append(
            f"**Verdict:** it was noise.  At seconds scale the batched reduce stage is "
            f"at most {worst:.2f}x the unbatched one, inside the run-to-run spread; "
            "the 7.6x of the 80-sequence cell does not survive."
        )
    return lines


def render(tables: dict, seed: int, repeats: int, scale: float) -> str:
    parts = [
        "# One-knob variants of the D-SEQ workloads",
        "",
        "Generated by `python -m benchmarks.e2e --variants` "
        f"(seed {seed}, scale {scale}, k = {repeats} fresh-process repeats per row, "
        f"python {platform.python_version()}, {platform.machine()}, "
        f"num_workers = {spec.NUM_WORKERS}).  Each row flips one knob against the "
        "defaults the benchmark otherwise runs with.  `mine_wall_s` and "
        "`mine_cpu_s` are the benchmark's metrics of those names — spawn-to-exit of "
        "one whole query and user+sys of its process tree, judged at the reference "
        "box speed (README, Protocol), median, then first-third quartile; `raw wall` "
        "is the median of the same repeats as measured; `map` and `reduce` are the "
        "stage times the run's own `JobMetrics` report, raw; the planning time of "
        "`partitioner=planned` is inside the wall.  Every row's patterns were "
        "checked against sequential DESQ-DFS, and `wire bytes` must not move: the "
        "knobs change how, not what.",
        "",
        "Rows were measured round-robin (one repeat of every variant per round), "
        "so a slow spell of the box slows all rows alike.  Read a ratio against "
        "the quartile columns of both rows: inside them it is not a difference.",
    ]
    for name, cells in tables.items():
        workload = spec.workload_by_name(name, scale)
        parts += [
            "",
            f"## `{name}` ({workload.dataset}-like {workload.size} sequences, "
            f"{workload.constraint} sigma={workload.sigma}, {workload.backend})",
            "",
            "| variant | mine_wall_s | q1-q3 | vs baseline | raw wall s | mine_cpu_s "
            "| map s | reduce s | wire bytes | note |",
            "|---|---|---|---|---|---|---|---|---|---|",
        ]
        baseline = cells["baseline"]
        for label, cell in cells.items():
            parts.append(_row(label, cell, None if label == "baseline" else baseline))
    parts += ["", *first_customer(tables), ""]
    return "\n".join(parts)


def run_variants(args) -> int:
    scale = spec.SCALES[args.scale]
    repeats = args.repeats if args.repeats is not None else DEFAULT_REPEATS
    tables = {
        name: measure_workload(spec.workload_by_name(name, scale), args.seed, repeats)
        for name in VARIANT_WORKLOADS
    }
    text = render(tables, args.seed, repeats, scale)
    VARIANTS_MD.write_text(text, encoding="utf-8")
    print(text)
    failed = [
        (name, label)
        for name, cells in tables.items()
        for label, cell in cells.items()
        if cell["status"] == "failed"
    ]
    for name, label in failed:
        print(f"FAILED: {name} {label}", file=sys.stderr)
    return 1 if failed else 0
