"""Command line of the end-to-end benchmark.

Two modes share one harness:

* **driver mode** — ``--workload NAME --seed N --seconds S --trace 0|1``: one
  workload, time-boxed repeats, and as the last line of stdout one JSON object
  ``{"correct", "attempted", "failed", "metrics"}`` holding every
  ``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or every
  ``per_layer`` metric (``--trace 1``).  This is what ``BENCHMARK.json``'s
  ``command`` runs.
* **suite mode** — no ``--workload``: all workloads, ``--repeats`` fresh
  repeats each plus the traced run, written as one result document;
  ``--compare OLD.json``, ``--selfcheck`` and ``--variants`` build on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from . import compare, harness, spec

SCHEMA = "repro-e2e-bench/1"

#: Repeats per workload in suite mode (the ISSUE's k >= 5).
DEFAULT_REPEATS = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", help="driver mode: run this one workload")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window of one run (driver mode)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 1 prints per-layer metrics from the traced "
                        "run; suite mode: 0 skips the traced run")
    parser.add_argument("--scale", choices=sorted(spec.SCALES), default="full",
                        help="'tiny' shrinks corpora and sigmas for the smoke test")
    parser.add_argument("--repeats", type=int, default=None,
                        help="fixed repeat count instead of a time box")
    parser.add_argument("--out", default=None, help="suite mode: result document path")
    parser.add_argument("--compare", metavar="OLD.json", default=None,
                        help="compare against OLD.json; exits 1 on any 'worse'")
    parser.add_argument("--new", metavar="NEW.json", default=None,
                        help="with --compare: use this document instead of running")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the suite twice on this checkout and compare (A/A)")
    parser.add_argument("--variants", action="store_true",
                        help="one-knob variant table; writes VARIANTS.md")
    return parser


# ------------------------------------------------------------- measurement
def measure(workload, seed: int, seconds, repeats) -> harness.WorkloadResult:
    if workload.kind == "service":
        from .service import run_service_workload

        return run_service_workload(workload, seed, seconds=seconds, repeats=repeats)
    return harness.run_mining_workload(workload, seed, seconds=seconds, repeats=repeats)


def trace(workload, seed: int) -> harness.WorkloadResult:
    if workload.kind == "service":
        from .service import run_service_workload

        result = run_service_workload(workload, seed, repeats=1, probe_layers=True)
    else:
        from .replay import trace_mining_workload

        result = trace_mining_workload(workload, seed)
    # Layer metrics are raw seconds; this says how fast the box was for them.
    result.layers["box.calibration_s"] = statistics.median(
        harness.calibration_burst() for _ in range(3)
    )
    result.layers["failed_share"] = (
        result.failed / result.attempted if result.attempted else 1.0
    )
    return result


def layer_values(result: harness.WorkloadResult, declaration: dict) -> dict[str, float]:
    """Every declared per-layer metric; 0 where the workload never enters the layer."""
    declared = spec.declared_metrics(declaration, "per_layer")
    undeclared = sorted(set(result.layers) - set(declared))
    if undeclared:
        raise spec.ContractError(f"undeclared per-layer metrics emitted: {undeclared}")
    return {name: result.layers.get(name, 0.0) for name in declared}


def _report_notes(result: harness.WorkloadResult) -> None:
    for note in result.notes[:20]:
        print(f"[{result.workload}] {note}", file=sys.stderr)


# -------------------------------------------------------------- driver mode
def run_driver(args, declaration: dict) -> int:
    """One workload; the last stdout line is the driver's JSON object.

    The line is printed whatever happened to the repeats: when all of them
    failed there is nothing to take a median of, and the metrics that could
    not be measured read ``null`` next to ``"correct": false``.
    """
    workload = spec.workload_by_name(args.workload, spec.SCALES[args.scale])
    if args.trace:
        result = trace(workload, args.seed)
        values = layer_values(result, declaration)
        section = "per_layer"
    else:
        seconds = args.seconds if args.seconds is not None else declaration["run_seconds"]
        result = measure(workload, args.seed, seconds, args.repeats)
        values = {
            name: value
            for name, value in result.medians().items()
            if name not in spec.SERVICE_METRICS
        }
        section = "end_to_end"
        # Every judged and every raw sample, so that a median can be audited.
        print(
            json.dumps({"samples": result.samples, "raw_samples": result.raw_samples}),
            file=sys.stderr,
        )
    metrics = spec.with_units(values, declaration, section, complete=False)
    unmeasured = [name for name, metric in metrics.items() if metric["value"] is None]
    if unmeasured:
        result.fail("result", [f"no measurement of {unmeasured}"])
    _report_notes(result)
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


# --------------------------------------------------------------- suite mode
def environment_stamp(args, scale: float, repeats: int) -> dict:
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(spec.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "seed": args.seed,
        "scale": scale,
        "repeats": repeats,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def workload_document(measured, traced, declaration: dict) -> dict:
    """Deterministic ``counts`` apart from ``timings``; ``layers`` from the trace.

    ``timings`` holds every declared end-to-end metric (and, for
    ``service_mix``, :data:`spec.SERVICE_METRICS`) with all raw samples; a
    metric no repeat could measure is left out, and the workload's ``failed``
    count says why.
    """
    judged = {**spec.declared_metrics(declaration, "end_to_end"), **spec.SERVICE_METRICS}
    timings = {
        name: {
            **harness.summarize(measured.samples[name]),
            "unit": judged[name]["unit"],
            "better": judged[name]["better"],
            "bound": judged[name]["bound"],
        }
        for name in judged
        if measured.samples.get(name)
    }
    for name, raw in measured.raw_samples.items():
        timings[name]["raw_samples"] = raw
        timings[name]["raw_median"] = statistics.median(raw)
    attempted = measured.attempted + (traced.attempted if traced else 0)
    failed = measured.failed + (traced.failed if traced else 0)
    document = {
        "record": measured.record,
        "counts": dict(measured.counts),
        "timings": timings,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "correct": measured.correct and (traced.correct if traced else True),
        "notes": measured.notes + (traced.notes if traced else []),
    }
    if traced:
        document["layers"] = spec.with_units(
            layer_values(traced, declaration), declaration, "per_layer"
        )
        if "trace" in traced.counts:
            document["counts"]["trace"] = traced.counts["trace"]
    return document


def run_suite(args, declaration: dict, sets: int = 1) -> list[dict]:
    """Measure the chosen workloads; one result document per set.

    With several sets (``--selfcheck``) the sets are taken workload by
    workload — set 1 then set 2 of the first workload, then of the second —
    so that a slow spell of the box falls on both sides of the comparison.
    """
    scale = spec.SCALES[args.scale]
    repeats = args.repeats if args.repeats is not None else DEFAULT_REPEATS
    documents = [
        {
            "schema": SCHEMA,
            "environment": environment_stamp(args, scale, repeats),
            "workloads": {},
        }
        for _ in range(sets)
    ]
    for name in (workload.name for workload in spec.WORKLOADS):
        workload = spec.workload_by_name(name, scale)
        for index, document in enumerate(documents, 1):
            label = f"[{name}] set {index}/{sets}:"
            print(f"{label} {repeats} repeats ...", file=sys.stderr, flush=True)
            measured = measure(workload, args.seed, None, repeats)
            _report_notes(measured)
            traced = None
            if args.trace != 0:
                print(f"{label} traced run ...", file=sys.stderr, flush=True)
                traced = trace(workload, args.seed)
                _report_notes(traced)
            document["workloads"][name] = workload_document(measured, traced, declaration)
    return documents


def write_document(document: dict, path: Path | None) -> Path:
    if path is None:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = spec.WORK_ROOT / "results" / f"e2e-{stamp}-pid{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def print_summary(document: dict) -> None:
    for name, workload in document["workloads"].items():
        print(f"\n{name}  (failed {workload['failed']}/{workload['attempted']})")
        for metric, summary in workload["timings"].items():
            print(
                f"  {metric:<20} {summary['median']:>14.4f} {summary['unit']:<6}"
                f" q1 {summary['q1']:.4f}  q3 {summary['q3']:.4f}  n={summary['n']}"
            )
        layers = workload.get("layers", {})
        busy = sorted(
            ((entry["value"], key) for key, entry in layers.items()
             if entry["unit"] == "s" and entry["value"] > 0),
            reverse=True,
        )
        for value, key in busy[:8]:
            print(f"    {key:<38} {value:>10.4f} s")


def load_document(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: not a {SCHEMA} document")
    return document


def report_comparison(old: dict, new: dict) -> int:
    rows = compare.compare_documents(old, new)
    print(compare.format_table(rows))
    failed = sum(workload["failed"] for workload in new["workloads"].values())
    if failed:
        print(f"\n{failed} failed operations in the new document")
    return 1 if failed else compare.exit_code(rows)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    harness.require_source_tree()
    declaration = spec.load_declaration()
    spec.check_workload_names(declaration)
    # Everything the harness itself (not a child) writes through tempfile
    # stays inside the checkout too.
    spec.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=spec.WORK_ROOT)
    tempfile.tempdir = scratch
    try:
        if args.workload:
            return run_driver(args, declaration)
        if args.variants:
            from .variants import run_variants

            return run_variants(args)
        if args.compare and args.new:
            return report_comparison(load_document(args.compare), load_document(args.new))
        document, *second = run_suite(args, declaration, sets=2 if args.selfcheck else 1)
        path = write_document(document, Path(args.out) if args.out else None)
        print_summary(document)
        print(f"\nresult document: {path}")
        if args.selfcheck:
            write_document(second[0], path.with_name(path.stem + "-second.json"))
            return report_comparison(document, second[0])
        if args.compare:
            return report_comparison(load_document(args.compare), document)
        return 1 if any(w["failed"] for w in document["workloads"].values()) else 0
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
