"""Compare two result documents: the regression rule, as a table and an exit code.

Per workload and end-to-end metric the verdict is

* ``worse`` — the new median is worse than the old by more than the metric's
  bound (from ``BENCHMARK.json``; ``spec.SERVICE_METRICS`` for the three
  figures only ``service_mix`` has);
* ``better`` — it is better by more than the old runs' own spread;
* ``within-bound`` — neither;
* ``unresolved`` — the run-to-run spread (distance between quartiles, as a
  share of the old median) exceeds the bound, so the data cannot tell — unless
  every new run is better (``better``) or every new run is worse (``worse``)
  than every old run.

Deterministic ``counts`` (bytes, records, patterns, digests) must be equal
when both documents were made from the same seed and scale; a difference is
reported as ``worse``.  Any ``worse`` makes the exit code non-zero.
"""

from __future__ import annotations

#: Counts that name run-time artefacts rather than properties of the result.
_UNCOMPARED_COUNTS = {"trace"}


def _signed_worsening(old: float, new: float, better: str) -> float:
    """Relative change of the median, positive when the metric got worse."""
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def verdict_for(old: dict, new: dict, better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)`` for one metric's two summaries."""
    worsening = _signed_worsening(old["median"], new["median"], better)
    base = abs(old["median"]) or 1.0
    spread = max(old["q3"] - old["q1"], new["q3"] - new["q1"]) / base
    old_samples, new_samples = old["samples"], new["samples"]
    if better == "lower":
        all_better = max(new_samples) < min(old_samples)
        all_worse = min(new_samples) > max(old_samples)
    else:
        all_better = min(new_samples) > max(old_samples)
        all_worse = max(new_samples) < min(old_samples)
    if spread > bound:
        if all_better:
            return "better", worsening, spread
        if all_worse and worsening > bound:
            return "worse", worsening, spread
        return "unresolved", worsening, spread
    if worsening > bound:
        return "worse", worsening, spread
    old_spread = (old["q3"] - old["q1"]) / base
    if -worsening > old_spread:
        return "better", worsening, spread
    return "within-bound", worsening, spread


def compare_documents(old: dict, new: dict) -> list[dict]:
    """One row per workload x judged metric, plus one per unequal count.

    Unit, direction and bound of a metric are read from the new document's
    own ``timings`` entry, which took them from ``BENCHMARK.json``.
    """
    same_inputs = all(
        old["environment"].get(key) == new["environment"].get(key)
        for key in ("seed", "scale")
    )
    rows: list[dict] = []
    for name, new_workload in new["workloads"].items():
        old_workload = old["workloads"].get(name)
        if old_workload is None:
            continue
        for metric, new_summary in new_workload["timings"].items():
            old_summary = old_workload["timings"].get(metric)
            if not old_summary:
                continue
            entry = new_summary
            verdict, worsening, spread = verdict_for(
                old_summary, new_summary, entry["better"], entry["bound"]
            )
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "unit": entry["unit"],
                    "old": old_summary,
                    "new": new_summary,
                    "bound": entry["bound"],
                    "worsening": worsening,
                    "spread": spread,
                    "verdict": verdict,
                }
            )
        if same_inputs:
            for key in sorted(set(old_workload["counts"]) | set(new_workload["counts"])):
                if key in _UNCOMPARED_COUNTS:
                    continue
                before = old_workload["counts"].get(key)
                after = new_workload["counts"].get(key)
                if before != after:
                    rows.append(
                        {
                            "workload": name,
                            "metric": f"counts.{key}",
                            "old_value": before,
                            "new_value": after,
                            "verdict": "worse",
                        }
                    )
        if new_workload["failed"] > old_workload["failed"]:
            rows.append(
                {
                    "workload": name,
                    "metric": "failed",
                    "old_value": old_workload["failed"],
                    "new_value": new_workload["failed"],
                    "verdict": "worse",
                }
            )
    return rows


def _cell(summary: dict) -> str:
    return f"{summary['median']:.4g} [{summary['q1']:.4g}, {summary['q3']:.4g}] n={summary['n']}"


def format_table(rows: list[dict]) -> str:
    header = (
        f"{'workload':<15} {'metric':<20} {'old median [q1, q3]':<36} "
        f"{'new median [q1, q3]':<36} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        if "old" in row:
            lines.append(
                f"{row['workload']:<15} {row['metric']:<20} {_cell(row['old']):<36} "
                f"{_cell(row['new']):<36} {row['worsening']:>+9.1%} {row['spread']:>7.1%} "
                f"{row['bound']:>6.0%}  {row['verdict']}"
            )
        else:
            lines.append(
                f"{row['workload']:<15} {row['metric']:<20} {str(row['old_value']):<36.36} "
                f"{str(row['new_value']):<36.36} {'':>9} {'':>7} {'exact':>6}  {row['verdict']}"
            )
    return "\n".join(lines)


def exit_code(rows: list[dict]) -> int:
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
