"""In-memory spans for the traced replay, and their Chrome trace-event export.

A span is ``(name, start, end, parent, workload id)``.  Work done once per
task gets a real span (:meth:`Tracer.span`); work done once per *record* is
timed with bare clock reads by the caller and folded into one span per layer
per task (:meth:`Tracer.fold`), so a trace of a 20 000-record map task holds
a handful of spans, not 60 000.  A layer's self time is its spans' duration
minus what their child spans cover.  Nothing is written until the replay has
finished.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    lane: int = 0
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one replay (one workload id)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, lane: int | None = None, **args):
        """A real span around the ``with`` body, child of the enclosing span.

        ``lane`` picks the timeline row (one per task); children inherit it.
        """
        parent = self._stack[-1] if self._stack else None
        if lane is None:
            lane = self.spans[parent].lane if parent is not None else 0
        index = len(self.spans)
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self.workload, lane, args)
        )
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def fold(self, totals: dict[str, float]) -> None:
        """Add one child span per layer for per-record time accumulated by the caller.

        The children are laid back to back from the enclosing span's start:
        their durations are measured, their positions are not.
        """
        parent = self._stack[-1]
        enclosing = self.spans[parent]
        cursor = enclosing.start
        for name, seconds in totals.items():
            self.spans.append(
                Span(name, cursor, cursor + seconds, parent, self.workload,
                     enclosing.lane, {"folded": True})
            )
            cursor += seconds

    # ------------------------------------------------------------- analysis
    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            totals[span.name] = totals.get(span.name, 0.0) + span.duration - covered[index]
        return totals

    # --------------------------------------------------------------- export
    def chrome_trace(self) -> dict:
        """Trace-event JSON (``chrome://tracing`` / Perfetto), one lane per task."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.workload,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.lane,
                "args": {**span.args, "parent": span.parent, "workload": span.workload},
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def empty_timed_call_cost(samples: int = 200_000) -> float:
    """Seconds one folded timing adds: two clock reads plus the accumulate."""
    clock = time.perf_counter
    totals = {"calibration": 0.0}
    started = clock()
    for _ in range(samples):
        before = clock()
        totals["calibration"] += clock() - before
    return (clock() - started) / samples
