"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's evaluation
(Sec. VII) on scaled-down synthetic datasets and prints the resulting rows, so
that ``pytest benchmarks/ --benchmark-only`` produces both timing numbers and
the reproduced tables/series.

Dataset sizes are kept small enough for the whole suite to finish in a few
minutes on a laptop; EXPERIMENTS.md records a run with these defaults.

Two environment variables tune the suite without touching code:

* ``REPRO_BENCH_SCALE`` — multiply every dataset size by this factor; accepts
  a float or one of the named scales ``tiny`` (0.05, the CI regression
  artifacts), ``small`` (0.25), ``full`` (1.0);
* ``REPRO_BACKEND`` — execution backend for the scalability benchmark
  (``simulated`` models the cluster; ``processes``/``persistent-processes``/
  ``multihost`` measure real wall-clock behaviour locally).

Passing ``--json [DIR]`` additionally writes machine-readable regression
artifacts (``BENCH_<name>.json``) for the benchmarks that support it —
currently the fig9c shuffle-size and table5 speed-up benchmarks, which record
makespan, modeled and measured wire bytes, and per-task input pickle bytes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.mapreduce import ClusterConfig

#: Named dataset scales accepted by ``REPRO_BENCH_SCALE``.
NAMED_SCALES = {"tiny": 0.05, "small": 0.25, "full": 1.0}


def parse_scale(raw: str) -> float:
    scale = NAMED_SCALES.get(raw.strip().lower())
    return float(raw) if scale is None else scale


#: Scale factor applied to every dataset size (e.g. ``tiny`` for the CI run).
BENCH_SCALE = parse_scale(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Dataset sizes used by the benchmark suite (smaller than the library defaults
#: so that the full suite stays fast).
BENCH_SIZES = {
    name: max(80, round(size * BENCH_SCALE))
    for name, size in {
        "NYT": 500,
        "AMZN": 1200,
        "AMZN-F": 1200,
        "CW": 800,
    }.items()
}

#: Simulated worker count (the paper's cluster has 8 workers).
BENCH_WORKERS = 8

#: The substrate of every figure benchmark: :data:`BENCH_WORKERS` modelled workers.
BENCH_CLUSTER = ClusterConfig(num_workers=BENCH_WORKERS)

#: Execution backend exercised by the scalability benchmark.
BENCH_BACKEND = os.environ.get("REPRO_BACKEND", "simulated")


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store",
        nargs="?",
        const=".",
        default=None,
        metavar="DIR",
        help="write BENCH_<name>.json regression artifacts into DIR "
        "(defaults to the current directory when given without a value)",
    )


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark and return its result.

    One round is enough to regenerate a table or figure and to emit the
    deterministic byte and record fields of ``BENCH_fig9c.json`` /
    ``BENCH_table5.json`` (CI asserts those exactly).  It is not enough to
    carry a speed claim: the timing fields of those artifacts are
    fractions of a millisecond on 80-sequence corpora, measured once, and are
    superseded by ``benchmarks/e2e`` (``python3 -m benchmarks.e2e``) —
    seconds-scale workloads, repeated, with medians and quartiles.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def bench_sizes() -> dict[str, int]:
    return dict(BENCH_SIZES)


@pytest.fixture(scope="session")
def bench_workers() -> int:
    return BENCH_WORKERS


@pytest.fixture(scope="session")
def bench_json(request):
    """Emitter for ``BENCH_<name>.json`` regression artifacts.

    Returns ``emit(name, payload)``: a no-op returning None unless ``--json``
    was passed, in which case the payload is written to
    ``DIR/BENCH_<name>.json`` (pretty-printed and key-sorted, so the byte
    fields of successive runs diff cleanly; timing fields naturally vary per
    run) and the path is returned.  Every payload is stamped with the dataset
    scale; each benchmark records its own worker count, which may differ from
    :data:`BENCH_WORKERS` (Table V simulates 64 workers).
    """
    directory = request.config.getoption("--json")

    def emit(name: str, payload: dict):
        if directory is None:
            return None
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        path = target / f"BENCH_{name}.json"
        document = {"scale": BENCH_SCALE, **payload}
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path

    return emit


@pytest.fixture(scope="session")
def bench_json_section(request):
    """Merge one section into an existing ``BENCH_<name>.json`` artifact.

    Returns ``merge(name, section, payload)``: a no-op returning None unless
    ``--json`` was passed, in which case ``payload`` is stored under the
    ``section`` key of ``DIR/BENCH_<name>.json`` — load-modify-write, so a
    benchmark that runs after the artifact's emitter (e.g. the service bench
    after fig9c) extends the document instead of clobbering it.  When the
    artifact does not exist yet, a fresh document is started.
    """
    directory = request.config.getoption("--json")

    def merge(name: str, section: str, payload: dict):
        if directory is None:
            return None
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        path = target / f"BENCH_{name}.json"
        document = (
            json.loads(path.read_text(encoding="utf-8"))
            if path.exists()
            else {"scale": BENCH_SCALE}
        )
        document[section] = payload
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path

    return merge
