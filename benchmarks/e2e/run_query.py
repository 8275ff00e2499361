"""One whole mining query in a fresh process: the benchmark's timed unit.

Does what ``repro mine`` does, through public API only: read the sequence and
dictionary files, encode, ``repro.api.mine`` on the requested substrate, write
the sorted patterns to a file, and print one JSON line describing the run.
The harness times this process from spawn to exit, so import, load, planning,
store publish, pool start-up, shuffle, reduce and teardown are all inside the
measurement — the cold path every ``repro mine`` user pays.

Only ``backend``, ``num_workers`` and ``algorithm`` are passed by default;
``--knob NAME=VALUE`` (used by ``--variants`` alone) flips one extra knob and
exits with :data:`EXIT_KNOB_REMOVED` when the code no longer knows it.

This file imports nothing from the harness: it must stay a minimal stand-in
for the CLI, found on ``PYTHONPATH`` like any user script.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

#: Exit code for "this knob is not accepted any more" (not a failure).
EXIT_KNOB_REMOVED = 3

#: Knobs that are keyword options of the miner rather than ClusterConfig fields.
MINER_OPTION_KNOBS = {"dedup"}


def parse_knob(text: str):
    name, separator, raw = text.partition("=")
    if not separator or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    value = {"True": True, "False": False, "None": None}.get(raw, raw)
    return name, value


def own_peak_rss_kb() -> int:
    """This process's peak resident set in KiB.

    ``ru_maxrss`` of an exec'd process starts at its parent's high-water mark
    (Linux carries it across ``execve``), which would make the figure depend
    on how big the harness has grown; ``VmHWM`` belongs to the new image only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def pattern_lines(result, dictionary) -> list[str]:
    """``pattern<TAB>support`` lines, most frequent first (the CLI's TSV)."""
    return [
        f"{' '.join(dictionary.decode(pattern))}\t{frequency}\n"
        for pattern, frequency in result.sorted_patterns()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sequences", required=True)
    parser.add_argument("--dictionary", required=True)
    parser.add_argument("--constraint", required=True)
    parser.add_argument("--sigma", type=int, required=True)
    parser.add_argument("--algorithm", required=True)
    parser.add_argument("--backend", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--knob", type=parse_knob, action="append", default=[])
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro.api
    from repro.datasets import constraint
    from repro.errors import ReproError
    from repro.mapreduce import ClusterConfig
    from repro.sequences import SequenceDatabase, load_sequences, read_dictionary

    imported = time.perf_counter()
    dictionary = read_dictionary(args.dictionary)
    database = SequenceDatabase.from_gid_sequences(
        dictionary, load_sequences(args.sequences, None)
    )
    corpus = repro.api.Corpus(database, dictionary)
    loaded = time.perf_counter()

    config_knobs = {k: v for k, v in args.knob if k not in MINER_OPTION_KNOBS}
    options = {k: v for k, v in args.knob if k in MINER_OPTION_KNOBS}

    def removed(error: Exception) -> int:
        print(json.dumps({"removed": [k for k, _ in args.knob], "error": str(error)}))
        return EXIT_KNOB_REMOVED

    # "Removed" is only what says so: a ClusterConfig that cannot be built
    # from the knob, or a miner keyword the code does not know.  Any other
    # error under a knob is a failure of that variant and must surface.
    try:
        config = ClusterConfig(
            backend=args.backend, num_workers=args.workers, **config_knobs
        )
    except (TypeError, ValueError, ReproError) as error:
        if not config_knobs:
            raise
        return removed(error)
    try:
        result = repro.api.mine(
            corpus,
            constraint(args.constraint, args.sigma),
            algorithm=args.algorithm,
            config=config,
            **options,
        )
    except TypeError as error:
        if not options or "unexpected keyword argument" not in str(error):
            raise
        return removed(error)
    mined = time.perf_counter()

    with open(args.output, "w", encoding="utf-8") as handle:
        handle.writelines(pattern_lines(result, dictionary))
    written = time.perf_counter()

    metrics = result.metrics
    report = {
        "patterns": len(result),
        "sequences": len(database),
        "import_s": imported - started,
        "load_s": loaded - imported,
        "mine_s": mined - loaded,
        "write_s": written - mined,
        "metrics": metrics.as_dict(),
        "map_task_seconds": list(metrics.map_task_seconds),
        "reduce_task_seconds": list(metrics.reduce_task_seconds),
        # Workers are reaped by now, so the children figure (KiB on Linux) is
        # the largest worker of this query.
        "maxrss_kb": max(
            own_peak_rss_kb(),
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
