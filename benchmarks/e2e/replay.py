"""Traced single-process replay of one mining query, layer by layer.

The timed runs say how long a whole query takes; this says where that time
goes.  The replay does what ``run_query.py`` does — load, encode, compile,
dedup, publish, map, shuffle, reduce — in one process, calling each layer's
public functions itself (the phases of ``run_map_task`` / ``run_reduce_task``
are walked here, not inside ``src/``) and wrapping every call in a span from
:mod:`spans`.  Its pattern digest and encoded shuffle bytes must equal the
timed runs': that equality is what licenses reading the spans as an account
of the real run's compute.

What it cannot see is what only exists between processes — pool start-up,
task pickling, result collection.  Those come from the real run's
``JobMetrics`` (``mapreduce.driver_overhead_s``) and from an empty job on the
same backend (``mapreduce.empty_job_s``).

The replay always runs in a process of its own (``python -m
benchmarks.e2e.replay REQUEST.json``), whichever mode asked for it: interned
kernels, their match and output memos and the grid memo live as long as a
process does, and the harness process has mined the oracle by then.

A few sub-layer costs that sit inside one call of the walk (run enumeration
inside ``DCandJob.map``, decoding inside ``merge_fragments``) are measured by
*probes* after the replay: the layer's public function re-executed over the
same inputs.  Probes are reported but never counted into the replay's wall or
its self-time coverage.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from . import harness, spec
from .spans import Tracer, empty_timed_call_cost

#: Span names that are harness glue, not layers of the program.
GLUE_SPANS = ("replay", "map_task", "reduce_task")

_END = object()


@dataclass
class ReplayResult:
    digest: str
    wire_bytes: int
    layers: dict[str, float] = field(default_factory=dict)
    trace_path: Path | None = None


# ----------------------------------------------------------------- map side
def _map_dseq(job, chunk, totals: dict, stats: dict) -> tuple[dict, int]:
    """D-SEQ's map over one chunk: grid -> pivot items -> rewrite per pivot."""
    from repro.core.grid_engine import cached_grid
    from repro.core.rewriting import rewrite_for_pivot
    from repro.sequences import record_parts

    clock = time.perf_counter
    output: dict = defaultdict(list)
    emitted = mapped_records = 0
    decode = build = search = rewrite = 0.0
    iterator = iter(chunk)
    while True:
        t0 = clock()
        record = next(iterator, _END)
        t1 = clock()
        if record is _END:
            break
        sequence, weight = record_parts(record)
        t2 = clock()
        grid = cached_grid(
            job.kernel,
            sequence,
            max_frequent_fid=job.max_frequent_fid,
            grid=job.grid,
            span_hash=getattr(record, "span_hash", None),
        )
        t3 = clock()
        pivots = grid.pivot_items()
        t4 = clock()
        for pivot in pivots:
            representation = rewrite_for_pivot(grid, pivot)
            output[pivot].append(
                representation if weight == 1 else (representation, weight)
            )
            stats["kept_items"] += len(representation)
        t5 = clock()
        decode += t1 - t0
        build += t3 - t2
        search += t4 - t3
        rewrite += t5 - t4
        emitted += len(pivots)
        mapped_records += 1
        stats["accepting"] += bool(grid.has_accepting_run)
        stats["pivots"] += len(pivots)
        stats["offered_items"] += len(sequence) * len(pivots)
    totals["sequences.store.decode"] = decode
    totals["core.grid_engine.build"] = build
    totals["core.pivot_search.pivot_items"] = search
    totals["core.rewriting.rewrite"] = rewrite
    stats["records"] += mapped_records
    stats["timed_calls"] += 4 * mapped_records
    return output, emitted


def _map_dcand(job, chunk, totals: dict, stats: dict) -> tuple[dict, int]:
    """D-CAND's map over one chunk: the whole ``DCandJob.map`` per record."""
    clock = time.perf_counter
    output: dict = defaultdict(list)
    emitted = mapped_records = 0
    decode = mapped = 0.0
    iterator = iter(chunk)
    while True:
        t0 = clock()
        record = next(iterator, _END)
        t1 = clock()
        if record is _END:
            break
        pairs = list(job.map(record))
        t2 = clock()
        for key, value in pairs:
            output[key].append(value)
        decode += t1 - t0
        mapped += t2 - t1
        emitted += len(pairs)
        mapped_records += 1
    totals["sequences.store.decode"] = decode
    totals["core.dcand.map"] = mapped
    stats["records"] += mapped_records
    stats["timed_calls"] += 2 * mapped_records
    return output, emitted


def _replay_map_task(tracer, job, chunk, algorithm, num_reduce_tasks, codec, stats):
    """One map task: map, combine, partition, encode, store (cf. ``run_map_task``)."""
    from repro.mapreduce.spill import store_payloads

    clock = time.perf_counter
    totals: dict[str, float] = {}
    mapper = _map_dseq if algorithm == "dseq" else _map_dcand
    task_output, emitted = mapper(job, chunk, totals, stats)
    stats["map_output_records"] += emitted

    with tracer.span(f"core.{algorithm}.combine"):
        if job.use_combiner:
            combined = [
                pair
                for key, values in task_output.items()
                for pair in job.combine(key, values)
            ]
        else:
            combined = [
                (key, value) for key, values in task_output.items() for value in values
            ]
    stats["combined_records"] += len(combined)

    buckets: dict[int, dict] = {}
    partition = 0.0
    for key, value in combined:
        t0 = clock()
        bucket_index = job.partition(key, num_reduce_tasks)
        partition += clock() - t0
        buckets.setdefault(bucket_index, {}).setdefault(key, []).append(value)
    totals["mapreduce.job.partition"] = partition
    stats["timed_calls"] += len(combined)

    with tracer.span("mapreduce.wire.encode"):
        encoded = [
            (index, codec.encode_bucket(payload), sum(len(v) for v in payload.values()))
            for index, payload in sorted(buckets.items())
        ]
    with tracer.span("mapreduce.spill.store"):
        fragments, _spill_path = store_payloads(iter(encoded), None, None)
    tracer.fold(totals)
    return fragments


def _stage_in_blob_store(tracer, fragments, store, prefix, stats):
    """The multihost shuffle write: every bucket payload becomes a blob."""
    from repro.mapreduce.blobstore import content_key, put_with_retry
    from repro.mapreduce.spill import WireFragment

    staged = []
    with tracer.span("mapreduce.blobstore.put"):
        for bucket_index, fragment in fragments:
            blob = fragment.read()
            key = content_key(blob, prefix)
            put_with_retry(store, key, blob)
            stats["blob_put_bytes"] += len(blob)
            staged.append(
                (
                    bucket_index,
                    WireFragment(
                        records=fragment.records, wire_bytes=fragment.wire_bytes, blob_key=key
                    ),
                )
            )
    return staged


# -------------------------------------------------------------- reduce side
def _reduce_dseq(job, key, values, totals, stats) -> list:
    clock = time.perf_counter
    t0 = clock()
    outputs = list(job.reduce(key, values))
    seconds = clock() - t0
    totals["core.local_mining.mine"] += seconds
    stats["partition_seconds"].append(seconds)
    stats["timed_calls"] += 1
    return outputs


def _reduce_dcand(job, key, values, totals, stats) -> list:
    """``DCandJob.reduce`` walked: deserialize the NFAs, then count on them."""
    from repro.core.nfa_mining import NfaLocalMiner
    from repro.nfa import deserialize
    from repro.sequences import weighted_value_parts

    clock = time.perf_counter
    t0 = clock()
    nfas = []
    weights = []
    for value in values:
        payload, weight = weighted_value_parts(value)
        nfas.append(deserialize(payload))
        weights.append(weight)
        stats["nfa_payload_bytes"] += len(payload)
    t1 = clock()
    outputs = list(NfaLocalMiner(job.sigma, pivot=key).mine(nfas, weights).items())
    t2 = clock()
    totals["nfa.deserialize"] += t1 - t0
    totals["core.nfa_mining.mine"] += t2 - t1
    stats["partition_seconds"].append(t2 - t0)
    stats["timed_calls"] += 2
    return outputs


def _replay_reduce_task(tracer, job, fragments, algorithm, codec, blob_store, stats):
    """One reduce task: fetch, merge by key, reduce every key group."""
    from repro.mapreduce.spill import FragmentReader, merge_fragments

    reducer = _reduce_dseq if algorithm == "dseq" else _reduce_dcand
    totals: dict[str, float] = defaultdict(float)
    outputs: list = []
    with FragmentReader(blob_store) as reader:
        if blob_store is not None:
            with tracer.span("mapreduce.blobstore.get"):
                for fragment in fragments:
                    reader.read(fragment)
            stats["blob_get_count"] += reader.blob_gets
        with tracer.span("mapreduce.spill.merge"):
            grouped = merge_fragments(fragments, codec, reader=reader)
    for key, values in grouped.items():
        outputs.extend(reducer(job, key, values, totals, stats))
    tracer.fold(totals)
    return outputs


# ------------------------------------------------------------------- replay
def replay_mining(
    workload, files, num_map_tasks: int, workdir: Path, seed: int
) -> ReplayResult:
    """Replay ``workload`` over ``files`` with spans; return layers and digest."""
    from repro.core.dcand import DCandJob
    from repro.core.dseq import DSeqJob
    from repro.core.grid_engine import grid_memo_info
    from repro.datasets import constraint
    from repro.fst import make_kernel
    from repro.mapreduce import ClusterConfig, DirectoryBlobStore, write_lease
    from repro.mapreduce.base import split_records
    from repro.mapreduce.blobstore import delete_prefix
    from repro.patex import PatEx
    from repro.sequences import (
        EncodedSequenceStore,
        SequenceDatabase,
        as_encoded_store,
        as_mining_records,
        load_sequences,
        read_dictionary,
    )

    from .noop_job import NoopJob

    tracer = Tracer(workload.name)
    algorithm = workload.algorithm
    stats: dict = defaultdict(int)
    stats["partition_seconds"] = []
    # Substrate facts (bucket count, codec) come from the same config the
    # timed runs pass; building a cluster object starts no process.
    config = ClusterConfig(backend=workload.backend, num_workers=spec.NUM_WORKERS)
    cluster = config.build()
    codec = cluster.codec
    num_reduce_tasks = cluster.num_reduce_tasks
    multihost = workload.backend == "multihost"
    request = constraint(workload.constraint, workload.sigma)
    blob_root = workdir / "replay-blobs"

    with tracer.span("replay") as root:
        with tracer.span("sequences.io.read_dictionary"):
            dictionary = read_dictionary(files.dictionary)
        with tracer.span("sequences.io.load"):
            raw = load_sequences(files.sequences, None)
        with tracer.span("sequences.database.encode"):
            database = SequenceDatabase.from_gid_sequences(dictionary, raw)
        with tracer.span("patex.parse"):
            patex = PatEx(request.expression)
        with tracer.span("fst.compiler.compile"):
            fst = patex.compile(dictionary)
        with tracer.span("fst.compiled.kernel_build"):
            kernel = make_kernel(fst, dictionary)
        with tracer.span("sequences.store.dedup"):
            records = as_mining_records(database)
        with tracer.span("sequences.store.publish"):
            store = as_encoded_store(records)
            handle, release = store.publish(str(workdir))
            try:
                EncodedSequenceStore.attach(handle).close()
            finally:
                release()
        job_class = DSeqJob if algorithm == "dseq" else DCandJob
        job = job_class(kernel, sigma=workload.sigma)

        blob_store = None
        prefix = "job-replay"
        if multihost:
            with tracer.span("mapreduce.blobstore.put"):
                blob_root.mkdir(parents=True, exist_ok=True)
                blob_store = DirectoryBlobStore(str(blob_root))
                write_lease(blob_store, prefix)

        memo_before = grid_memo_info()["misses"]
        fragments: list[list] = [[] for _ in range(num_reduce_tasks)]
        blobs: list[bytes] = []
        chunks = [c for c in split_records(records, num_map_tasks) if len(c)]
        for index, chunk in enumerate(chunks):
            with tracer.span("map_task", lane=index + 1, index=index, records=len(chunk)):
                task_fragments = _replay_map_task(
                    tracer, job, chunk, algorithm, num_reduce_tasks, codec, stats
                )
                blobs.extend(fragment.read() for _b, fragment in task_fragments)
                stats["wire_bytes"] += sum(f.wire_bytes for _b, f in task_fragments)
                stats["shuffle_records"] += sum(f.records for _b, f in task_fragments)
                if multihost:
                    task_fragments = _stage_in_blob_store(
                        tracer, task_fragments, blob_store, prefix, stats
                    )
                for bucket_index, fragment in task_fragments:
                    fragments[bucket_index].append(fragment)
        stats["grids_built"] = grid_memo_info()["misses"] - memo_before

        outputs: list = []
        lane = len(chunks)
        for bucket_index, bucket_fragments in enumerate(fragments):
            if not bucket_fragments:
                continue
            lane += 1
            with tracer.span("reduce_task", lane=lane, bucket=bucket_index):
                outputs.extend(
                    _replay_reduce_task(
                        tracer, job, bucket_fragments, algorithm, codec, blob_store, stats
                    )
                )
        if multihost:
            with tracer.span("mapreduce.blobstore.cleanup"):
                delete_prefix(blob_store, prefix)
                shutil.rmtree(blob_root, ignore_errors=True)
        patterns = dict(outputs)
    digest = harness.result_digest(patterns, dictionary)

    # ---------------------------------------------------------------- layers
    self_times = tracer.self_times()
    wall = root.duration
    layers = {f"{name}_s": seconds for name, seconds in self_times.items()
              if name not in GLUE_SPANS}
    layers["mapreduce.tasks.glue_s"] = sum(
        self_times.get(name, 0.0) for name in GLUE_SPANS
    )
    named = sum(seconds for name, seconds in self_times.items() if name not in GLUE_SPANS)
    layers["replay.wall_s"] = wall
    layers["replay.layer_coverage"] = named / wall
    layers["trace.span_count"] = len(tracer.spans)
    layers["trace.overhead_s"] = stats["timed_calls"] * empty_timed_call_cost()

    mapped = max(1, stats["records"])
    layers["sequences.store.unique_ratio"] = len(records) / max(1, len(database))
    layers["sequences.store.nbytes"] = store.nbytes
    layers["mapreduce.wire.bytes"] = stats["wire_bytes"]
    layers["mapreduce.wire.bytes_per_record"] = stats["wire_bytes"] / max(
        1, stats["shuffle_records"]
    )
    combine_ratio = 1.0 - stats["combined_records"] / max(1, stats["map_output_records"])
    layers[f"core.{algorithm}.combine_ratio"] = combine_ratio
    if algorithm == "dseq":
        layers["core.grid_engine.grids_built"] = stats["grids_built"]
        layers["core.grid_engine.accepting_ratio"] = stats["accepting"] / mapped
        layers["core.pivot_search.pivots_per_seq"] = stats["pivots"] / mapped
        layers["core.rewriting.kept_item_ratio"] = stats["kept_items"] / max(
            1, stats["offered_items"]
        )
        layers["core.local_mining.partitions"] = len(stats["partition_seconds"])
        layers["core.local_mining.max_partition_s"] = max(
            stats["partition_seconds"], default=0.0
        )
        layers["core.local_mining.patterns_out"] = len(outputs)
    else:
        layers["nfa.payload_bytes"] = stats["nfa_payload_bytes"]
    if multihost:
        layers["mapreduce.blobstore.put_bytes"] = stats["blob_put_bytes"]
        layers["mapreduce.blobstore.get_count"] = stats["blob_get_count"]

    # ---------------------------------------------------------------- probes
    started = time.perf_counter()
    payloads = [codec.decode_bucket(blob) for blob in blobs]
    layers["mapreduce.wire.decode_s"] = time.perf_counter() - started
    layers["fst.compiled.kernel_pickle_bytes"] = len(
        pickle.dumps(kernel, protocol=pickle.HIGHEST_PROTOCOL)
    )
    if algorithm == "dcand":
        layers.update(_probe_dcand(job, records, payloads))
    started = time.perf_counter()
    config.build().run(NoopJob(), records)
    layers["mapreduce.empty_job_s"] = time.perf_counter() - started

    trace_path = spec.WORK_ROOT / "traces" / f"{workload.name}-seed{seed}.trace.json"
    tracer.write(trace_path)
    return ReplayResult(digest, stats["wire_bytes"], layers, trace_path)


def _probe_dcand(job, records, payloads) -> dict[str, float]:
    """Sub-layer costs inside ``DCandJob.map``: run enumeration, NFA encoding."""
    from repro.fst import accepting_runs
    from repro.nfa import deserialize, serialize
    from repro.sequences import record_parts, weighted_value_parts

    clock = time.perf_counter
    runs = 0
    started = clock()
    for record in records:
        sequence, _weight = record_parts(record)
        for _run in accepting_runs(job.kernel, sequence, max_runs=job.max_runs):
            runs += 1
    enumerate_s = clock() - started
    nfas = [
        deserialize(weighted_value_parts(value)[0])
        for payload in payloads
        for values in payload.values()
        for value in values
    ]
    started = clock()
    for nfa in nfas:
        serialize(nfa)
    return {
        "fst.simulation.accepting_runs_s": enumerate_s,
        "fst.simulation.runs": runs,
        "nfa.serialize_s": clock() - started,
    }


def import_seconds(tmpdir: Path, repeats: int = 3) -> float:
    """Median wall of ``python -c "import repro.api"``: every query's fixed offset."""
    tmpdir.mkdir(parents=True, exist_ok=True)
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.api"],
            env=harness.subprocess_env(tmpdir),
            check=True,
        )
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


# ------------------------------------------------------- fresh-process replay
REPLAY_TIMEOUT_S = 170.0


def replay_in_fresh_process(
    workload, files, num_map_tasks: int, workdir: Path, seed: int
) -> ReplayResult:
    """Run :func:`replay_mining` in a new interpreter and read back its result."""
    request = workdir / "replay-request.json"
    answer = workdir / "replay-result.json"
    request.write_text(
        json.dumps(
            {
                "workload": dataclasses.asdict(workload),
                "sequences": str(files.sequences),
                "dictionary": str(files.dictionary),
                "count": files.count,
                "items": files.items,
                "num_map_tasks": num_map_tasks,
                "workdir": str(workdir),
                "seed": seed,
                "answer": str(answer),
            }
        ),
        encoding="utf-8",
    )
    tmpdir = workdir / "replay-tmp"
    tmpdir.mkdir(parents=True, exist_ok=True)
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.replay", str(request)],
        cwd=spec.ROOT,
        env=harness.subprocess_env(tmpdir),
        capture_output=True,
        text=True,
        timeout=REPLAY_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"replay process failed: {completed.stderr.strip()[-400:]}")
    result = json.loads(answer.read_text(encoding="utf-8"))
    return ReplayResult(
        result["digest"], result["wire_bytes"], result["layers"], Path(result["trace_path"])
    )


def main(argv=None) -> int:
    """``python -m benchmarks.e2e.replay REQUEST.json`` (see above)."""
    (request_path,) = sys.argv[1:] if argv is None else argv
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    harness.require_source_tree()
    files = harness.CorpusFiles(
        Path(request["sequences"]), Path(request["dictionary"]),
        request["count"], request["items"],
    )
    replayed = replay_mining(
        spec.MiningWorkload(**request["workload"]),
        files,
        request["num_map_tasks"],
        Path(request["workdir"]),
        request["seed"],
    )
    Path(request["answer"]).write_text(
        json.dumps(
            {
                "digest": replayed.digest,
                "wire_bytes": replayed.wire_bytes,
                "layers": replayed.layers,
                "trace_path": str(replayed.trace_path),
            }
        ),
        encoding="utf-8",
    )
    return 0


# ---------------------------------------------------------------- traced run
def trace_mining_workload(workload, seed: int) -> harness.WorkloadResult:
    """One real run, its replay, and the checks that tie the two together."""
    workdir = harness.workdir_for(workload.name, seed)
    result = harness.WorkloadResult(workload.name, record={"traced": True})
    files = harness.generate_corpus(workload.dataset, workload.size, seed, workdir / "corpus")
    run = harness.run_query_once(workload, files, workdir)
    result.attempted += 1
    expected, _count = harness.oracle_digest(
        harness.load_corpus(files), workload.constraint, workload.sigma
    )
    problems = run.problems(expected)
    if problems:
        result.fail("timed run", problems)
    if run.returncode != 0 or not run.report:
        shutil.rmtree(workdir, ignore_errors=True)
        return result

    report = run.report
    metrics = report["metrics"]
    result.attempted += 1
    try:
        replayed = replay_in_fresh_process(
            workload, files, len(report["map_task_seconds"]), workdir, seed
        )
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as error:
        result.fail("replay", [f"{type(error).__name__}: {error}"])
        shutil.rmtree(workdir, ignore_errors=True)
        return result
    replay_problems = []
    if replayed.digest != expected:
        replay_problems.append(f"replay digest {replayed.digest} != oracle {expected}")
    if replayed.wire_bytes != metrics["wire_bytes"]:
        replay_problems.append(
            f"replay wire bytes {replayed.wire_bytes} != timed run {metrics['wire_bytes']}"
        )
    if replay_problems:
        result.fail("replay", replay_problems)

    layers = result.layers
    layers.update(replayed.layers)
    map_stage = metrics["map_seconds"]
    reduce_stage = metrics["reduce_seconds"]
    layers.update(
        {
            "runner.wall_s": run.wall_s,
            "runner.cpu_s": run.cpu_s,
            "runner.import_s": import_seconds(workdir / "tmp"),
            "mapreduce.map_task_s_sum": sum(report["map_task_seconds"]),
            "mapreduce.map_stage_s": map_stage,
            "mapreduce.reduce_task_s_sum": sum(report["reduce_task_seconds"]),
            "mapreduce.reduce_stage_s": reduce_stage,
            "mapreduce.driver_overhead_s": report["mine_s"] - map_stage - reduce_stage,
            "mapreduce.map_input_pickle_bytes": metrics["map_input_pickle_bytes"],
            "mapreduce.tasks_failed": metrics["tasks_failed"],
            "mapreduce.task_retry_count": metrics["task_retry_count"],
            "core.balance.partition_imbalance": metrics["partition_imbalance"],
        }
    )
    result.counts.update(
        pattern_digest=expected,
        wire_bytes=metrics["wire_bytes"],
        trace=str(replayed.trace_path.relative_to(spec.ROOT)),
    )
    shutil.rmtree(workdir, ignore_errors=True)
    return result


if __name__ == "__main__":
    sys.exit(main())
