"""Metrics collected by the simulated MapReduce engine.

The paper reports end-to-end run time, the split between the map and the mine
(reduce) stage, and the shuffle size written by the map stage
(``shuffleWriteBytes``).  :class:`JobMetrics` captures the equivalents for the
simulated cluster.  Its additive counters are declared once, on
:class:`Counters`: map and reduce tasks, the fragment store's puts, the
reader's gets and the blob retry loops each count into one, and the stage
driver folds them into the job's record field by field.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

#: Nominal reduce-side throughput used to express modeled partition loads as
#: time.  The modeled straggler must be a pure function of the shuffled bytes
#: (measured task timings vary per run, which would break the committed BENCH
#: baselines), so a fixed rate — 64 MiB/s, the ballpark of the paper's 1 GbE
#: shuffle plus local mining — converts the heaviest worker's bytes into a
#: deterministic "straggler seconds" figure.
MODELED_REDUCE_BYTES_PER_SECOND = 64 * 1024 * 1024


def lpt_worker_loads(sizes: Iterable[int], num_workers: int) -> list[int]:
    """Greedy longest-processing-time assignment of ``sizes`` onto workers.

    Returns the per-worker load totals.  Sizes are placed largest-first onto
    the least-loaded worker (ties broken by lowest worker index, matching the
    historical ``loads.index(min(loads))`` scan) via a heap, so calls stay
    ``O(n log w)`` at realistic pivot counts.
    """
    loads = [0] * num_workers
    heap = [(0, index) for index in range(num_workers)]
    for size in sorted(sizes, reverse=True):
        load, index = heapq.heappop(heap)
        loads[index] = load + size
        heapq.heappush(heap, (loads[index], index))
    return loads


@dataclass
class Counters:
    """The additive counters of a run, each declared once for every layer;
    :meth:`add` folds one record into another field by field."""

    #: Modeled shuffle size: ``job.record_size`` summed over shuffled records
    #: (the paper's ``shuffleWriteBytes`` equivalent).
    shuffle_bytes: int = 0
    shuffle_records: int = 0
    #: Measured shuffle size: bytes of the encoded bucket payloads that
    #: actually travel from map to reduce tasks (codec-dependent).
    wire_bytes: int = 0
    #: Fragment-store traffic on ``multihost``: every payload is put once by
    #: its map task and fetched — once per distinct content-addressed key per
    #: reduce task — by the reduce side (gets).  All four stay zero on
    #: ``simulated`` and ``persistent-processes``, whose payloads travel
    #: inline.
    blob_put_count: int = 0
    blob_put_bytes: int = 0
    blob_get_count: int = 0
    blob_get_bytes: int = 0
    #: Fault-tolerance accounting.  ``tasks_failed`` counts every failed
    #: task *attempt*; ``task_retry_count`` counts the re-runs the
    #: driver scheduled for them (a job that recovered shows equal non-zero
    #: values, a job that failed shows more failures than retries);
    #: ``blob_retry_count`` counts transient blob-store errors absorbed by
    #: in-task put/get retries; ``recovered_host_count`` counts worker pools
    #: rebuilt after losing a host mid-stage.  All zero on a fault-free run.
    tasks_failed: int = 0
    task_retry_count: int = 0
    blob_retry_count: int = 0
    recovered_host_count: int = 0
    #: Pickled size of the map tasks' input arguments — the per-task database
    #: shipping cost a process-pool backend pays.  Backends that pass chunk
    #: descriptors against a shared store (``persistent-processes``) report a
    #: few dozen bytes per task here regardless of database size.
    map_input_pickle_bytes: int = 0
    #: Records the map tasks emitted (``shuffle_records`` is what is left of
    #: them after the combiner); then the job's input and output records.
    map_output_records: int = 0
    input_records: int = 0
    output_records: int = 0

    def add(self, other: Counters) -> None:
        """Add every counter of ``other`` into this record."""
        for name in COUNTER_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))


#: The names of the :class:`Counters` fields, in declaration order.
COUNTER_NAMES = tuple(counter.name for counter in fields(Counters))


@dataclass
class JobMetrics(Counters):
    """Timing and communication measurements of one simulated job: every
    :class:`Counters` field, the stage times and the partition balance."""

    num_workers: int = 1
    map_task_seconds: list[float] = field(default_factory=list)
    reduce_task_seconds: list[float] = field(default_factory=list)
    #: Modeled shuffle bytes per non-empty reduce bucket (``job.record_size``
    #: summed per destination), as ``[bucket, bytes]`` pairs in bucket order:
    #: lists of ints, which JSON carries exactly.  The basis of the balance
    #: statistics below.
    reduce_bucket_bytes: list[list[int]] = field(default_factory=list)

    # ------------------------------------------------------------------ times
    @property
    def map_seconds(self) -> float:
        """Simulated wall-clock time of the map stage (max over workers)."""
        return max(self.map_task_seconds, default=0.0)

    @property
    def reduce_seconds(self) -> float:
        """Simulated wall-clock time of the reduce (mine) stage."""
        return max(self.reduce_task_seconds, default=0.0)

    @property
    def total_seconds(self) -> float:
        """Simulated end-to-end time: map barrier followed by reduce barrier."""
        return self.map_seconds + self.reduce_seconds

    @property
    def sequential_seconds(self) -> float:
        """Total compute time summed over all tasks (1-worker equivalent)."""
        return sum(self.map_task_seconds) + sum(self.reduce_task_seconds)

    # ---------------------------------------------------------------- balance
    @property
    def partition_max_bytes(self) -> int:
        """Modeled bytes shuffled to the heaviest reduce bucket."""
        return max((size for _bucket, size in self.reduce_bucket_bytes), default=0)

    @property
    def partition_mean_bytes(self) -> float:
        """Mean modeled bytes over the non-empty reduce buckets."""
        if not self.reduce_bucket_bytes:
            return 0.0
        total = sum(size for _bucket, size in self.reduce_bucket_bytes)
        return total / len(self.reduce_bucket_bytes)

    @property
    def partition_imbalance(self) -> float:
        """Heaviest bucket over the mean bucket (>= 1; 1.0 when balanced)."""
        mean = self.partition_mean_bytes
        if mean == 0:
            return 1.0
        return self.partition_max_bytes / mean

    @property
    def modeled_straggler_seconds(self) -> float:
        """Deterministic reduce-stage straggler time modeled from the shuffle.

        Buckets are attributed to workers by the static round-robin
        assignment ``bucket % num_workers``, and the heaviest worker's bytes
        are divided by :data:`MODELED_REDUCE_BYTES_PER_SECOND`.  A pure function of the
        shuffled bytes, so it is comparable across runs and committed BENCH
        baselines, unlike the measured task timings.
        """
        if not self.reduce_bucket_bytes:
            return 0.0
        loads = [0] * self.num_workers
        for bucket, size in self.reduce_bucket_bytes:
            loads[bucket % self.num_workers] += size
        return max(loads) / MODELED_REDUCE_BYTES_PER_SECOND

    @property
    def combine_ratio(self) -> float:
        """Fraction of map output records removed by the combiner."""
        if self.map_output_records == 0:
            return 0.0
        return 1.0 - self.shuffle_records / self.map_output_records

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary view used by the experiment reports: the worker
        count, the stage times, every counter, then the partition balance."""
        return {
            "num_workers": self.num_workers,
            "map_seconds": self.map_seconds,
            "reduce_seconds": self.reduce_seconds,
            "total_seconds": self.total_seconds,
            "sequential_seconds": self.sequential_seconds,
            **{name: getattr(self, name) for name in COUNTER_NAMES},
            "partition_max_bytes": self.partition_max_bytes,
            "partition_mean_bytes": round(self.partition_mean_bytes, 1),
            "partition_imbalance": round(self.partition_imbalance, 3),
            "modeled_straggler_seconds": self.modeled_straggler_seconds,
        }
