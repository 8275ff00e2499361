"""Partition balance: measurement and skew-aware planning (Sec. III-B).

The paper argues (following Beedkar and Gemulla) that ordering items by
decreasing document frequency leads to well-balanced partition sizes: frequent
items occur in many input sequences, but their partitions are responsible for
few distinct subsequences, and the rewritten representations sent to them are
small.  This module measures that claim for any of the item-based algorithms:
it runs only the map (and optionally the combine) phase of a job, groups the
emitted records by partition key, and computes balance statistics over the
per-partition shuffle sizes.

Measurement alone leaves the reducers assigned by ``stable_hash(pivot)``,
which can still straggle the reduce stage when several heavy pivots collide in
one bucket.  :func:`plan_job_partitions` therefore promotes the measurement to
an *online planner*: it estimates the per-pivot shuffle load from the same
(optionally sampled) map pass, greedily bin-packs pivots onto reduce buckets
largest-first (LPT), and returns a :class:`PartitionPlan` the miners attach to
their job — :meth:`~repro.mapreduce.job.MapReduceJob.partition` then consults
the plan table and falls back to the stable hash for unplanned keys, so
patterns stay byte-identical across both partitioners.

The measurement half is used by the ``examples/partition_balance.py`` study
and the ``bench_partition_balance`` ablation benchmark; the planner runs
whenever a miner's ``ClusterConfig`` selects ``partitioner="planned"``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.dcand import DCandJob
from repro.core.dseq import DSeqJob
from repro.dictionary import Dictionary
from repro.errors import MiningError
from repro.mapreduce import MapReduceJob
from repro.mapreduce.metrics import lpt_worker_loads
from repro.patex import PatEx
from repro.sequences import SequenceDatabase, as_mining_records


@dataclass
class PartitionBalance:
    """Per-partition shuffle statistics of one map phase.

    ``bytes_by_partition`` and ``records_by_partition`` map partition keys
    (pivot items for item-based partitioning) to the number of shuffled bytes
    and records destined for that partition.
    """

    bytes_by_partition: dict = field(default_factory=dict)
    records_by_partition: dict = field(default_factory=dict)

    # ----------------------------------------------------------------- totals
    @property
    def num_partitions(self) -> int:
        """Number of non-empty partitions."""
        return len(self.bytes_by_partition)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_partition.values())

    @property
    def total_records(self) -> int:
        return sum(self.records_by_partition.values())

    @property
    def max_bytes(self) -> int:
        return max(self.bytes_by_partition.values(), default=0)

    @property
    def mean_bytes(self) -> float:
        if not self.bytes_by_partition:
            return 0.0
        return self.total_bytes / self.num_partitions

    # ---------------------------------------------------------------- balance
    @property
    def imbalance(self) -> float:
        """Ratio of the largest partition to the mean partition (>= 1).

        A perfectly balanced partitioning has imbalance 1; the higher the
        value, the longer the straggler partition delays the reduce stage.
        """
        mean = self.mean_bytes
        if mean == 0:
            return 1.0
        return self.max_bytes / mean

    def gini(self) -> float:
        """Gini coefficient of the per-partition byte sizes (0 = balanced)."""
        sizes = sorted(self.bytes_by_partition.values())
        if not sizes:
            return 0.0
        total = sum(sizes)
        if total == 0:
            return 0.0
        cumulative = 0.0
        weighted = 0.0
        for size in sizes:
            cumulative += size
            weighted += cumulative
        count = len(sizes)
        # Standard formula: G = (n + 1 - 2 * sum(cumulative_i) / total) / n
        return max(0.0, (count + 1 - 2 * weighted / total) / count)

    def largest_worker_share(self, num_workers: int) -> float:
        """Fraction of all shuffled bytes landing on the most loaded worker.

        Partitions are assigned to workers greedily by decreasing size (the
        usual longest-processing-time heuristic), mirroring how the simulated
        cluster spreads reduce buckets.  The assignment runs on a heap
        (:func:`~repro.mapreduce.metrics.lpt_worker_loads`), so planner-time
        calls stay cheap at realistic pivot counts.
        """
        if num_workers < 1:
            raise MiningError(f"num_workers must be >= 1, got {num_workers}")
        total = self.total_bytes
        if total == 0:
            return 0.0
        loads = lpt_worker_loads(self.bytes_by_partition.values(), num_workers)
        return max(loads) / total

    # ------------------------------------------------------------------ views
    def top(self, k: int, dictionary: Dictionary | None = None) -> list[tuple]:
        """The ``k`` largest partitions as ``(key, bytes, records)`` tuples.

        If a dictionary is given and keys are item fids, keys are decoded to
        gids for readability.
        """
        ranked = sorted(
            self.bytes_by_partition.items(), key=lambda kv: (-kv[1], str(kv[0]))
        )[:k]
        rows = []
        for key, size in ranked:
            label = key
            if dictionary is not None and isinstance(key, int) and key in dictionary:
                label = dictionary.gid_of(key)
            rows.append((label, size, self.records_by_partition.get(key, 0)))
        return rows

    def histogram(self, num_bins: int = 10) -> list[tuple[int, int, int]]:
        """Histogram of partition sizes: ``(lower_bound, upper_bound, count)``.

        Bins are logarithmic in partition size (powers of two), which matches
        how skewed the sizes typically are.  When the sizes span more than
        ``num_bins`` octaves, the *smallest* bins are dropped: the histogram
        exists to show the straggler partitions, so the largest bins must
        always survive truncation.  ``num_bins=0`` returns every bin.
        """
        sizes = list(self.bytes_by_partition.values())
        if not sizes:
            return []
        bins: dict[int, int] = defaultdict(int)
        for size in sizes:
            exponent = 0 if size <= 1 else int(math.log2(size))
            bins[exponent] += 1
        rows = []
        for exponent in sorted(bins):
            rows.append((2**exponent, 2 ** (exponent + 1) - 1, bins[exponent]))
        return rows[-num_bins:] if num_bins else rows

    def as_dict(self) -> dict[str, float]:
        """Flat summary used by reports and benchmarks."""
        return {
            "partitions": self.num_partitions,
            "total_bytes": self.total_bytes,
            "total_records": self.total_records,
            "max_bytes": self.max_bytes,
            "mean_bytes": round(self.mean_bytes, 1),
            "imbalance": round(self.imbalance, 2),
            "gini": round(self.gini(), 3),
        }


# ------------------------------------------------------------------ measuring
def measure_partition_balance(
    job: MapReduceJob, records: Iterable[Sequence[int]], use_combiner: bool | None = None
) -> PartitionBalance:
    """Run only the map (and combine) phase of ``job`` and group by key.

    ``use_combiner`` overrides the job's own setting; the default is to follow
    the job (as the simulated cluster does).
    """
    apply_combiner = job.use_combiner if use_combiner is None else use_combiner
    per_key_values: dict = defaultdict(list)
    for record in records:
        for key, value in job.map(record):
            per_key_values[key].append(value)

    balance = PartitionBalance()
    for key, values in per_key_values.items():
        if apply_combiner:
            emitted = list(job.combine(key, values))
        else:
            emitted = [(key, value) for value in values]
        size = sum(job.record_size(emit_key, value) for emit_key, value in emitted)
        balance.bytes_by_partition[key] = size
        balance.records_by_partition[key] = len(emitted)
    return balance


def dseq_partition_balance(
    patex: PatEx | str,
    sigma: int,
    dictionary: Dictionary,
    database: SequenceDatabase | Sequence[Sequence[int]],
    dedup: bool = True,
    **options,
) -> PartitionBalance:
    """Partition balance of D-SEQ's map output for one constraint.

    The job maps the same records a live miner would: with ``dedup`` (the
    default since the corpus-level dedup landed) that is the weighted
    ``unique_view()`` of the database, so the measured per-pivot bytes agree
    with the cluster's ``shuffle_bytes`` accounting even on duplication-heavy
    corpora.
    """
    patex = PatEx(patex) if isinstance(patex, str) else patex
    job = DSeqJob(patex.compile(dictionary), dictionary, sigma, **options)
    return measure_partition_balance(job, as_mining_records(database, dedup=dedup))


def dcand_partition_balance(
    patex: PatEx | str,
    sigma: int,
    dictionary: Dictionary,
    database: SequenceDatabase | Sequence[Sequence[int]],
    dedup: bool = True,
    **options,
) -> PartitionBalance:
    """Partition balance of D-CAND's map output for one constraint.

    Maps the weighted ``unique_view()`` records by default, exactly like a
    live :class:`~repro.core.dcand.DCandMiner`; see
    :func:`dseq_partition_balance`.
    """
    patex = PatEx(patex) if isinstance(patex, str) else patex
    job = DCandJob(patex.compile(dictionary), dictionary, sigma, **options)
    return measure_partition_balance(job, as_mining_records(database, dedup=dedup))


# ------------------------------------------------------------------- planning
@dataclass(frozen=True)
class PartitionPlan:
    """A skew-aware pivot → reduce-bucket assignment shipped with a job.

    Built by :func:`plan_partitions` from estimated per-pivot shuffle loads:
    pivots are placed largest-first onto the least-loaded bucket (LPT), so no
    hash collision can stack several heavy pivots into one straggler bucket.
    :meth:`~repro.mapreduce.job.MapReduceJob.partition` consults
    :meth:`lookup` and falls back to ``stable_hash`` for keys the planner
    never saw (e.g. pivots that only appear outside a sampled estimation
    pass), so the plan changes *where* records land but never *what* is
    mined.  The plan pickles with the job to the workers; it holds one small
    table entry per distinct pivot.
    """

    num_reduce_tasks: int
    #: Pivot key -> reduce bucket index.
    table: dict = field(default_factory=dict)
    #: Estimated bytes per reduce bucket under :attr:`table`.
    loads: tuple = ()

    def lookup(self, key) -> int | None:
        """The planned bucket of ``key``, or None when unplanned."""
        return self.table.get(key)

    @property
    def num_planned_keys(self) -> int:
        return len(self.table)

    @property
    def estimated_total_bytes(self) -> int:
        return sum(self.loads)

    @property
    def estimated_max_bytes(self) -> int:
        return max(self.loads, default=0)

    @property
    def estimated_imbalance(self) -> float:
        """Heaviest planned bucket over the mean non-empty bucket (>= 1)."""
        non_empty = [load for load in self.loads if load]
        if not non_empty:
            return 1.0
        return max(non_empty) / (sum(non_empty) / len(non_empty))

    def as_dict(self) -> dict:
        """Flat summary used by reports and benchmarks."""
        return {
            "num_reduce_tasks": self.num_reduce_tasks,
            "planned_keys": self.num_planned_keys,
            "estimated_total_bytes": self.estimated_total_bytes,
            "estimated_max_bytes": self.estimated_max_bytes,
            "estimated_imbalance": round(self.estimated_imbalance, 3),
        }


def estimate_partition_loads(
    job: MapReduceJob, records: Sequence, sample: float | None = None
) -> dict:
    """Estimate per-pivot shuffle bytes by running ``job``'s map phase.

    ``records`` are the records the miner is about to hand to ``Cluster.run``
    — the weighted ``unique_view()`` under dedup — so the estimate matches
    the real shuffle exactly when every record is mapped.  ``sample`` takes a
    stride-sampled subset (a fraction in (0, 1]) instead, the ripple-style
    sampling pass: cheaper, still proportional to the true loads on any
    corpus where heavy pivots occur in many records.
    """
    if sample is not None:
        if not 0.0 < sample <= 1.0:
            raise MiningError(f"sample must be in (0, 1], got {sample}")
        stride = max(1, round(1.0 / sample))
        # islice, not records[::stride]: the estimation pass only iterates,
        # and store-backed record sequences reject strided slicing.
        records = itertools.islice(iter(records), 0, None, stride)
    balance = measure_partition_balance(job, records)
    return dict(balance.bytes_by_partition)


def plan_partitions(
    loads_by_key: dict, num_reduce_tasks: int, num_workers: int | None = None
) -> PartitionPlan:
    """Greedily bin-pack keys onto reduce buckets largest-first (LPT).

    Keys are sorted by decreasing estimated load (ties keep first-occurrence
    order, which is deterministic for map output) and each is placed on the
    currently least-loaded bucket — the same heap-based LPT the balance
    statistics model workers with.

    When ``num_workers`` is given (and smaller than ``num_reduce_tasks``),
    packing runs in two levels: each key goes to the least-loaded *worker
    group* of buckets first, then to that group's least-loaded bucket.  The
    reduce-stage straggler is a worker-granularity quantity — a worker
    drains several buckets — and single-level bucket LPT can equalize the
    buckets so well that the groups pack badly (equal-size items leave no
    small filler around one heavy bucket).  Two-level packing optimizes the
    worker loads directly and still spreads each group across its buckets.
    """
    if num_reduce_tasks < 1:
        raise MiningError(f"num_reduce_tasks must be >= 1, got {num_reduce_tasks}")
    if num_workers is not None and num_workers < 1:
        raise MiningError(f"num_workers must be >= 1, got {num_workers}")
    loads = [0] * num_reduce_tasks
    table: dict = {}
    ranked = sorted(loads_by_key.items(), key=lambda kv: -kv[1])
    if num_workers is None or num_workers >= num_reduce_tasks:
        heap = [(0, index) for index in range(num_reduce_tasks)]
        for key, size in ranked:
            load, index = heapq.heappop(heap)
            table[key] = index
            loads[index] = load + size
            heapq.heappush(heap, (loads[index], index))
    else:
        # Worker w owns buckets w, w + num_workers, w + 2*num_workers, ...
        worker_heap = [(0, worker) for worker in range(num_workers)]
        worker_loads = [0] * num_workers
        bucket_heaps = {
            worker: [
                (0, bucket)
                for bucket in range(worker, num_reduce_tasks, num_workers)
            ]
            for worker in range(num_workers)
        }
        for key, size in ranked:
            worker_load, worker = heapq.heappop(worker_heap)
            bucket_load, bucket = heapq.heappop(bucket_heaps[worker])
            table[key] = bucket
            loads[bucket] = bucket_load + size
            worker_loads[worker] = worker_load + size
            heapq.heappush(bucket_heaps[worker], (loads[bucket], bucket))
            heapq.heappush(worker_heap, (worker_loads[worker], worker))
    return PartitionPlan(
        num_reduce_tasks=num_reduce_tasks, table=table, loads=tuple(loads)
    )


def plan_job_partitions(
    job: MapReduceJob,
    records: Sequence,
    num_reduce_tasks: int,
    num_workers: int | None = None,
    sample: float | None = None,
) -> PartitionPlan:
    """Build the :class:`PartitionPlan` a miner attaches to ``job``.

    One call chains the two planner halves: estimate the per-pivot shuffle
    load over ``records`` (optionally stride-sampled), then LPT-pack the
    pivots onto ``num_reduce_tasks`` buckets — worker-aware when the miner
    passes its cluster's ``num_workers`` along.
    """
    loads = estimate_partition_loads(job, records, sample=sample)
    return plan_partitions(loads, num_reduce_tasks, num_workers=num_workers)


def _records_key(records) -> object:
    """A cache key identifying a record set: content hash when cheap, else id.

    Encoded stores (what every miner hands to ``Cluster.run``) carry a cached
    ``content_hash()``; arbitrary record sequences fall back to object
    identity, which can only under-share, never alias different corpora.
    """
    content_hash = getattr(records, "content_hash", None)
    if callable(content_hash):
        return content_hash()
    return id(records)


class JobPlanner:
    """Per-miner cache of :class:`PartitionPlan` objects.

    The load-estimation pass replays the job's map phase over the corpus —
    by far the most expensive part of planning — so re-estimating on every
    ``mine()`` call (and, for multi-job miners, every stage) is pure waste:
    the plan is a function of the job type, the records, and the bucket
    layout, all of which repeat.  The planner estimates once per distinct
    ``(job type, records, layout, sample)`` and replays the cached plan.
    Sharing a plan is always safe: a plan only decides *where* keys land,
    never what is mined, and unplanned keys fall back to the stable hash.
    """

    __slots__ = ("_plans",)

    def __init__(self) -> None:
        self._plans: dict = {}

    def plan_for(
        self,
        job: MapReduceJob,
        records: Sequence,
        num_reduce_tasks: int,
        num_workers: int | None = None,
        sample: float | None = None,
    ) -> PartitionPlan:
        """The cached plan for this job/records/layout, building on a miss."""
        key = (
            type(job).__name__,
            _records_key(records),
            num_reduce_tasks,
            num_workers,
            sample,
        )
        plan = self._plans.get(key)
        if plan is None:
            plan = plan_job_partitions(
                job,
                records,
                num_reduce_tasks,
                num_workers=num_workers,
                sample=sample,
            )
            self._plans[key] = plan
        return plan


def attach_partition_plan(miner, job: MapReduceJob, records: Sequence, cluster) -> None:
    """Attach the miner's (cached) skew-aware plan to ``job``.

    The planning step of :meth:`~repro.core.cluster_miner.ClusterMiner.mine`,
    run when the miner's config selects the ``"planned"`` partitioner.  The
    plan comes from a :class:`JobPlanner` lazily stored on the miner, so
    repeated ``mine()`` calls over the same corpus estimate the per-pivot
    loads once.
    """
    planner = getattr(miner, "_job_planner", None)
    if planner is None:
        planner = JobPlanner()
        miner._job_planner = planner
    job.partition_plan = planner.plan_for(
        job,
        records,
        cluster.num_reduce_tasks,
        num_workers=cluster.num_workers,
        sample=miner.cluster.plan_sample,
    )
