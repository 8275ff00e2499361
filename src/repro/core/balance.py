"""Partition balance: measuring Sec. III-B's claim.

The paper argues (following Beedkar and Gemulla) that ordering items by
decreasing document frequency leads to well-balanced partition sizes: frequent
items occur in many input sequences, but their partitions are responsible for
few distinct subsequences, and the rewritten representations sent to them are
small.  This module measures that claim for any of the item-based algorithms:
it runs only the map (and optionally the combine) phase of a job, groups the
emitted records by partition key, and computes balance statistics over the
per-partition shuffle sizes.

Reduce buckets are always assigned by ``stable_hash(pivot)``: on skewed
corpora, packing the pivots onto buckets by a map-pass load estimate evened
the buckets out but did not shorten a query beyond the run-to-run spread
(README, "Partition balance").

The measurement is used by the ``examples/partition_balance.py`` study and
the ``bench_partition_balance`` benchmark.
"""

from __future__ import annotations

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
        (:func:`~repro.mapreduce.metrics.lpt_worker_loads`), so calls stay
        cheap at realistic pivot counts.
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
    **options,
) -> PartitionBalance:
    """Partition balance of D-SEQ's map output for one constraint.

    The job maps the same records a live miner would, the weighted
    ``unique_view()`` of the database, so the measured per-pivot bytes agree
    with the cluster's ``shuffle_bytes`` accounting even on duplication-heavy
    corpora.
    """
    patex = PatEx(patex) if isinstance(patex, str) else patex
    job = DSeqJob(patex.compile(dictionary), dictionary, sigma, **options)
    return measure_partition_balance(job, as_mining_records(database))


def dcand_partition_balance(
    patex: PatEx | str,
    sigma: int,
    dictionary: Dictionary,
    database: SequenceDatabase | Sequence[Sequence[int]],
    **options,
) -> PartitionBalance:
    """Partition balance of D-CAND's map output for one constraint.

    Maps the weighted ``unique_view()`` records, exactly like a
    live :class:`~repro.core.dcand.DCandMiner`; see
    :func:`dseq_partition_balance`.
    """
    patex = PatEx(patex) if isinstance(patex, str) else patex
    job = DCandJob(patex.compile(dictionary), dictionary, sigma, **options)
    return measure_partition_balance(job, as_mining_records(database))
