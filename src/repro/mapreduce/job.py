"""MapReduce job interface (Alg. 1 of the paper).

A distributed FSM algorithm with one round of communication is expressed as a
:class:`MapReduceJob`: the ``map`` function decides which partitions need to
know about an input sequence and what representation to send, an optional
``combine`` function pre-aggregates map output per map task, and the ``reduce``
function mines one partition locally.

A job object is what Alg. 1 broadcasts: the constraint (FST + dictionary) and
the thresholds.  In-process backends pass it to every task as it is; pool
backends hand it to each worker once through the pool initializer and their
tasks name it by a :class:`~repro.mapreduce.tasks.JobRef`, so a job is never
pickled per task — and not at all where workers are forked.
"""

from __future__ import annotations

import pickle
import zlib
from collections.abc import Iterable
from typing import Any

from repro.errors import MiningError

#: Grid-engine choices of D-SEQ's map side (:mod:`repro.core.grid_engine`):
#: ``"flat"`` is the one-pass engine, ``"legacy"`` the per-edge reference.
#: Named here, beside the job model, so that
#: :class:`~repro.mapreduce.ClusterConfig` validates it without importing
#: the engine.
GRIDS = ("flat", "legacy")

#: Grid engine used when none is requested explicitly.
DEFAULT_GRID = "flat"


def normalize_grid(grid: str | None) -> str:
    """Map a user-provided grid-engine name to a canonical one (None → default)."""
    if grid is None:
        return DEFAULT_GRID
    name = str(grid).strip().lower()
    if name not in GRIDS:
        raise MiningError(
            f"unknown grid engine {grid!r}; choose one of {', '.join(GRIDS)}"
        )
    return name


def stable_hash(key: Any) -> int:
    """A hash that is identical across worker processes.

    Python's built-in ``hash`` is salted per process for ``str``/``bytes``
    keys, so it cannot be used to partition map output inside workers: two
    workers would route the same key to different reduce buckets.  Integers
    (and tuples of integers, the usual pattern keys) hash deterministically
    and keep the fast path; tuples and frozensets recurse per element (a
    frozenset's pickle depends on salted iteration order, so pickling is not
    stable for containers of strings); any other key is hashed via its
    pickle, which is process-stable for plain scalar data.
    """
    if isinstance(key, int):
        return key
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8", "surrogatepass"))
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, tuple):
        if all(isinstance(item, int) for item in key):
            return hash(key)
        result = 0x345678
        for item in key:
            result = ((1000003 * result) ^ stable_hash(item)) & 0xFFFFFFFFFFFFFFFF
        return result
    if isinstance(key, frozenset):
        result = 0
        for item in key:
            result ^= stable_hash(item)  # order-independent combine
        return result
    return zlib.crc32(pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL))


class MapReduceJob:
    """Base class for single-round MapReduce jobs.

    Subclasses must implement :meth:`map` and :meth:`reduce`; :meth:`combine`
    is optional and disabled unless :attr:`use_combiner` is True.
    """

    #: Enable the per-map-task combiner.
    use_combiner: bool = False

    # ------------------------------------------------------------------ hooks
    def map(self, record: Any) -> Iterable[tuple[Any, Any]]:
        """Process one input record into ``(partition key, value)`` pairs."""
        raise NotImplementedError

    def combine(self, key: Any, values: list[Any]) -> Iterable[tuple[Any, Any]]:
        """Pre-aggregate values of one key within a single map task.

        The default implementation passes values through unchanged.
        """
        return ((key, value) for value in values)

    def reduce(self, key: Any, values: list[Any]) -> Iterable[Any]:
        """Mine one partition: all values shuffled to ``key``."""
        raise NotImplementedError

    # ------------------------------------------------------------- accounting
    def record_size(self, key: Any, value: Any) -> int:
        """Size in bytes charged to the shuffle for one ``(key, value)`` pair.

        The default charges the pickled size, which is what a generic
        serializer would write.  Jobs with custom wire formats (e.g. the
        NFA byte strings of D-CAND) override this with their exact size.
        """
        return len(pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL))

    # -------------------------------------------------------------- utilities
    def partition(self, key: Any, num_reduce_tasks: int) -> int:
        """Assign a key to a reduce task by hash partitioning.

        Runs inside map tasks (worker-side shuffle), so the hash must be
        process-independent; see :func:`stable_hash`.
        """
        return stable_hash(key) % num_reduce_tasks
