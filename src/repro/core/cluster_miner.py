"""The one ``mine()`` driver of the five cluster algorithms.

D-SEQ, D-CAND, NAÏVE, SEMI-NAÏVE and LASH / MG-FSM differ only in the
MapReduce job they run (:meth:`ClusterMiner.job`).  Everything else is shared
here: the corpus-level dedup of the input, building the backend from the
miner's :class:`~repro.mapreduce.ClusterConfig`, running the job, and
wrapping its outputs as a :class:`~repro.core.results.MiningResult`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.results import MiningResult
from repro.dictionary import Dictionary
from repro.mapreduce import ClusterConfig, MapReduceJob
from repro.sequences import SequenceDatabase, as_mining_records


class ClusterMiner:
    """Base class of the miners that run one job on a cluster.

    ``cluster`` is the run's whole substrate as one
    :class:`~repro.mapreduce.ClusterConfig` (``None`` is the library default,
    ``ClusterConfig()``); a backend name or a ready-made cluster instance is
    refused — wrap it as ``ClusterConfig(backend=...)``.  ``dedup=False``
    disables the corpus-level unique-sequence pass (the debugging reference:
    results are byte-identical either way).
    """

    algorithm_name = "cluster"

    def __init__(
        self,
        sigma: int,
        dictionary: Dictionary,
        dedup: bool = True,
        cluster: ClusterConfig | None = None,
    ) -> None:
        if cluster is None:
            cluster = ClusterConfig()
        elif not isinstance(cluster, ClusterConfig):
            raise TypeError(
                f"cluster= takes a ClusterConfig, not {type(cluster).__name__}; "
                "wrap a backend name or cluster instance as ClusterConfig(backend=...)"
            )
        self.sigma = sigma
        self.dictionary = dictionary
        self.dedup = dedup
        self.cluster = cluster

    def job(self) -> MapReduceJob:
        """The MapReduce job this algorithm runs (one per :meth:`mine`)."""
        raise NotImplementedError

    def mine(self, database: SequenceDatabase | Sequence[Sequence[int]]) -> MiningResult:
        """Mine all frequent patterns of ``database`` under the constraint.

        The baselines may raise :class:`~repro.errors.CandidateExplosionError`.
        """
        job = self.job()
        records = as_mining_records(database, dedup=self.dedup)
        result = self.cluster.build().run(job, records)
        return MiningResult(dict(result.outputs), result.metrics, self.algorithm_name)
