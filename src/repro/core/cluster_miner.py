"""The one driver of the five cluster algorithms.

D-SEQ, D-CAND, NAÏVE, SEMI-NAÏVE and LASH / MG-FSM differ only in the
MapReduce job they run: a miner class names its :attr:`ClusterMiner.job_class`
and, where the algorithm fixes one of the job's options, its
:attr:`ClusterMiner.job_options`.  Each option (Fig. 10a / 10b's switches, the
safety caps, the gap/length parameters) is declared once, as a keyword
argument of the job's ``__init__``; a miner's ``**options`` go straight there.
Everything else is shared here: checking σ and the substrate, compiling the
pattern expression once, building the job once, the corpus-level dedup of the
input, building the backend from the miner's
:class:`~repro.mapreduce.ClusterConfig`, running the job, and wrapping its
outputs as a :class:`~repro.core.results.MiningResult`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.results import MiningResult
from repro.dictionary import Dictionary
from repro.errors import check_int
from repro.fst import make_kernel
from repro.mapreduce import ClusterConfig, MapReduceJob
from repro.patex import PatEx
from repro.sequences import SequenceDatabase, as_mining_records


class ClusterMiner:
    """Base class of the miners that run one job on a cluster.

    ``patex`` is the constraint as a pattern expression, compiled here once
    into the job's kernel; ``None`` (the gap/length miner) hands the job the
    dictionary instead.  ``cluster`` is the run's whole substrate as one
    :class:`~repro.mapreduce.ClusterConfig` (``None`` is the library default,
    ``ClusterConfig()``); a backend name or a ready-made cluster instance is
    refused — wrap it as ``ClusterConfig(backend=...)``.  ``options`` are the
    job's keyword arguments: an unknown one is a ``TypeError`` here, at
    construction.  The job maps the corpus-level dedup of the input
    (:func:`~repro.sequences.database.as_mining_records`): one
    :class:`~repro.sequences.store.WeightedSequence` per distinct sequence.
    """

    algorithm_name = "cluster"
    #: The MapReduce job this algorithm runs; its ``__init__`` declares the
    #: algorithm's options.
    job_class: type[MapReduceJob]
    #: The job options this algorithm fixes.
    job_options: dict = {}

    def __init__(
        self,
        patex: PatEx | str | None,
        sigma: int,
        dictionary: Dictionary,
        cluster: ClusterConfig | None = None,
        **options,
    ) -> None:
        if cluster is None:
            cluster = ClusterConfig()
        elif not isinstance(cluster, ClusterConfig):
            raise TypeError(
                f"cluster= takes a ClusterConfig, not {type(cluster).__name__}; "
                "wrap a backend name or cluster instance as ClusterConfig(backend=...)"
            )
        self.sigma = check_int(sigma, "sigma")
        self.dictionary = dictionary
        self.cluster = cluster
        self.patex = PatEx(patex) if isinstance(patex, str) else patex
        if self.patex is None:
            subject = dictionary
        else:
            subject = make_kernel(self.patex.compile(dictionary), dictionary)
        self.job = self.job_class(subject, sigma=self.sigma, **self.job_options, **options)

    def mine(self, database: SequenceDatabase | Sequence[Sequence[int]]) -> MiningResult:
        """Mine all frequent patterns of ``database`` under the constraint.

        The baselines may raise :class:`~repro.errors.CandidateExplosionError`.
        """
        records = as_mining_records(database)
        result = self.cluster.build().run(self.job, records)
        return MiningResult(dict(result.outputs), result.metrics, self.algorithm_name)
