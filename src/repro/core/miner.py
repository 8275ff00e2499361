"""Top-level mining entry point.

:func:`mine` is the one-call API most applications need: it picks an algorithm
by name, runs it on a simulated cluster, and returns a
:class:`~repro.core.results.MiningResult`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.dcand import DCandMiner
from repro.core.dseq import DSeqMiner
from repro.core.naive import NaiveMiner, SemiNaiveMiner
from repro.core.results import MiningResult
from repro.dictionary import Dictionary
from repro.errors import MiningError
from repro.patex import PatEx
from repro.sequences import SequenceDatabase

#: Algorithm name -> miner class.
ALGORITHMS = {
    "dseq": DSeqMiner,
    "d-seq": DSeqMiner,
    "dcand": DCandMiner,
    "d-cand": DCandMiner,
    "naive": NaiveMiner,
    "semi-naive": SemiNaiveMiner,
    "seminaive": SemiNaiveMiner,
}


def mine(
    database: SequenceDatabase | Sequence[Sequence[int]],
    dictionary: Dictionary,
    patex: PatEx | str,
    sigma: int,
    algorithm: str = "dseq",
    **options,
) -> MiningResult:
    """Mine frequent patterns under a flexible subsequence constraint.

    Parameters
    ----------
    database:
        fid-encoded input sequences.
    dictionary:
        Frequency-ordered item dictionary (the f-list).
    patex:
        The subsequence constraint as a pattern expression (string or
        :class:`~repro.patex.PatEx`).
    sigma:
        Minimum support threshold (>= 1).
    algorithm:
        One of ``"dseq"``, ``"dcand"``, ``"naive"``, ``"semi-naive"``.
    options:
        Forwarded to the chosen miner (e.g. ``num_workers``, ``use_rewriting``,
        ``grid`` / ``partitioner`` to pick the grid engine and reduce
        partitioner,
        ``max_runs`` to tune the accepting-run safety cap, or ``cluster`` —
        a :class:`~repro.mapreduce.ClusterConfig` that specifies the whole
        execution substrate — backend, codec, spill budget, and the knobs
        above — in one object).

    Returns
    -------
    MiningResult
        Mapping from pattern (tuple of fids) to frequency, plus job metrics.
    """
    key = algorithm.strip().lower()
    miner_class = ALGORITHMS.get(key)
    if miner_class is None:
        raise MiningError(
            f"unknown algorithm {algorithm!r}; choose one of {sorted(set(ALGORITHMS))}"
        )
    miner = miner_class(patex, sigma, dictionary, **options)
    return miner.mine(database)
