"""repro: scalable frequent sequence mining with flexible subsequence constraints.

A from-scratch Python reproduction of

    A. Renz-Wieland, M. Bertsch, R. Gemulla.
    "Scalable Frequent Sequence Mining with Flexible Subsequence Constraints."
    ICDE 2019.

The package provides the DESQ constraint model (pattern expressions compiled
to finite state transducers), the distributed mining algorithms D-SEQ and
D-CAND on a simulated single-round MapReduce substrate, the NAÏVE/SEMI-NAÏVE
baselines, sequential and specialised reference miners, synthetic dataset
generators, and an experiment harness that regenerates every table and figure
of the paper's evaluation.

Quickstart (the blessed surface lives in :mod:`repro.api`)::

    import repro

    corpus = repro.Corpus.from_gid_sequences(raw_sequences)
    result = repro.api.mine(corpus, "(A)[(.^)|.]*(b)", sigma=2, algorithm="dseq")
    print(result.decoded(corpus.dictionary))

For mining as a service — attach once, query many times, results cached —
use a session (:class:`repro.api.LocalSession` in-process, or
:func:`repro.connect` against a ``repro serve`` daemon)::

    with repro.LocalSession() as session:
        session.attach_corpus("demo", corpus)
        session.mine("demo", "(A)[(.^)|.]*(b)", sigma=2)
        session.top_k("demo", "(A)[(.^)|.]*(b)", k=5)
"""

from repro._lazy import lazy_exports
from repro.core import (
    DCandMiner,
    DSeqMiner,
    DesqDfsMiner,
    MiningResult,
    NaiveMiner,
    SemiNaiveMiner,
    mine,
)
from repro.dictionary import Dictionary, DictionaryBuilder, Hierarchy, build_dictionary
from repro.errors import (
    CandidateExplosionError,
    MiningError,
    PatExSyntaxError,
    ReproError,
)
from repro.fst import KERNELS, CompiledFst, make_kernel
from repro.mapreduce import (
    BACKENDS,
    ClusterConfig,
    ProcessPoolCluster,
    SimulatedCluster,
    ThreadPoolCluster,
    make_cluster,
)
from repro.patex import PatEx
from repro.sequences import SequenceDatabase, preprocess

# The blessed public facade (imported last: repro.api composes the above).
from repro import api  # noqa: E402
from repro.api import Corpus, LocalSession, Session
from repro.errors import CorpusNotAttachedError, QueryTimeoutError, ServiceError

# The service client loads with the first connect(); see repro._lazy.
__getattr__ = lazy_exports(__name__, {"repro.api.client": ("ServiceSession", "connect")})

__version__ = "1.0.0"

__all__ = [
    "BACKENDS",
    "CandidateExplosionError",
    "CompiledFst",
    "ClusterConfig",
    "Corpus",
    "CorpusNotAttachedError",
    "DCandMiner",
    "DSeqMiner",
    "DesqDfsMiner",
    "Dictionary",
    "DictionaryBuilder",
    "Hierarchy",
    "KERNELS",
    "LocalSession",
    "MiningError",
    "MiningResult",
    "NaiveMiner",
    "PatEx",
    "PatExSyntaxError",
    "ProcessPoolCluster",
    "QueryTimeoutError",
    "ReproError",
    "SemiNaiveMiner",
    "SequenceDatabase",
    "ServiceError",
    "ServiceSession",
    "Session",
    "SimulatedCluster",
    "ThreadPoolCluster",
    "__version__",
    "api",
    "build_dictionary",
    "connect",
    "make_cluster",
    "make_kernel",
    "mine",
    "preprocess",
]
