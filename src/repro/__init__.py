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

Quickstart (the blessed surface lives in :mod:`repro.api`; ``repro.mine`` is
:func:`repro.api.mine`, which takes a corpus or a ``(database, dictionary)``
pair and runs every algorithm of the evaluation)::

    import repro

    corpus = repro.Corpus.from_gid_sequences(raw_sequences)
    result = repro.mine(corpus, "(A)[(.^)|.]*(b)", sigma=2, algorithm="dseq")
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

__version__ = "1.0.0"

# ``repro.api`` is the blessed public facade; the other names are the
# long-standing top-level shortcuts.  Nothing loads before it is asked for.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.api": ("Corpus", "LocalSession", "Session", "ServiceSession", "connect", "mine"),
        "repro.core": (
            "DCandMiner",
            "DSeqMiner",
            "DesqDfsMiner",
            "MiningResult",
            "NaiveMiner",
            "SemiNaiveMiner",
        ),
        "repro.dictionary": ("Dictionary", "DictionaryBuilder", "Hierarchy", "build_dictionary"),
        "repro.errors": (
            "CandidateExplosionError",
            "CorpusNotAttachedError",
            "MiningError",
            "PatExSyntaxError",
            "QueryTimeoutError",
            "ReproError",
            "ServiceError",
        ),
        "repro.fst": ("CompiledFst", "make_kernel"),
        "repro.mapreduce": (
            "BACKENDS",
            "ClusterConfig",
            "SimulatedCluster",
            "make_cluster",
        ),
        "repro.patex": ("PatEx",),
        "repro.sequences": ("SequenceDatabase", "preprocess"),
    },
)
__all__ = sorted([*__all__, "__version__", "api"])
