"""The blessed public API of the reproduction.

One entry point for all eight algorithms (also reachable as ``repro.mine``),
and one session facade for mining-as-a-service::

    import repro.api

    corpus = repro.api.Corpus.from_gid_sequences([["a", "b"], ["a", "c", "b"]])

    # Sessionless: one unified signature for every algorithm.
    result = repro.api.mine(corpus, "(a).*(b)", sigma=2, algorithm="dseq")

    # Warm session: attach once, query many times, results cached.
    with repro.api.LocalSession() as session:
        session.attach_corpus("demo", corpus)
        session.mine("demo", "(a).*(b)", sigma=2)          # cold
        session.mine("demo", "(a).*(b)", sigma=2)          # served from cache
        session.top_k("demo", "(a).*(b)", k=3)             # early-terminating

    # Same facade against a ``repro serve`` daemon, byte-identical results.
    with repro.api.connect(port=9043) as session:
        ...
"""

from repro._lazy import lazy_exports

# The service client loads with the first connect(), a miner with the first
# query that runs it; see repro._lazy.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.api.client": ("ServiceSession", "connect"),
        "repro.api.corpus": ("Corpus", "as_corpus"),
        "repro.api.session": (
            "ALGORITHMS",
            "ALGORITHM_TABLE",
            "CorpusInfo",
            "LocalSession",
            "Session",
            "canonical_algorithm",
            "mine",
            "preload_miners",
        ),
    },
)
