"""The redesigned public mining API: one entry point, one session facade.

Two layers:

* :func:`mine` — the unified, sessionless entry point and the only place
  that maps an algorithm name to a miner (:data:`ALGORITHM_TABLE`).  One
  signature for all eight algorithms (``dseq``, ``dcand``, ``naive``,
  ``semi-naive``, ``lash``/``mg-fsm``, ``desq-dfs``, ``desq-count``,
  ``prefixspan``): a corpus, a constraint, σ, an algorithm name, and a
  :class:`~repro.mapreduce.ClusterConfig`.  ``repro.mine`` is this function.
* :class:`Session` — the mining-as-a-service facade: attach corpora once,
  query them many times, with finished results held in a bounded LRU
  :class:`~repro.service.cache.QueryCache` (compiled kernels stay warm in
  :func:`~repro.fst.compiled.make_kernel`'s intern).  :class:`LocalSession`
  answers in-process; :class:`repro.api.client.ServiceSession` (via
  :func:`repro.api.connect`) answers from a warm ``repro serve`` daemon.
  Both implement this facade identically — a query is byte-identical
  whether served locally or remotely.

Cache keys are ``(corpus content hash, constraint, σ, algorithm,
ClusterConfig fingerprint, extra options)``: content-addressed corpora mean
a re-attach after :meth:`~repro.sequences.database.SequenceDatabase.append`
simply stops matching the stale entries.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING

from repro.api.corpus import Corpus, as_corpus
from repro.datasets.constraints import Constraint
from repro.errors import CorpusNotAttachedError, MiningError, check_int
from repro.mapreduce import ClusterConfig
from repro.patex import PatEx

if TYPE_CHECKING:
    from repro.core.results import MiningResult
    from repro.service.cache import CacheInfo

#: Option names of the per-sequence safety caps a miner may honour.
MAX_RUNS = "max_runs"
MAX_CANDIDATES = "max_candidates_per_sequence"


@dataclass(frozen=True)
class Algorithm:
    """One row of :data:`ALGORITHM_TABLE`: how :func:`mine` runs an algorithm."""

    #: ``"module:Class"`` of the miner, imported by the first query that runs
    #: it: a query pays for the algorithm it uses.
    miner: str
    #: Whether the miner runs on the query's :class:`ClusterConfig` (the
    #: sequential miners mine in-process and take none).
    cluster: bool = True
    #: The safety caps (:data:`MAX_RUNS`, :data:`MAX_CANDIDATES`) it honours.
    caps: tuple[str, ...] = ()
    #: ``None`` for a miner of pattern expressions; otherwise the gap/length
    #: parameters it takes, with their defaults.
    gap_parameters: dict | None = None

    def miner_class(self) -> type:
        module, _, class_name = self.miner.partition(":")
        return getattr(import_module(module), class_name)


_LASH_DEFAULTS = {"max_gap": 1, "max_length": 5, "min_length": 2}

#: Canonical algorithm name (also the cache-key name) -> how it runs: the one
#: place that maps a name to a miner.
ALGORITHM_TABLE = {
    "dseq": Algorithm("repro.core.dseq:DSeqMiner", caps=(MAX_RUNS,)),
    "dcand": Algorithm("repro.core.dcand:DCandMiner", caps=(MAX_RUNS,)),
    "naive": Algorithm("repro.core.naive:NaiveMiner", caps=(MAX_RUNS, MAX_CANDIDATES)),
    "semi-naive": Algorithm(
        "repro.core.naive:SemiNaiveMiner", caps=(MAX_RUNS, MAX_CANDIDATES)
    ),
    "lash": Algorithm(
        "repro.sequential.lash:GapConstrainedMiner",
        gap_parameters={**_LASH_DEFAULTS, "use_hierarchy": True},
    ),
    "mg-fsm": Algorithm(
        "repro.sequential.lash:GapConstrainedMiner",
        gap_parameters={**_LASH_DEFAULTS, "use_hierarchy": False},
    ),
    "desq-dfs": Algorithm("repro.sequential.desq_dfs:SequentialDesqDfs", cluster=False),
    "desq-count": Algorithm(
        "repro.sequential.desq_count:SequentialDesqCount",
        cluster=False,
        caps=(MAX_RUNS, MAX_CANDIDATES),
    ),
    # Fig. 13's MLlib setting: arbitrary gaps, no hierarchy, bounded length.
    "prefixspan": Algorithm(
        "repro.sequential.prefixspan:PrefixSpanMiner",
        cluster=False,
        gap_parameters={"max_length": 5},
    ),
}

#: Canonical algorithm names of the unified entry point.
ALGORITHMS = tuple(ALGORITHM_TABLE)

#: Accepted algorithm spellings -> canonical name.
ALGORITHM_ALIASES = {
    **{name: name for name in ALGORITHMS},
    "d-seq": "dseq",
    "d-cand": "dcand",
    "seminaive": "semi-naive",
    "mgfsm": "mg-fsm",
    "mllib": "prefixspan",
}


def preload_miners() -> None:
    """Import now what queries would import on first use: every algorithm of
    the table above and everything :mod:`repro.core`, :mod:`repro.fst` and
    :mod:`repro.mapreduce` export lazily (balance measurement, compiler, every backend).

    For long-lived processes (``repro serve`` calls this before it accepts a
    connection): a deferred import is a saving only where a process runs one
    query and exits; in a daemon it would land inside some cold request.
    """
    for algorithm in ALGORITHM_TABLE.values():
        algorithm.miner_class()
    for package in map(import_module, ("repro.core", "repro.fst", "repro.mapreduce")):
        for name in package.__all__:
            getattr(package, name)


#: Every gap/length parameter a specialised constraint may carry.
_GAP_PARAMETERS = ("max_gap", "max_length", "min_length", "use_hierarchy")


def canonical_algorithm(algorithm: str) -> str:
    """Normalize an algorithm name (or raise for unknown ones)."""
    name = ALGORITHM_ALIASES.get(str(algorithm).strip().lower())
    if name is None:
        raise MiningError(
            f"unknown algorithm {algorithm!r}; choose one of {', '.join(ALGORITHMS)}"
        )
    return name


def resolve_constraint(
    constraint, sigma: int | None
) -> tuple[str | None, dict | None, int | None]:
    """Normalize the ``constraint`` argument to ``(expression, specialized, σ)``.

    Accepts a pattern-expression string or :class:`~repro.patex.PatEx` (the
    FST miners), a dict of gap/length parameters (the specialised
    LASH/MG-FSM miners), or a :class:`~repro.datasets.constraints.Constraint`
    (which carries both forms plus a default σ).  An explicit ``sigma``
    always wins over the constraint's.
    """
    if isinstance(constraint, Constraint):
        effective = sigma if sigma is not None else constraint.sigma
        return constraint.expression, constraint.specialized, effective
    if isinstance(constraint, PatEx):
        return constraint.expression, None, sigma
    if isinstance(constraint, str):
        return constraint, None, sigma
    if isinstance(constraint, dict):
        unknown = set(constraint) - set(_GAP_PARAMETERS)
        if unknown:
            raise MiningError(
                f"unknown specialised-constraint parameters {sorted(unknown)}; "
                f"expected a subset of {list(_GAP_PARAMETERS)}"
            )
        return None, dict(constraint), sigma
    raise MiningError(
        "constraint must be a pattern expression (str or PatEx), a "
        "gap/length parameter dict, or a repro.datasets Constraint; "
        f"got {type(constraint).__name__}"
    )


def constraint_token(expression: str | None, specialized: dict | None) -> str:
    """The canonical cache-key string of a normalized constraint."""
    if expression is not None:
        return f"patex:{expression}"
    items = sorted((specialized or {}).items())
    return "gap:" + ",".join(f"{key}={value}" for key, value in items)


def _options_token(options: dict) -> str:
    """A stable string over the remaining miner keyword arguments."""
    return ",".join(f"{key}={options[key]!r}" for key in sorted(options))


def mine(
    corpus,
    constraint,
    sigma: int | None = None,
    algorithm: str = "dseq",
    config: ClusterConfig | None = None,
    **options,
) -> MiningResult:
    """Mine ``corpus`` under ``constraint`` — the unified entry point.

    Parameters
    ----------
    corpus:
        A :class:`~repro.api.corpus.Corpus` or a (database, dictionary) pair.
    constraint:
        A pattern expression (``str`` / :class:`~repro.patex.PatEx`) for the
        FST-based algorithms, a gap/length parameter dict (``max_gap``,
        ``max_length``, ``min_length``, ``use_hierarchy``) for the
        specialised ones (LASH / MG-FSM; PrefixSpan reads only
        ``max_length``), or a :class:`~repro.datasets.constraints.Constraint`
        carrying both.
    sigma:
        Minimum support threshold; defaults to the constraint's σ when a
        :class:`~repro.datasets.constraints.Constraint` is given.
    algorithm:
        One of :data:`ALGORITHMS` (a few spellings are accepted).
    config:
        The execution substrate as one
        :class:`~repro.mapreduce.ClusterConfig` (default: the library
        default substrate); the sequential miners take none.
    options:
        Forwarded to the selected miner; a cluster miner's options are the
        keyword arguments of its MapReduce job (e.g. ``use_rewriting`` of
        :class:`~repro.core.dseq.DSeqJob`, or the safety caps its table row
        lists), and an unknown one is a ``TypeError``.

    Returns
    -------
    MiningResult
        Mapping from pattern (tuple of fids) to frequency, plus job metrics.
    """
    corpus = as_corpus(corpus)
    name = canonical_algorithm(algorithm)
    expression, specialized, sigma = resolve_constraint(constraint, sigma)
    if sigma is None:
        raise MiningError(
            "sigma is required (pass sigma=... or a Constraint that carries it)"
        )
    check_int(sigma, "sigma")
    algorithm = ALGORITHM_TABLE[name]
    config = config if config is not None else ClusterConfig()
    substrate = {"cluster": config} if algorithm.cluster else {}

    if algorithm.gap_parameters is not None:
        given = dict(specialized or {})
        given.update((key, options.pop(key)) for key in _GAP_PARAMETERS if key in options)
        parameters = {
            key: given.get(key, default) for key, default in algorithm.gap_parameters.items()
        }
        miner = algorithm.miner_class()(
            sigma, dictionary=corpus.dictionary, **parameters, **substrate, **options
        )
        return miner.mine(corpus.database)

    if expression is None:
        raise MiningError(
            f"algorithm {name!r} requires a pattern-expression constraint"
        )
    miner = algorithm.miner_class()(
        PatEx(expression), sigma, corpus.dictionary, **substrate, **options
    )
    return miner.mine(corpus.database)


# --------------------------------------------------------------------- session
@dataclass(frozen=True)
class CorpusInfo:
    """What a session reports about one attached corpus."""

    name: str
    sequences: int
    items: int
    content_hash: str

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "sequences": self.sequences,
            "items": self.items,
            "content_hash": self.content_hash,
        }


class Session(abc.ABC):
    """The mining-as-a-service facade: attach corpora, query them warm.

    Implementations answer :meth:`mine` / :meth:`sweep` / :meth:`top_k`
    against corpora previously registered with :meth:`attach_corpus`,
    caching finished results in a bounded LRU keyed by content — so the same
    query against unchanged data is served from memory, and an appended
    corpus cold-starts cleanly after re-attaching.

    Two implementations exist and behave identically:
    :class:`LocalSession` (in-process) and
    :class:`~repro.api.client.ServiceSession` (a ``repro serve`` daemon via
    :func:`repro.api.connect`).
    """

    # ---------------------------------------------------------------- corpora
    @abc.abstractmethod
    def attach_corpus(self, name: str, corpus, dictionary=None) -> CorpusInfo:
        """Register ``corpus`` under ``name`` (replacing any previous one).

        ``corpus`` is a :class:`~repro.api.corpus.Corpus`, a (database,
        dictionary) pair, or a bare database combined with the
        ``dictionary`` argument.  Re-attaching after appending sequences
        updates the content hash, which cold-starts the affected queries.
        """

    @abc.abstractmethod
    def detach_corpus(self, name: str) -> None:
        """Forget the corpus registered under ``name``."""

    @abc.abstractmethod
    def corpora(self) -> dict[str, CorpusInfo]:
        """All attached corpora, by name."""

    # ---------------------------------------------------------------- queries
    @abc.abstractmethod
    def mine(
        self,
        corpus: str,
        constraint,
        sigma: int | None = None,
        algorithm: str = "dseq",
        config: ClusterConfig | None = None,
        **options,
    ) -> MiningResult:
        """Run one query against an attached corpus (cache-aided)."""

    def sweep(
        self,
        corpus: str,
        constraints,
        sigma: int | None = None,
        algorithm: str = "dseq",
        config: ClusterConfig | None = None,
        **options,
    ) -> list[MiningResult]:
        """Run one query per constraint against the same warm corpus.

        A cold query compiles its expression's FST; the compiled kernel of a
        repeated expression comes warm from the process's kernel intern.
        """
        return [
            self.mine(
                corpus, constraint, sigma=sigma, algorithm=algorithm,
                config=config, **options,
            )
            for constraint in constraints
        ]

    @abc.abstractmethod
    def top_k(
        self,
        corpus: str,
        constraint,
        k: int,
        sigma: int = 1,
        algorithm: str = "dseq",
        config: ClusterConfig | None = None,
        **options,
    ) -> list[tuple[tuple[int, ...], int]]:
        """The ``k`` most frequent patterns, found with support-based early
        termination.

        Queries run at geometrically decreasing support thresholds starting
        near the corpus size: as soon as a threshold yields at least ``k``
        patterns the descent stops — every pattern outside that result has
        strictly smaller support, so the top-k is exact — and the expensive
        low-σ mine never runs.  ``sigma`` is the floor threshold (patterns
        below it are never reported).  Intermediate results land in the
        query cache, so refining ``k`` or σ stays warm.
        """

    # ------------------------------------------------------------------ cache
    @abc.abstractmethod
    def cache_info(self) -> CacheInfo:
        """Counters of the session's query cache."""

    @abc.abstractmethod
    def clear_cache(self) -> int:
        """Drop all cached results; returns how many entries were dropped."""

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release session resources (idempotent)."""

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LocalSession(Session):
    """The in-process :class:`Session`: the library path behind the facade.

    Holds attached corpora (plus their content hashes) and the bounded LRU
    result cache.  Thread-safe: the ``repro serve`` daemon shares one
    instance across client connections.  Cache lookups are serialized; cache
    *misses* mine outside the lock, so concurrent distinct queries overlap
    (two clients racing the same cold query may both compute it — the result
    is identical either way).
    """

    def __init__(self, max_cache_entries: int | None = None) -> None:
        from repro.service.cache import DEFAULT_MAX_ENTRIES, QueryCache

        self._corpora: dict[str, Corpus] = {}
        self._hashes: dict[str, str] = {}
        self._cache = QueryCache(
            DEFAULT_MAX_ENTRIES if max_cache_entries is None else max_cache_entries
        )
        self._lock = threading.RLock()
        self.last_query_cached = False

    # ---------------------------------------------------------------- corpora
    def attach_corpus(self, name: str, corpus, dictionary=None) -> CorpusInfo:
        attached = as_corpus(corpus if dictionary is None else (corpus, dictionary))
        content = attached.content_hash()
        with self._lock:
            self._corpora[str(name)] = attached
            self._hashes[str(name)] = content
        return CorpusInfo(
            name=str(name),
            sequences=len(attached.database),
            items=len(attached.dictionary),
            content_hash=content,
        )

    def detach_corpus(self, name: str) -> None:
        with self._lock:
            if name not in self._corpora:
                raise CorpusNotAttachedError(name, list(self._corpora))
            del self._corpora[name]
            del self._hashes[name]

    def corpora(self) -> dict[str, CorpusInfo]:
        with self._lock:
            return {
                name: CorpusInfo(
                    name=name,
                    sequences=len(corpus.database),
                    items=len(corpus.dictionary),
                    content_hash=self._hashes[name],
                )
                for name, corpus in self._corpora.items()
            }

    def _resolve_corpus(self, name: str) -> tuple[Corpus, str]:
        with self._lock:
            corpus = self._corpora.get(name)
            if corpus is None:
                raise CorpusNotAttachedError(str(name), list(self._corpora))
            return corpus, self._hashes[name]

    # ---------------------------------------------------------------- queries
    def query(
        self,
        corpus: str,
        constraint,
        sigma: int | None = None,
        algorithm: str = "dseq",
        config: ClusterConfig | None = None,
        **options,
    ) -> tuple[MiningResult, bool]:
        """Like :meth:`mine`, additionally reporting whether the cache hit."""
        attached, content = self._resolve_corpus(corpus)
        name = canonical_algorithm(algorithm)
        expression, specialized, sigma = resolve_constraint(constraint, sigma)
        if sigma is not None:  # ``True`` must not hit σ = 1's cache entry
            check_int(sigma, "sigma")
        effective = config if config is not None else ClusterConfig()
        key = (
            content,
            constraint_token(expression, specialized),
            sigma,
            name,
            effective.fingerprint(),
            _options_token(options),
        )
        cached = self._cache.get(key)
        if cached is not None:
            self.last_query_cached = True
            return cached, True
        result = mine(
            attached, constraint, sigma=sigma, algorithm=name, config=effective, **options
        )
        self._cache.put(key, result)
        self.last_query_cached = False
        return result, False

    def mine(
        self,
        corpus: str,
        constraint,
        sigma: int | None = None,
        algorithm: str = "dseq",
        config: ClusterConfig | None = None,
        **options,
    ) -> MiningResult:
        result, _ = self.query(
            corpus, constraint, sigma=sigma, algorithm=algorithm,
            config=config, **options,
        )
        return result

    def top_k(
        self,
        corpus: str,
        constraint,
        k: int,
        sigma: int = 1,
        algorithm: str = "dseq",
        config: ClusterConfig | None = None,
        **options,
    ) -> list[tuple[tuple[int, ...], int]]:
        check_int(k, "k")
        check_int(sigma, "sigma")
        attached, _ = self._resolve_corpus(corpus)
        # Support never exceeds the number of input sequences, so the descent
        # starts one doubling below it and halves toward the σ floor.
        threshold = max(sigma, len(attached.database))
        while True:
            result = self.mine(
                corpus, constraint, sigma=threshold, algorithm=algorithm,
                config=config, **options,
            )
            if len(result) >= k or threshold <= sigma:
                return result.sorted_patterns()[:k]
            threshold = max(sigma, threshold // 2)

    # ------------------------------------------------------------------ cache
    def cache_info(self) -> CacheInfo:
        return self._cache.info()

    def clear_cache(self) -> int:
        return self._cache.clear()

    def close(self) -> None:
        with self._lock:
            self._corpora.clear()
            self._hashes.clear()
        self._cache.clear()
