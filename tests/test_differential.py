"""Differential and property-based tests across all mining algorithms.

The strongest correctness argument the reproduction can make is that the four
distributed algorithms (D-SEQ, D-CAND, NAÏVE, SEMI-NAÏVE) and the sequential
reference miners (DESQ-DFS, DESQ-COUNT) — which share almost no code paths —
produce identical results on arbitrary inputs.  These tests generate random
databases over the running-example vocabulary with hypothesis and check this
agreement for a spectrum of constraint shapes, plus a brute-force oracle for
the semantics of π-generation itself.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import mine
from repro.core import DCandMiner, DSeqMiner, NaiveMiner, SemiNaiveMiner
from repro.core.dcand import DCandJob
from repro.core.dseq import DSeqJob
from repro.core.naive import NaiveJob
from repro.core.grid_engine import DEFAULT_GRID_MEMO_LIMIT, set_grid_memo_limit
from repro.dictionary import Hierarchy
from repro.mapreduce import ClusterConfig, make_cluster
from repro.fst import generate_candidates, make_kernel
from repro.patex import PatEx
from repro.sequences import SequenceDatabase, as_mining_records, preprocess
from repro.sequential import (
    GapConstrainedMiner,
    SequentialDesqCount,
    SequentialDesqDfs,
)
from tests.conftest import RUNNING_EXAMPLE_SEQUENCES, weighted
from tests.reference import GspMiner, InterpretedKernel, ReferenceGridJob, generates

#: Constraint shapes exercised by the differential tests: captures, optional
#: groups, generalization, repetition, alternation, and bounded gaps.
EXPRESSIONS = [
    ".*(A)[(.^)|.]*(b).*",        # the running example π_ex
    ".*(a1)(b).*",                # plain bigram capture
    ".*(A^)[.{0,2}(A^)]{1,2}.*",  # hierarchy with bounded gaps (A1/T3 shape)
    ".*(.)[.*(.)]?.*",            # 1- or 2-item patterns with arbitrary gaps
    ".*(e)?(d)(c|b).*",           # optional capture and alternation
    "[.*(A^=)]+.*",               # forced generalization, repeated group
]

#: Items used to build random databases (the Fig. 2 vocabulary).
VOCABULARY = ["a1", "a2", "b", "c", "d", "e"]

#: One sequence containing every vocabulary item, appended to every random
#: database so that all items referenced by the pattern expressions exist.
ANCHOR_SEQUENCE = tuple(VOCABULARY)


def sequences_strategy():
    return st.lists(
        st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=7),
        min_size=1,
        max_size=10,
    )


def encode(dictionary, sequences):
    return SequenceDatabase([dictionary.encode(sequence) for sequence in sequences])


def build_consistent(sequences):
    """Preprocess random sequences into a dictionary whose f-list matches them.

    The distributed algorithms assume the f-list is consistent with the mined
    database (restricted support antimonotonicity, Sec. III-A); building the
    dictionary from the generated sequences keeps that invariant.
    """
    hierarchy = Hierarchy()
    hierarchy.add_edge("a1", "A")
    hierarchy.add_edge("a2", "A")
    raw = [tuple(sequence) for sequence in sequences] + [ANCHOR_SEQUENCE]
    return preprocess(raw, hierarchy)


class TestAlgorithmsAgree:
    """All algorithms produce the same patterns and frequencies."""

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    @settings(max_examples=20, deadline=None)
    @given(sequences=sequences_strategy(), sigma=st.integers(min_value=1, max_value=3))
    def test_distributed_algorithms_agree(self, expression, sequences, sigma):
        dictionary, database = build_consistent(sequences)
        results = {
            algorithm: mine(
                (database, dictionary), expression, sigma=sigma,
                algorithm=algorithm, config=ClusterConfig(num_workers=3),
            ).patterns()
            for algorithm in ("dseq", "dcand", "naive", "semi-naive")
        }
        reference = results["dseq"]
        for algorithm, patterns in results.items():
            assert patterns == reference, f"{algorithm} disagrees with dseq"

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    @settings(max_examples=15, deadline=None)
    @given(sequences=sequences_strategy(), sigma=st.integers(min_value=1, max_value=3))
    def test_sequential_miners_agree_with_dseq(self, expression, sequences, sigma):
        dictionary, database = build_consistent(sequences)
        distributed = mine(
            (database, dictionary), expression, sigma=sigma, algorithm="dseq",
            config=ClusterConfig(num_workers=2),
        ).patterns()
        dfs = SequentialDesqDfs(expression, sigma, dictionary).mine(database).patterns()
        count = SequentialDesqCount(expression, sigma, dictionary).mine(database).patterns()
        assert dfs == distributed
        assert count == distributed


def make_differential_database(count: int = 60, seed: int = 13):
    """A seeded random database (plus consistent dictionary) for backend tests."""
    rng = random.Random(seed)
    sequences = [
        [rng.choice(VOCABULARY) for _ in range(rng.randint(1, 7))] for _ in range(count)
    ]
    return build_consistent(sequences)


#: The constraint used by the backend matrix (the paper's running example).
MATRIX_PATEX = ".*(A)[(.^)|.]*(b).*"

def _matrix_cluster(backend, codec, **fields):
    return ClusterConfig(backend=backend, codec=codec, num_workers=2, **fields)


#: All five cluster miners: name -> factory(dictionary, cluster config, **kw).
MATRIX_MINERS = {
    "dseq": lambda dictionary, cluster, **kw: DSeqMiner(
        MATRIX_PATEX, 2, dictionary, cluster=cluster, **kw
    ),
    "dcand": lambda dictionary, cluster, **kw: DCandMiner(
        MATRIX_PATEX, 2, dictionary, cluster=cluster, **kw
    ),
    "naive": lambda dictionary, cluster, **kw: NaiveMiner(
        MATRIX_PATEX, 2, dictionary, cluster=cluster, **kw
    ),
    "semi-naive": lambda dictionary, cluster, **kw: SemiNaiveMiner(
        MATRIX_PATEX, 2, dictionary, cluster=cluster, **kw
    ),
    "lash": lambda dictionary, cluster, **kw: GapConstrainedMiner(
        2, dictionary, max_gap=1, max_length=3, cluster=cluster, **kw
    ),
}


class TestPersistentBackendMatrix:
    """Cross-backend equivalence matrix for the ``persistent-processes`` backend.

    Acceptance criteria of the shared-store backend: for all five cluster
    miners and both binary codecs, mining over store chunk descriptors
    produces *byte-identical* results — same patterns, same measured wire
    bytes — as the reference backends, while the per-task database pickle
    bytes collapse to the size of the descriptors.
    """

    @pytest.fixture(scope="class")
    def matrix_data(self):
        return make_differential_database()

    @pytest.mark.parametrize("codec", ("compact", "zlib"))
    @pytest.mark.parametrize("miner_name", sorted(MATRIX_MINERS))
    def test_patterns_and_wire_bytes_match_simulated(self, miner_name, codec, matrix_data):
        dictionary, database = matrix_data
        factory = MATRIX_MINERS[miner_name]
        reference = factory(dictionary, _matrix_cluster("simulated", codec)).mine(database)
        persistent = factory(
            dictionary, _matrix_cluster("persistent-processes", codec)
        ).mine(database)
        assert persistent.patterns() == reference.patterns()
        assert persistent.metrics.wire_bytes == reference.metrics.wire_bytes
        assert persistent.metrics.wire_bytes > 0
        assert persistent.metrics.shuffle_bytes == reference.metrics.shuffle_bytes
        assert persistent.metrics.shuffle_records == reference.metrics.shuffle_records
        # The descriptors replace the pickled chunks: a handful of bytes per
        # map task instead of the serialized sequences themselves.
        assert persistent.metrics.map_input_pickle_bytes < 1024


#: The FST-simulating jobs of the cluster miners: name -> factory(kernel, sigma).
ORACLE_JOBS = {
    "dseq": lambda kernel, sigma: DSeqJob(kernel, sigma=sigma),
    "dcand": lambda kernel, sigma: DCandJob(kernel, sigma=sigma),
    "naive": lambda kernel, sigma: NaiveJob(kernel, sigma=sigma),
    "semi-naive": lambda kernel, sigma: NaiveJob(
        kernel, sigma=sigma, prune_infrequent_items=True
    ),
}


def run_on_both_kernels(job_name, expression, dictionary, database, sigma, backend):
    """One job run on the compiled kernel and one on the interpreted oracle."""
    fst = PatEx(expression).compile(dictionary)
    records = as_mining_records(database)
    return {
        name: make_cluster(backend, num_workers=2).run(
            ORACLE_JOBS[job_name](build(fst, dictionary), sigma), records
        )
        for name, build in (("compiled", make_kernel), ("interpreted", InterpretedKernel))
    }


class TestKernelOracle:
    """Jobs on the compiled kernel ≡ the same jobs on the interpreted oracle.

    The miners only ever build the compiled kernel; the oracle
    (:class:`tests.reference.InterpretedKernel`) drives the same D-SEQ, D-CAND
    and NAÏVE / SEMI-NAÏVE jobs through a cluster, in-process and on a
    process pool.  Outputs — patterns, frequencies and their order — and every
    shuffle, wire and record-count metric must be byte-identical.
    """

    BACKENDS = ("simulated", "persistent-processes")

    METRICS = (
        "shuffle_bytes",
        "shuffle_records",
        "wire_bytes",
        "map_output_records",
        "output_records",
    )

    @pytest.fixture(scope="class")
    def kernel_data(self):
        return make_differential_database(count=40, seed=17)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("job_name", sorted(ORACLE_JOBS))
    def test_outputs_and_shuffle_metrics_identical(self, job_name, backend, kernel_data):
        dictionary, database = kernel_data
        results = run_on_both_kernels(job_name, MATRIX_PATEX, dictionary, database, 2, backend)
        compiled, interpreted = results["compiled"], results["interpreted"]
        assert compiled.outputs and compiled.outputs == interpreted.outputs
        for metric in self.METRICS:
            assert getattr(compiled.metrics, metric) == (
                getattr(interpreted.metrics, metric)
            ), metric

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    @settings(max_examples=10, deadline=None)
    @given(sequences=sequences_strategy(), sigma=st.integers(min_value=1, max_value=3))
    def test_kernels_agree_on_random_databases(self, expression, sequences, sigma):
        dictionary, database = build_consistent(sequences)
        for job_name in ORACLE_JOBS:
            results = run_on_both_kernels(
                job_name, expression, dictionary, database, sigma, "simulated"
            )
            compiled, interpreted = results["compiled"], results["interpreted"]
            assert compiled.outputs == interpreted.outputs, job_name
            assert compiled.metrics.wire_bytes == interpreted.metrics.wire_bytes


class TestPerRecordMap:
    """The map stage is the job's ``map`` applied to one record at a time.

    Every backend's map task — record chunks, shared-store descriptors —
    emits exactly the pairs the job's own ``map`` emits for each input
    record, and a record maps to the same pairs whether it is mapped alone
    or after the rest of its chunk: the grid memo carries nothing from one
    record into the next.
    """

    BACKENDS = ("simulated", "persistent-processes")

    @pytest.fixture(scope="class")
    def map_data(self):
        # Seeded short-alphabet sequences: many records share prefixes.
        return make_differential_database(count=60, seed=41)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("miner_name", sorted(MATRIX_MINERS))
    def test_map_stage_emits_what_job_map_emits(self, miner_name, backend, map_data):
        dictionary, database = map_data
        cluster = make_cluster(backend, num_workers=2, codec="compact")
        runs = []
        run = cluster.run

        def recording_run(job, records, *args, **kwargs):
            runs.append((job, records))
            return run(job, records, *args, **kwargs)

        cluster.run = recording_run
        factory = MATRIX_MINERS[miner_name]
        result = factory(dictionary, _matrix_cluster(cluster, "compact")).mine(database)
        reference = factory(dictionary, _matrix_cluster("simulated", "compact")).mine(database)
        assert result.patterns() == reference.patterns()
        [(job, records)] = runs
        emitted = [pair for record in records for pair in job.map(record)]
        assert result.metrics.input_records == len(records)
        assert result.metrics.map_output_records == len(emitted) > 0

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    @settings(max_examples=10, deadline=None)
    @given(sequences=sequences_strategy(), sigma=st.integers(min_value=1, max_value=3))
    def test_a_record_maps_alike_alone_and_after_its_chunk(
        self, expression, sequences, sigma
    ):
        dictionary, database = build_consistent(sequences)
        fst = PatEx(expression).compile(dictionary)
        records = [*map(weighted, database), *as_mining_records(database)]
        for job_class in (DSeqJob, DCandJob):
            warmed = job_class(fst, dictionary, sigma)
            in_chunk = [list(warmed.map(record)) for record in records]
            set_grid_memo_limit(0)
            try:
                for record, emitted in zip(records, in_chunk):
                    alone = list(job_class(fst, dictionary, sigma).map(record))
                    assert alone == emitted, (job_class.__name__, record)
            finally:
                set_grid_memo_limit(DEFAULT_GRID_MEMO_LIMIT)


#: Atoms of the random-expression grammar: plain items, wildcards, and the
#: generalization (``^``) / forced-generalization (``^=``) modifiers.
RANDOM_ATOMS = ["a1", "a2", "b", "c", "d", "e", "A", ".", "A^", ".^", "a1^", "A^="]

#: Postfix operators applied to bracketed groups.
RANDOM_POSTFIX = ["", "?", "*", "+", "{1,2}", "{0,2}"]


def patex_strategy():
    """Random—but always grammatical—pattern expressions.

    Fragments are composed from captured/uncaptured atoms via bracketed
    concatenation, alternation, and repetition (bare multi-character items
    cannot be juxtaposed, the lexer would merge them into one token).  Every
    generated expression embeds at least one capture between ``.*`` anchors,
    so it has a chance of producing patterns.
    """
    plain_atom = st.sampled_from(RANDOM_ATOMS)
    captured_leaf = st.one_of(
        plain_atom.map(lambda atom: f"({atom})"),
        st.tuples(plain_atom, plain_atom).map(lambda pair: f"({pair[0]}|{pair[1]})"),
    )
    leaf = st.one_of(plain_atom, captured_leaf)

    def wrap(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(RANDOM_POSTFIX)).map(
                lambda pair: f"[{pair[0]}]{pair[1]}"
            ),
            st.tuples(inner, inner).map(lambda pair: f"[{pair[0]}][{pair[1]}]"),
            st.tuples(inner, inner).map(lambda pair: f"[{pair[0]}|{pair[1]}]"),
        )

    fragment = st.recursive(leaf, wrap, max_leaves=5)
    return st.tuples(fragment, captured_leaf, fragment).map(
        lambda parts: f".*[{parts[0]}]{parts[1]}[{parts[2]}].*"
    )


class TestRandomExpressions:
    """Differential testing over *random* constraints, not a fixed list.

    The five mining pipelines under test share almost no code (sequence
    representation + DESQ-DFS, NFA representation + counting, candidate
    enumeration with and without item pruning, and the two sequential
    reference miners), so agreement on random expression/database/sigma
    triples is strong evidence for the π-semantics being implemented
    correctly everywhere.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        expression=patex_strategy(),
        sequences=sequences_strategy(),
        sigma=st.integers(min_value=1, max_value=3),
    )
    def test_all_miners_agree(self, expression, sequences, sigma):
        dictionary, database = build_consistent(sequences)
        results = {
            algorithm: mine(
                (database, dictionary), expression, sigma=sigma,
                algorithm=algorithm, config=ClusterConfig(num_workers=3),
            ).patterns()
            for algorithm in ("dseq", "dcand", "naive", "semi-naive")
        }
        results["desq-dfs"] = (
            SequentialDesqDfs(expression, sigma, dictionary).mine(database).patterns()
        )
        results["desq-count"] = (
            SequentialDesqCount(expression, sigma, dictionary).mine(database).patterns()
        )
        reference = results["dseq"]
        for algorithm, patterns in results.items():
            assert patterns == reference, f"{algorithm} disagrees with dseq on {expression!r}"

    @settings(max_examples=15, deadline=None)
    @given(
        expression=patex_strategy(),
        sequences=sequences_strategy(),
        sigma=st.integers(min_value=1, max_value=3),
    )
    def test_support_counts_match_candidate_oracle(self, expression, sequences, sigma):
        """Every reported frequency equals brute-force per-sequence support."""
        dictionary, database = build_consistent(sequences)
        fst = PatEx(expression).compile(dictionary)
        result = mine(
            (database, dictionary), expression, sigma=sigma, algorithm="dcand",
        )
        for pattern, frequency in result.patterns().items():
            support = sum(
                1
                for sequence in database
                if pattern in generate_candidates(fst, sequence, dictionary)
            )
            assert support == frequency >= sigma


class TestSemanticsOracle:
    """FST candidate generation agrees with a brute-force subsequence oracle
    for a constraint whose semantics are easy to state directly."""

    @settings(max_examples=40, deadline=None)
    @given(sequence=st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=6))
    def test_bigram_constraint_oracle(self, ex_dictionary, sequence):
        """'.*(.)[.{0,1}(.)].*': pairs of items at distance at most 2."""
        fst = PatEx(".*(.)[.{0,1}(.)].*").compile(ex_dictionary)
        encoded = ex_dictionary.encode(sequence)
        candidates = generate_candidates(fst, encoded, ex_dictionary)

        expected = set()
        for i in range(len(encoded)):
            for j in (i + 1, i + 2):
                if j < len(encoded):
                    expected.add((encoded[i], encoded[j]))
        assert candidates == expected

    @settings(max_examples=40, deadline=None)
    @given(sequence=st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=6))
    def test_generalizing_unigram_oracle(self, ex_dictionary, sequence):
        """'.*(.^).*' outputs every ancestor of every position's item."""
        fst = PatEx(".*(.^).*").compile(ex_dictionary)
        encoded = ex_dictionary.encode(sequence)
        candidates = generate_candidates(fst, encoded, ex_dictionary)

        expected = set()
        for fid in encoded:
            for ancestor in ex_dictionary.ancestors(fid):
                expected.add((ancestor,))
        assert candidates == expected

    @settings(max_examples=30, deadline=None)
    @given(sequences=sequences_strategy(), sigma=st.integers(min_value=1, max_value=3))
    def test_frequencies_match_explicit_support_counting(
        self, ex_dictionary, sequences, sigma
    ):
        """f_π(S, D) equals the number of sequences whose candidate set contains S."""
        expression = ".*(A)[(.^)|.]*(b).*"
        database = encode(ex_dictionary, sequences)
        fst = PatEx(expression).compile(ex_dictionary)
        result = mine((database, ex_dictionary), expression, sigma=sigma, algorithm="dcand")
        for pattern, frequency in result.patterns().items():
            support = sum(
                1
                for sequence in database
                if pattern in generate_candidates(fst, sequence, ex_dictionary)
            )
            assert support == frequency
            assert frequency >= sigma

    @settings(max_examples=25, deadline=None)
    @given(sequences=sequences_strategy(), sigma=st.integers(min_value=1, max_value=3))
    def test_no_frequent_pattern_is_missed(self, ex_dictionary, sequences, sigma):
        """Every candidate generated at least σ times appears in the result."""
        expression = ".*(a1)[.*(b)]?.*"
        database = encode(ex_dictionary, sequences)
        fst = PatEx(expression).compile(ex_dictionary)
        support: dict[tuple[int, ...], int] = {}
        for sequence in database:
            for candidate in generate_candidates(fst, sequence, ex_dictionary):
                support[candidate] = support.get(candidate, 0) + 1
        expected = {
            candidate: count for candidate, count in support.items() if count >= sigma
        }
        mined = mine((database, ex_dictionary), expression, sigma=sigma, algorithm="dseq")
        assert mined.patterns() == expected


def make_duplicated_database(copies: int = 4, count: int = 12, seed: int = 23):
    """A database where every distinct sequence appears ``copies`` times.

    Heavy duplication is the regime the corpus-level dedup pass targets; the
    copies are interleaved so that duplicates cross map-chunk boundaries.
    The base is Fig. 2a's five sequences, which give ``MATRIX_PATEX``
    patterns at σ = 2, and ``count`` random ones.
    """
    rng = random.Random(seed)
    base = [*RUNNING_EXAMPLE_SEQUENCES] + [
        [rng.choice(VOCABULARY) for _ in range(rng.randint(1, 6))]
        for _ in range(count)
    ]
    sequences = [list(sequence) for sequence in base for _ in range(copies)]
    rng.shuffle(sequences)
    return build_consistent(sequences)


def plain_record_supports(dictionary, database, patterns, expression=MATRIX_PATEX) -> dict:
    """Each pattern's support counted over the plain, duplicated input records
    by the reference :func:`~tests.reference.generates` — no unique view, no
    weights, no candidate generation of the product."""
    fst = PatEx(expression).compile(dictionary)
    records = [tuple(sequence) for sequence in database]
    return {
        pattern: sum(generates(fst, pattern, record, dictionary) for record in records)
        for pattern in patterns
    }


def plain_record_patterns(dictionary, database, sigma, expression=MATRIX_PATEX) -> dict:
    """Every candidate generated by at least ``sigma`` plain input records."""
    fst = PatEx(expression).compile(dictionary)
    support: dict[tuple[int, ...], int] = {}
    for sequence in database:
        for candidate in generate_candidates(fst, tuple(sequence), dictionary):
            support[candidate] = support.get(candidate, 0) + 1
    return {candidate: count for candidate, count in support.items() if count >= sigma}


class TestUniqueViewMatrix:
    """miners × backends on a duplication-heavy corpus, plus D-SEQ's job and
    the reference grid's job × backends.

    Every miner maps the corpus's unique view (one weighted record per
    distinct sequence).  Acceptance criteria: patterns and supports equal
    what the plain, duplicated records give — each support counted by the
    reference :func:`~tests.reference.generates` (GSP for LASH's gap
    constraint) — in *every* cell of the matrix, and the shuffle / wire
    metrics are byte-identical across backends and between ``DSeqJob`` and
    :class:`~tests.reference.grid.ReferenceGridJob`.
    """

    #: Backends compared against the simulated baseline sweep.
    BACKENDS = ("persistent-processes", "multihost")

    #: Metrics that must match across grids and backends.
    METRICS = (
        "shuffle_bytes",
        "shuffle_records",
        "wire_bytes",
        "map_output_records",
        "input_records",
        "output_records",
    )

    @pytest.fixture(scope="class")
    def matrix_data(self):
        return make_duplicated_database()

    def _sweep(self, miner_name, backend, matrix_data):
        dictionary, database = matrix_data
        factory = MATRIX_MINERS[miner_name]
        return factory(dictionary, _matrix_cluster(backend, "compact")).mine(database)

    @pytest.fixture(scope="class")
    def simulated_sweeps(self, matrix_data):
        cache: dict[str, dict] = {}

        def get(miner_name: str) -> dict:
            if miner_name not in cache:
                cache[miner_name] = self._sweep(miner_name, "simulated", matrix_data)
            return cache[miner_name]

        return get

    @pytest.mark.parametrize("miner_name", sorted(MATRIX_MINERS))
    def test_unique_view_matches_the_plain_record_oracle(
        self, miner_name, simulated_sweeps, matrix_data
    ):
        dictionary, database = matrix_data
        result = simulated_sweeps(miner_name)
        patterns = result.patterns()
        if miner_name == "lash":
            expected = GspMiner(2, dictionary, max_gap=1, max_length=3).mine(
                [tuple(sequence) for sequence in database]
            ).patterns()
        else:
            expected = plain_record_patterns(dictionary, database, 2)
            assert plain_record_supports(dictionary, database, patterns) == patterns
        assert patterns == expected != {}
        # The dedup pass must actually shrink the map input on this
        # duplication-heavy database (4 copies of every sequence).
        distinct = len({tuple(sequence) for sequence in database})
        assert result.metrics.input_records == distinct <= len(database) // 3

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("miner_name", sorted(MATRIX_MINERS))
    def test_unique_view_identical_across_backends(
        self, miner_name, backend, matrix_data, simulated_sweeps
    ):
        reference = simulated_sweeps(miner_name)
        result = self._sweep(miner_name, backend, matrix_data)
        assert result.patterns() == reference.patterns()
        for metric in self.METRICS:
            assert getattr(result.metrics, metric) == getattr(reference.metrics, metric), metric

    @pytest.mark.parametrize("backend", ("simulated", *BACKENDS))
    def test_grid_engines_agree_at_job_level(self, backend, matrix_data, simulated_sweeps):
        """``DSeqJob`` and ``ReferenceGridJob`` on each backend: both mine
        D-SEQ's patterns, and neither the grid nor the backend changes what
        travels."""
        dictionary, database = matrix_data
        reference = simulated_sweeps("dseq")
        kernel = make_kernel(PatEx(MATRIX_PATEX).compile(dictionary), dictionary)
        cluster = _matrix_cluster(backend, "compact").build()
        for grid, job_class in (("flat", DSeqJob), ("reference", ReferenceGridJob)):
            result = cluster.run(job_class(kernel, sigma=2), as_mining_records(database))
            assert dict(result.outputs) == reference.patterns(), grid
            for metric in self.METRICS:
                assert getattr(result.metrics, metric) == (
                    getattr(reference.metrics, metric)
                ), (grid, metric)

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    @settings(max_examples=10, deadline=None)
    @given(sequences=sequences_strategy(), sigma=st.integers(min_value=1, max_value=3))
    def test_unique_view_supports_match_the_plain_record_oracle(
        self, expression, sequences, sigma
    ):
        """Unique-view mining ≡ counting over the plain records, supports
        included, and a corpus written three times over mines at 3σ to the
        same patterns with three times the support, everywhere."""
        # Every sequence three times, the anchor included, so the unique
        # view collapses records and the weights genuinely carry the counts.
        once = [tuple(sequence) for sequence in sequences]
        dictionary, database = build_consistent(once)
        tripled_dictionary, tripled = build_consistent(once * 3 + [ANCHOR_SEQUENCE] * 2)

        def decoded(patterns, dictionary) -> dict:
            return {tuple(dictionary.decode(p)): frequency for p, frequency in patterns.items()}

        expected = plain_record_patterns(tripled_dictionary, tripled, 3 * sigma, expression)
        for algorithm in ("dseq", "dcand", "naive", "semi-naive"):
            config = ClusterConfig(num_workers=2)
            mined = mine(
                (tripled, tripled_dictionary), expression, sigma=3 * sigma,
                algorithm=algorithm, config=config,
            )
            patterns = mined.patterns()
            assert patterns == expected, algorithm
            assert plain_record_supports(
                tripled_dictionary, tripled, patterns, expression
            ) == patterns, algorithm
            assert mined.metrics.input_records <= len(tripled) // 3
            single = mine(
                (database, dictionary), expression, sigma=sigma,
                algorithm=algorithm, config=config,
            ).patterns()
            assert decoded(patterns, tripled_dictionary) == {
                pattern: 3 * frequency
                for pattern, frequency in decoded(single, dictionary).items()
            }, algorithm
        for miner in (SequentialDesqDfs, SequentialDesqCount):
            assert miner(expression, 3 * sigma, tripled_dictionary).mine(
                tripled
            ).patterns() == expected, miner.__name__
