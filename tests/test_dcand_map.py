"""Byte identity of the one-pass D-CAND map against the construction it replaced.

``DCandJob.map`` walks the kernel's per-item edge rows carrying the output
sets, inserts every *distinct* run once per pivot (closed form), lets the trie
cut each label at the pivot and serializes every pivot's trie straight from
the builder, labels from a memoised byte table.  The oracle below is the
first algorithm, rebuilt from ``tests/reference/``: accepting runs → output
sets → ⊕-fold pivots → per-(run, pivot) item filter → ``TrieBuilder.add_run``
→ ``trie`` → ``minimize_acyclic`` → ``serialize``.  Both sides must produce
the same payload bytes for the same pivots.  The second half of the file
counts what the map does instead of timing it.

One deliberate difference is pinned here as well: the map emits a record's
pivots in ascending order.  The previous code emitted them in the order a
CPython ``set`` of ints happened to iterate; no consumer depends on that
order (pivots are distinct within a record, and values are grouped by key
before anything is counted or encoded), so the oracle sorts by pivot.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from bisect import bisect_right
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dcand import DCandJob
from repro.core.pivot_search import pivots_of_sorted_sets
from repro.datasets.amzn import amzn_like
from repro.datasets.constraints import constraint
from repro.dictionary import Hierarchy
from repro.errors import CandidateExplosionError, NfaError
from repro.fst import (
    EPSILON_OUTPUT,
    MiningKernel,
    accepting_output_sets,
    accepting_runs,
    make_kernel,
)
from repro.nfa import (
    TrieBuilder,
    deserialize,
    serialize,
    serialize_pivot_tries,
    serialize_trie,
)
from repro.fst import simulation as simulation_module
from repro.nfa import serializer as serializer_module
from repro.patex import PatEx
from repro.sequences import (
    as_mining_records,
    preprocess,
    record_parts,
    weighted_value_parts,
)
from tests.conftest import weighted
from tests.test_differential import build_consistent, patex_strategy, sequences_strategy
from tests.test_pivot_search import brute_force_pivots
from tests.reference import (
    InterpretedKernel,
    accepts,
    minimize_acyclic,
    pivots_of_output_sets,
    run_output_sets,
    trie,
)

#: The product kernel and the oracle it is checked against, by name.
KERNELS = {"compiled": make_kernel, "interpreted": InterpretedKernel}


def oracle_map(job: DCandJob, record) -> list:
    """The replaced map algorithm, emitting in ascending pivot order."""
    sequence, weight = record_parts(record)
    builders: dict[int, TrieBuilder] = {}
    for run in accepting_runs(job.kernel, sequence, max_runs=job.max_runs):
        output_sets = run_output_sets(run, sequence, job.kernel, job.max_frequent_fid)
        if any(not outputs for outputs in output_sets):
            continue
        for pivot in pivots_of_output_sets(output_sets):
            restricted = [
                tuple(item for item in outputs if item <= pivot)
                for outputs in output_sets
                if outputs != EPSILON_OUTPUT
            ]
            builders.setdefault(pivot, TrieBuilder()).add_run(restricted)
    emitted = []
    for pivot in sorted(builders):
        nfa = trie(builders[pivot])
        if job.minimize_nfas:
            nfa = minimize_acyclic(nfa)
        payload = serialize(nfa)
        emitted.append((pivot, payload if weight == 1 else (payload, weight)))
    return emitted


def assert_map_matches_oracle(dictionary, database, expression, sigma):
    fst = PatEx(expression).compile(dictionary)
    for kernel_name in KERNELS:
        kernel = KERNELS[kernel_name](fst, dictionary)
        for minimize in (True, False):
            job = DCandJob(kernel, sigma=sigma, minimize_nfas=minimize)
            for index, sequence in enumerate(database):
                plain = tuple(sequence)
                for record in (weighted(plain), weighted(plain, index + 2)):
                    mapped = list(job.map(record))
                    assert mapped == oracle_map(job, record), (kernel_name, minimize)
                    pivots = [pivot for pivot, _value in mapped]
                    assert pivots == sorted(set(pivots))


def random_hierarchy_corpus(data):
    """A random DAG hierarchy (multi-parent items) and sequences over it."""
    names = [f"i{index}" for index in range(data.draw(st.integers(2, 6)))]
    hierarchy = Hierarchy()
    for index, name in enumerate(names):
        hierarchy.add_item(name)
        parents = data.draw(
            st.lists(st.sampled_from(names[:index]), unique=True, max_size=2)
            if index
            else st.just([])
        )
        for parent in parents:
            hierarchy.add_edge(name, parent)
    sequences = data.draw(
        st.lists(
            st.lists(st.sampled_from(names), min_size=0, max_size=6),
            min_size=1,
            max_size=6,
        )
    )
    raw = [tuple(sequence) for sequence in sequences] + [tuple(names)]
    return names, preprocess(raw, hierarchy)


class TestMapByteIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        expression=patex_strategy(),
        sequences=sequences_strategy(),
        sigma=st.integers(min_value=1, max_value=3),
    )
    def test_random_expressions_and_databases(self, expression, sequences, sigma):
        dictionary, database = build_consistent(sequences)
        assert_map_matches_oracle(dictionary, database, expression, sigma)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_hierarchies(self, data):
        """Generalizing captures over DAG hierarchies: wide, sliced labels."""
        names, (dictionary, database) = random_hierarchy_corpus(data)
        anchor = data.draw(st.sampled_from(names))
        expression = data.draw(
            st.sampled_from(
                [
                    f".*({anchor}^)[(.^)|.]*(.).*",
                    ".*(.^)[.{0,1}(.^)]{1,2}.*",
                    f".*(.^)[.*({anchor}^=)]?.*",
                ]
            )
        )
        sigma = data.draw(st.integers(min_value=1, max_value=3))
        assert_map_matches_oracle(dictionary, database, expression, sigma)

    def test_golden_amzn_a3_payload_digest(self, golden, golden_a3):
        """sha256 over every map payload of A3(8) on a fixed AMZN-like corpus."""
        dictionary, fst, sigma, records = golden_a3
        job = DCandJob(make_kernel(fst, dictionary), sigma=sigma)
        digest = hashlib.sha256()
        payloads = 0
        for record in records:
            for pivot, value in job.map(record):
                digest.update(repr((pivot, value)).encode("ascii"))
                payloads += 1
        golden(
            "dcand_map_a3",
            {"payloads": payloads, "sha256": digest.hexdigest()},
        )


def sorted_sets_strategy():
    """ε-free ascending output sets, the shape the map works on."""
    return st.lists(
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4).map(
            lambda items: tuple(sorted(set(items)))
        ),
        min_size=0,
        max_size=5,
    )


class TestClosedFormPivots:
    @settings(max_examples=200, deadline=None)
    @given(output_sets=sorted_sets_strategy())
    def test_equals_merge_fold_and_brute_force(self, output_sets):
        pivots = pivots_of_sorted_sets(output_sets)
        assert pivots == sorted(pivots_of_output_sets(output_sets))
        assert pivots == sorted(brute_force_pivots(output_sets))

    @settings(max_examples=100, deadline=None)
    @given(
        output_sets=sorted_sets_strategy(),
        gaps=st.lists(st.integers(min_value=0, max_value=5), max_size=3),
    )
    def test_epsilon_sets_do_not_matter(self, output_sets, gaps):
        """Dropping ε sets first (what the map does) leaves the fold's answer."""
        padded = list(output_sets)
        for gap in gaps:
            padded.insert(min(gap, len(padded)), EPSILON_OUTPUT)
        assert sorted(pivots_of_output_sets(padded)) == pivots_of_sorted_sets(
            output_sets
        )


class TestOutputSetInvariant:
    """Every set that reaches the map is a non-empty ascending tuple of items
    no larger than the frequency bound: what ``bisect`` and the label slices
    rely on."""

    @pytest.mark.parametrize("kernel_name", KERNELS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_sets_ascend_and_match_the_two_step_route(self, kernel_name, data):
        names, (dictionary, database) = random_hierarchy_corpus(data)
        anchor = data.draw(st.sampled_from(names))
        expression = data.draw(
            st.sampled_from([f".*({anchor}^)[(.^)|.]*(.).*", ".*(.^)[.?(.^=)]?.*"])
        )
        sigma = data.draw(st.integers(min_value=1, max_value=3))
        bound = dictionary.largest_frequent_fid(sigma)
        kernel = KERNELS[kernel_name](PatEx(expression).compile(dictionary), dictionary)
        for sequence in database:
            sequence = tuple(sequence)
            one_pass = list(accepting_output_sets(kernel, sequence, bound))
            for output_sets in one_pass:
                for outputs in output_sets:
                    assert type(outputs) is tuple and outputs
                    assert all(a < b for a, b in zip(outputs, outputs[1:]))
                    assert 1 <= outputs[0] and outputs[-1] <= bound
            two_step = [
                run_output_sets(run, sequence, kernel, bound)
                for run in accepting_runs(kernel, sequence)
            ]
            assert one_pass == [
                [outputs for outputs in output_sets if outputs != EPSILON_OUTPUT]
                for output_sets in two_step
                if all(output_sets)
            ]


# ------------------------------------------------------- counts, not clocks
class CountingKernel(MiningKernel):
    """The walker-facing surface of ``inner``, counting every call made on it.

    What the inner kernel asks of itself (an interpreted ``edge_rows`` builds
    its rows from ``matching``; a cold reachability step does too) does not
    pass through this object and is not the map's protocol.
    """

    COUNTED = ("matching", "target", "is_captured", "outputs", "filtered_outputs", "edge_rows")

    def __init__(self, inner: MiningKernel) -> None:
        super().__init__(inner.fst, inner.dictionary)
        self.inner = inner
        self.calls: Counter = Counter()

    def __getattribute__(self, name):
        if name not in CountingKernel.COUNTED:
            return super().__getattribute__(name)
        method = getattr(self.inner, name)

        def counted(*args):
            self.calls[name] += 1
            return method(*args)

        return counted

    def reachability_table(self, sequence):
        return self.inner.reachability_table(sequence)


@pytest.fixture(scope="module")
def golden_a3():
    """The golden test's corpus and constraint: (dictionary, fst, sigma, records)."""
    dictionary, database = amzn_like(200, seed=13).preprocess()
    a3 = constraint("A3", 8)
    fst = a3.patex().compile(dictionary)
    return dictionary, fst, a3.sigma, list(as_mining_records(database))


@pytest.fixture(scope="module")
def golden_payloads(golden_a3):
    """Every map payload of the golden corpus, and the NFA each one encodes."""
    dictionary, fst, sigma, records = golden_a3
    job = DCandJob(make_kernel(fst, dictionary), sigma=sigma)
    payloads = [
        weighted_value_parts(value)[0]
        for record in records
        for _pivot, value in job.map(record)
    ]
    return [deserialize(payload) for payload in payloads], payloads


class TestWalkerProtocol:
    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_one_edge_row_lookup_per_position_and_no_other_kernel_call(
        self, kernel_name, golden_a3
    ):
        dictionary, fst, sigma, records = golden_a3
        inner = KERNELS[kernel_name](fst, dictionary)
        kernel = CountingKernel(inner)
        job = DCandJob(kernel, sigma=sigma)
        reference = DCandJob(inner, sigma=sigma)
        positions = 0
        for record in records:
            assert list(job.map(record)) == list(reference.map(record))
            sequence, _weight = record_parts(record)
            if accepts(inner, sequence):  # a rejected sequence looks nothing up
                positions += len(sequence)
        assert positions and kernel.calls == {"edge_rows": positions}

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_accepting_runs_goes_through_the_same_loop(self, kernel_name, golden_a3, monkeypatch):
        """One run-walking loop: both iterators are served by ``_walk_runs``."""
        # Imported here: that module imports this one.
        from tests.test_local_mining_index import count_calls

        dictionary, fst, _sigma, records = golden_a3
        kernel = KERNELS[kernel_name](fst, dictionary)
        sequence = next(s for s, _weight in map(record_parts, records) if accepts(kernel, s))
        walked = []
        count_calls(monkeypatch, simulation_module, "_walk_runs", walked)
        runs = list(accepting_runs(kernel, sequence))
        assert len(runs) == len(list(accepting_output_sets(kernel, sequence))) > 0
        assert walked == [sequence, sequence]

    def test_wide_fst_and_long_sequence_go_through_the_walker(self):
        # 74 states: the alive masks go past a machine word.
        raw = [("a1",) + ("c", "d", "e", "a2") * 9 + ("b", "c", "b"), ("c",) * 40, ("a1", "b")]
        expression = ".*(A^)[.{0,35}(b)]{1,2}.*"
        dictionary, database = build_consistent(raw)
        assert make_kernel(PatEx(expression).compile(dictionary), dictionary).num_states > 64
        assert_map_matches_oracle(dictionary, database, expression, 1)
        # 1,500 items, one run: deeper than the interpreter's recursion limit.
        dictionary, database = build_consistent([("a1",) * 1_500, ("a1",) * 1_499 + ("b",)])
        long_run, rejected = (tuple(sequence) for sequence in list(database)[:2])
        for kernel_name in KERNELS:
            kernel = KERNELS[kernel_name](PatEx("(a1)+").compile(dictionary), dictionary)
            job = DCandJob(kernel, sigma=1)
            assert list(job.map(weighted(long_run))) == oracle_map(job, long_run) != []
            assert list(job.map(weighted(rejected))) == []


class TestDistinctRuns:
    def test_each_distinct_run_is_inserted_once_into_each_pivot_trie(
        self, golden_a3, monkeypatch
    ):
        """One ``add_run`` call per distinct run carries all its pivots; the
        (run, pivot) insertions it makes are counted one by one."""
        dictionary, fst, sigma, records = golden_a3
        job = DCandJob(make_kernel(fst, dictionary), sigma=sigma)
        calls = []
        inserted = []
        original = TrieBuilder.add_run

        def counted(self, output_sets, pivots=None):
            pivots = list(pivots)
            calls.append(tuple(output_sets))
            inserted.extend((tuple(output_sets), pivot) for pivot in pivots)
            return original(self, output_sets, pivots)

        monkeypatch.setattr(TrieBuilder, "add_run", counted)
        runs_times_pivots = expected = 0
        for record in records:
            calls.clear()
            inserted.clear()
            list(job.map(record))
            runs = [
                tuple(output_sets)
                for output_sets in accepting_output_sets(
                    job.kernel, record_parts(record)[0], job.max_frequent_fid
                )
            ]
            assert sorted(calls) == sorted(set(runs))
            per_pivot = Counter(inserted)
            assert set(per_pivot.values()) <= {1}
            assert set(per_pivot) == {
                (run, pivot) for run in set(runs) for pivot in pivots_of_sorted_sets(run)
            }
            expected += len(per_pivot)
            runs_times_pivots += sum(len(pivots_of_sorted_sets(run)) for run in runs)
        assert 0 < expected < runs_times_pivots
        assert expected == 2_047  # 82,791 on the 2,500-user benchmark corpus

    @pytest.mark.parametrize("expression", [".*(a1).*.*", ".*(a1)[.*|.*b]", ".*(A^)[.*|c.*].*"])
    def test_epsilon_ambiguity_repeats_runs_and_keeps_the_bytes(self, expression):
        raw = [("a1", "b", "a1", "c", "b"), ("c", "a1", "c", "c"), ("a2", "c", "a1", "b")]
        dictionary, database = build_consistent(raw)
        for kernel_name in KERNELS:
            kernel = KERNELS[kernel_name](PatEx(expression).compile(dictionary), dictionary)
            repeated = 0
            for sequence in database:
                runs = [tuple(sets) for sets in accepting_output_sets(kernel, tuple(sequence))]
                repeated += len(runs) - len(set(runs))
            assert repeated > 0
        assert_map_matches_oracle(dictionary, database, expression, 1)


class TestRunCap:
    """``max_runs`` counts accepting runs of the FST — repeated ones and ones
    the frequency filter empties included — the same for all three readers."""

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_the_cap_fires_at_the_same_count_for_runs_sets_and_map(self, kernel_name):
        # ``c`` occurs in one sequence only: at sigma 2 its captured set empties.
        raw = [("a1", "c", "a1", "b", "a1"), ("a1", "b"), ("b", "a1")]
        dictionary, database = preprocess(raw, Hierarchy())
        sequence = tuple(database[0])
        kernel = KERNELS[kernel_name](PatEx(".*(.).*").compile(dictionary), dictionary)
        bound = dictionary.largest_frequent_fid(2)
        assert dictionary.fid_of("c") > bound
        total = len(list(accepting_runs(kernel, sequence)))
        yielded = list(accepting_output_sets(kernel, sequence, bound))
        assert total == 5 and len(yielded) == 4 and len({tuple(s) for s in yielded}) == 2
        job = DCandJob(kernel, sigma=2, max_runs=total)
        assert list(job.map(weighted(sequence))) == oracle_map(job, sequence) != []
        for reader in (
            lambda cap: accepting_runs(kernel, sequence, max_runs=cap),
            lambda cap: accepting_output_sets(kernel, sequence, bound, cap),
            lambda cap: DCandJob(kernel, sigma=2, max_runs=cap).map(weighted(sequence)),
        ):
            list(reader(total))
            with pytest.raises(CandidateExplosionError):
                list(reader(total - 1))
        # The dropped run is the second one: a cap of one raises right after it,
        # before any later run is yielded.
        capped = accepting_output_sets(kernel, sequence, bound, 1)
        assert next(capped) == yielded[0]
        with pytest.raises(CandidateExplosionError):
            next(capped)


class TestPivotForest:
    @settings(max_examples=200, deadline=None)
    @given(
        runs=st.lists(sorted_sets_strategy().filter(bool), min_size=1, max_size=6),
        limit=st.integers(min_value=0, max_value=10),
    )
    def test_cutting_inside_equals_inserting_the_cut_sets(self, runs, limit):
        inside, outside = TrieBuilder(), TrieBuilder()
        for output_sets in runs:
            sliced = [outputs[: bisect_right(outputs, limit)] for outputs in output_sets]
            if all(sliced):
                inside.add_run(output_sets, [limit])
                outside.add_run(sliced)
            else:
                with pytest.raises(NfaError):
                    TrieBuilder().add_run(output_sets, [limit])
        for minimize in (True, False):
            cut = dict(serialize_pivot_tries(inside, minimize))
            if outside.num_states == 1:
                assert cut == {}
            else:
                assert cut == {limit: serialize_trie(outside, minimize)}

    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(sorted_sets_strategy().filter(bool), min_size=1, max_size=8))
    def test_one_forest_writes_each_pivot_trie_alone(self, runs):
        """Minimizing all pivots' tries in one sweep may merge states across
        tries (a pivot's root included); every pivot's bytes stay those of a
        builder that holds its trie alone."""
        forest = TrieBuilder()
        alone: dict[int, TrieBuilder] = {}
        for output_sets in runs:
            pivots = pivots_of_sorted_sets(output_sets)
            forest.add_run(output_sets, pivots)
            for pivot in pivots:
                cut = [outputs[: bisect_right(outputs, pivot)] for outputs in output_sets]
                alone.setdefault(pivot, TrieBuilder()).add_run(cut)
        for minimize in (True, False):
            assert list(serialize_pivot_tries(forest, minimize)) == [
                (pivot, serialize_trie(alone[pivot], minimize)) for pivot in sorted(alone)
            ]

    def test_a_root_merged_into_another_trie(self):
        """Pivot 5's trie spells ``{(5,)}``; so does the state after ``(2,)``
        in pivot 6's trie: the sweep keeps one of the two."""
        forest = TrieBuilder()
        forest.add_run([(5,)], [5])
        forest.add_run([(2,), (5,), (6,)], [6])
        forest.add_run([(6,), (5,)], [6])
        edges, starts = forest.pivot_edge_lists(minimize=True)
        assert starts[5] != forest.roots[5]
        assert dict(serialize_pivot_tries(forest)) == {
            5: serialize_trie(self.single([[(5,)]])),
            6: serialize_trie(self.single([[(2,), (5,), (6,)], [(6,), (5,)]])),
        }

    @staticmethod
    def single(runs):
        builder = TrieBuilder()
        for run in runs:
            builder.add_run(run)
        return builder

    def test_no_pivots_take_the_labels_as_given(self):
        builder = TrieBuilder()
        builder.add_run([(1, 5), (7,)])
        builder.add_run([(1, 5), (7,)], None)
        assert builder.edge_lists() == [[((1, 5), 1)], [((7,), 2)], []]
        assert builder.roots == {}


def reference_bytes(nfa) -> bytes:
    """``serialize`` with every label encoded afresh (no table)."""
    table = serializer_module._label_bytes
    serializer_module._label_bytes = table.__wrapped__
    try:
        return serialize(nfa)
    finally:
        serializer_module._label_bytes = table


class TestLabelByteTable:
    def test_one_entry_per_distinct_label_and_the_same_bytes(self, golden_payloads):
        nfas, payloads = golden_payloads
        table = serializer_module._label_bytes
        table.cache_clear()
        assert [serialize(nfa) for nfa in nfas] == payloads
        assert [reference_bytes(nfa) for nfa in nfas] == payloads
        labels = {label for nfa in nfas for edges in nfa.transitions for label, _ in edges}
        info = table.cache_info()
        assert info.currsize == len(labels) == info.misses
        assert info.hits > info.misses and info.maxsize is not None

    def test_the_table_is_bounded(self, golden_payloads, monkeypatch):
        nfas, payloads = golden_payloads
        small = lru_cache(maxsize=4)(serializer_module._label_bytes.__wrapped__)
        monkeypatch.setattr(serializer_module, "_label_bytes", small)
        assert [serialize(nfa) for nfa in nfas] == payloads
        assert small.cache_info().currsize == 4 < small.cache_info().misses

    def test_unsorted_labels_are_refused_every_time(self):
        builder = TrieBuilder()
        builder.add_run([(5, 3)])
        for _ in range(2):  # an error is not memoised
            with pytest.raises(NfaError):
                serialize_trie(builder)

    def test_two_threads_filling_the_table_write_equal_bytes(self, golden_payloads):
        nfas, payloads = golden_payloads
        results: dict[int, list[bytes]] = {}
        start = threading.Barrier(2, timeout=30)

        def work(index: int) -> None:
            start.wait()
            results[index] = [serialize(nfa) for nfa in nfas]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            serializer_module._label_bytes.cache_clear()
            threads = [threading.Thread(target=work, args=(index,)) for index in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1] == payloads
