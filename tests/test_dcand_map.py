"""Byte identity of the one-pass D-CAND map against the construction it replaced.

``DCandJob.map`` enumerates runs carrying their output sets, takes each run's
pivots in closed form, restricts the sets by bisect and serializes every
pivot's trie straight from the builder.  The oracle below is the previous
algorithm, kept on the test side: accepting runs → output sets → ⊕-fold
pivots → per-(run, pivot) item filter → ``TrieBuilder.add_run`` → ``trie()``
→ ``minimize_acyclic`` → ``serialize``.  Both sides must produce the same
payload bytes for the same pivots.

One deliberate difference is pinned here as well: the map emits a record's
pivots in ascending order.  The previous code emitted them in the order a
CPython ``set`` of ints happened to iterate; no consumer depends on that
order (pivots are distinct within a record, and values are grouped by key
before anything is counted or encoded), so the oracle sorts by pivot.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dcand import DCandJob
from repro.core.pivot_search import pivots_of_output_sets, pivots_of_sorted_sets
from repro.datasets.amzn import amzn_like
from repro.datasets.constraints import constraint
from repro.dictionary import Hierarchy
from repro.fst import (
    EPSILON_OUTPUT,
    accepting_output_sets,
    accepting_runs,
    make_kernel,
    run_output_sets,
)
from repro.nfa import TrieBuilder, minimize_acyclic, serialize
from repro.patex import PatEx
from repro.sequences import as_mining_records, preprocess, record_parts
from repro.sequences.store import WeightedSequence
from tests.test_differential import build_consistent, patex_strategy, sequences_strategy
from tests.test_pivot_search import brute_force_pivots

KERNELS = ("compiled", "interpreted")


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
        nfa = builders[pivot].trie()
        if job.minimize_nfas:
            nfa = minimize_acyclic(nfa)
        payload = serialize(nfa)
        emitted.append((pivot, payload if weight == 1 else (payload, weight)))
    return emitted


def assert_map_matches_oracle(dictionary, database, expression, sigma):
    fst = PatEx(expression).compile(dictionary)
    for kernel_name in KERNELS:
        kernel = make_kernel(fst, dictionary, kernel_name)
        for minimize in (True, False):
            job = DCandJob(kernel, sigma=sigma, minimize_nfas=minimize)
            for index, sequence in enumerate(database):
                plain = tuple(sequence)
                for record in (plain, WeightedSequence(plain, index + 2)):
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

    def test_golden_amzn_a3_payload_digest(self, golden):
        """sha256 over every map payload of A3(8) on a fixed AMZN-like corpus."""
        dictionary, database = amzn_like(200, seed=13).preprocess()
        a3 = constraint("A3", 8)
        kernel = make_kernel(a3.patex().compile(dictionary), dictionary)
        job = DCandJob(kernel, sigma=a3.sigma)
        digest = hashlib.sha256()
        payloads = 0
        for record in as_mining_records(database):
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
        kernel = make_kernel(
            PatEx(expression).compile(dictionary), dictionary, kernel_name
        )
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
