"""Equivalence of the step-index local miner with the search it replaced.

``DesqDfsMiner`` computes everything that depends on ``(kernel, sequence,
frequency filter)`` once per distinct sequence (:class:`MiningTables`, riding
on the memoized grid) and lets a partition only *filter* it.  The oracle below
is the previous algorithm, kept on the test side: per-partition
``_SequenceState`` tables, the per-node ε-closure walk ``_output_steps`` and
the recursive ``_expand``.  Both sides must produce the same ``patterns``
dict, insertion order included, and the index must answer every snapshot the
oracle's search reaches exactly as the walk did.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dseq import DSeqJob
from repro.core.grid_engine import (
    cached_grid,
    clear_grid_memo,
    grid_memo_info,
    make_grid,
)
from repro.core.local_mining import DesqDfsMiner, MiningTables, tables_of
from repro.datasets import constraint, nyt_like
from repro.fst import make_kernel
from repro.patex import PatEx
from repro.sequences import fold_weighted_values
from tests.test_dcand_map import random_hierarchy_corpus
from tests.test_differential import build_consistent, patex_strategy, sequences_strategy

KERNELS = ("compiled", "interpreted")
GRIDS = ("flat", "legacy")
BATCHINGS = ("off", "trie")


# ------------------------------------------------------------------ the oracle
class OracleState:
    """The replaced ``_SequenceState``: both tables rebuilt per partition."""

    def __init__(self, sequence, weight, kernel, pivot, max_frequent_fid, grid):
        self.sequence = sequence
        self.weight = weight
        self.alive = kernel.reachability_table(sequence)
        self.finishable = kernel.finishable_table(sequence)
        if pivot is not None:
            built = make_grid(kernel, sequence, max_frequent_fid=max_frequent_fid, grid=grid)
            self.last_pivot_position = built.last_pivot_producing_position(pivot)
        else:
            self.last_pivot_position = len(sequence)


class OracleMiner:
    """The replaced search: recursive ``_expand`` over ``_output_steps`` walks.

    ``reached`` collects every ``(sequence index, snapshot, pivot missing)``
    the search expands, for the per-snapshot comparison with the index.
    """

    def __init__(self, kernel, sigma, pivot=None, use_early_stopping=True, grid="flat"):
        self.kernel = kernel
        self.sigma = sigma
        self.pivot = pivot
        self.use_early_stopping = use_early_stopping
        self.grid = grid
        self.max_frequent_fid = kernel.dictionary.largest_frequent_fid(sigma)
        self.states: list[OracleState] = []
        self.reached: set[tuple[int, tuple[int, int], bool]] = set()

    def mine(self, sequences, weights=None):
        if weights is None:
            weights = [1] * len(sequences)
        kernel = self.kernel
        pivot = self.pivot if self.use_early_stopping else None
        root_snapshots = []
        for sequence, weight in zip(sequences, weights):
            state = OracleState(
                tuple(sequence), weight, kernel, pivot, self.max_frequent_fid, self.grid
            )
            if (state.alive[0] >> kernel.initial_state) & 1:
                self.states.append(state)
                root_snapshots.append({(0, kernel.initial_state)})
        patterns: dict[tuple[int, ...], int] = {}
        if self.states:
            self._expand((), list(enumerate(root_snapshots)), patterns)
        return patterns

    def _expand(self, prefix, projected, patterns):
        children: dict[int, dict[int, set[tuple[int, int]]]] = {}
        pivot_missing = self.pivot is not None and self.pivot not in prefix
        for sequence_index, snapshots in projected:
            state = self.states[sequence_index]
            if self.use_early_stopping and pivot_missing and state.last_pivot_position == 0:
                continue
            for snapshot in snapshots:
                self.reached.add((sequence_index, snapshot, pivot_missing))
            reachable = self.output_steps(state, snapshots, pivot_missing)
            for item, next_snapshots in reachable.items():
                bucket = children.setdefault(item, {})
                bucket.setdefault(sequence_index, set()).update(next_snapshots)
        for item in sorted(children):
            child_projected = children[item]
            if sum(self.states[index].weight for index in child_projected) < self.sigma:
                continue
            child_prefix = prefix + (item,)
            support = sum(
                self.states[index].weight
                for index, snapshots in child_projected.items()
                if any(
                    self.states[index].finishable[position][fst_state]
                    for position, fst_state in snapshots
                )
            )
            if support >= self.sigma and (self.pivot is None or self.pivot in child_prefix):
                patterns[child_prefix] = support
            self._expand(child_prefix, list(child_projected.items()), patterns)

    def output_steps(self, state, snapshots, pivot_missing):
        kernel = self.kernel
        sequence = state.sequence
        n = len(sequence)
        expansions: dict[int, set[tuple[int, int]]] = {}
        visited: set[tuple[int, int]] = set()
        stack = list(snapshots)
        while stack:
            position, fst_state = stack.pop()
            if (position, fst_state) in visited:
                continue
            visited.add((position, fst_state))
            if position >= n:
                continue
            if (
                self.use_early_stopping
                and pivot_missing
                and position >= state.last_pivot_position
            ):
                continue
            item = sequence[position]
            next_alive = state.alive[position + 1]
            for tid in kernel.matching(fst_state, item):
                target = kernel.target(tid)
                if not (next_alive >> target) & 1:
                    continue
                if not kernel.is_captured(tid):
                    stack.append((position + 1, target))
                    continue
                for output in kernel.outputs(tid, item):
                    if output > self.max_frequent_fid:
                        continue
                    if self.pivot is not None and output > self.pivot:
                        continue
                    expansions.setdefault(output, set()).add((position + 1, target))
        return expansions


# ------------------------------------------------------------------- helpers
def partitions_of(kernel, database, sigma, weights=None):
    """``{pivot: (sequences, weights)}`` as D-SEQ's map + combine deliver them."""
    job = DSeqJob(kernel, sigma=sigma)
    shuffled: dict[int, list] = {}
    for index, sequence in enumerate(database):
        sequence = tuple(sequence)
        weight = 1 if weights is None else weights[index]
        for pivot, value in job.map(sequence):
            shuffled.setdefault(pivot, []).append(value if weight == 1 else (value, weight))
    partitions = {}
    for pivot in sorted(shuffled):
        folded = fold_weighted_values(shuffled[pivot])
        partitions[pivot] = (list(folded), list(folded.values()))
    return partitions


def filtered_index(tables, oracle, state, snapshot, pivot_missing):
    """The index's answer for one snapshot under the partition's two filters."""
    num_states = tables.kernel.num_states
    position, fst_state = snapshot
    entries = tables.steps(position * num_states + fst_state)
    assert entries == tuple(sorted(entries)), "step pairs must ascend by item"
    cut = oracle.use_early_stopping and pivot_missing
    answer: dict[int, set[tuple[int, int]]] = {}
    for item, successor in entries:
        if oracle.pivot is not None and item > oracle.pivot:
            continue
        next_snapshot = divmod(successor, num_states)
        if cut and next_snapshot[0] > state.last_pivot_position:
            continue
        answer.setdefault(item, set()).add(next_snapshot)
    return answer


def assert_equivalent(dictionary, database, expression, sigma, weights):
    fst = PatEx(expression).compile(dictionary)
    database = [tuple(sequence) for sequence in database]
    for kernel_name in KERNELS:
        kernel = make_kernel(fst, dictionary, kernel_name)
        partitions = {None: (database, weights)}
        partitions.update(partitions_of(kernel, database, sigma, weights))
        for pivot, (sequences, partition_weights) in partitions.items():
            for early in (True, False):
                for grid in GRIDS:
                    oracle = OracleMiner(kernel, sigma, pivot, early, grid)
                    expected = oracle.mine(sequences, partition_weights)
                    for batching in BATCHINGS:
                        miner = DesqDfsMiner(
                            kernel, None, sigma, pivot=pivot, use_early_stopping=early,
                            grid=grid, map_batching=batching,
                        )
                        mined, asked = mine_recording(miner, sequences, partition_weights)
                        assert list(mined.items()) == list(expected.items()), (
                            kernel_name, pivot, early, grid, batching,
                        )
                        assert_same_snapshots_expanded(oracle, asked)
                    assert_index_answers_like_the_walk(oracle, grid)


def mine_recording(miner, sequences, weights):
    """``(patterns, {(sequence, snapshot)} the search asked the index for)``."""
    asked = set()
    original = MiningTables.steps

    def recording(self, snapshot):
        asked.add((self.sequence, snapshot))
        return original(self, snapshot)

    MiningTables.steps = recording
    try:
        return miner.mine(sequences, weights), asked
    finally:
        MiningTables.steps = original


def assert_same_snapshots_expanded(oracle, asked):
    """The miner applies the cut where the walk did: same projected databases.

    One licensed difference: a sequence that cannot produce the pivot at all
    was skipped before its walk; the miner asks for its root and drops every
    pair.
    """
    num_states = oracle.kernel.num_states
    expected = {
        (oracle.states[index].sequence, position * num_states + fst_state)
        for index, (position, fst_state), _pivot_missing in oracle.reached
    }
    hopeless = {
        (state.sequence, oracle.kernel.initial_state)
        for state in oracle.states
        if state.last_pivot_position == 0
    }
    assert expected <= asked <= expected | hopeless


def assert_index_answers_like_the_walk(oracle, grid):
    kernel = oracle.kernel
    tables = {}
    for sequence_index, snapshot, pivot_missing in oracle.reached:
        state = oracle.states[sequence_index]
        if sequence_index not in tables:
            built = make_grid(
                kernel, state.sequence, max_frequent_fid=oracle.max_frequent_fid, grid=grid
            )
            tables[sequence_index] = (
                tables_of(built),
                MiningTables(kernel, state.sequence, oracle.max_frequent_fid),
            )
        expected = oracle.output_steps(state, {snapshot}, pivot_missing)
        for candidate in tables[sequence_index]:
            assert filtered_index(candidate, oracle, state, snapshot, pivot_missing) == expected


# ---------------------------------------------------------------- properties
class TestEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(
        expression=patex_strategy(),
        sequences=sequences_strategy(),
        sigma=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    def test_random_expressions_and_databases(self, expression, sequences, sigma, data):
        dictionary, database = build_consistent(sequences)
        weights = data.draw(
            st.one_of(
                st.none(),
                st.lists(
                    st.integers(min_value=1, max_value=3),
                    min_size=len(database),
                    max_size=len(database),
                ),
            )
        )
        assert_equivalent(dictionary, database, expression, sigma, weights)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_hierarchies(self, data):
        """Generalizing captures over DAG hierarchies: several outputs per edge."""
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
        weights = data.draw(st.sampled_from([None, [2] * len(database)]))
        assert_equivalent(dictionary, database, expression, sigma, weights)

    def test_running_example(self, ex_dictionary, ex_database):
        assert_equivalent(ex_dictionary, ex_database, ".*(A)[(.^)|.]*(b).*", 2, None)


# ------------------------------------------------- once per distinct sequence
@pytest.fixture()
def golden_job():
    """N4 over the golden NYT-like corpus: many partitions share sequences."""
    dictionary, database = nyt_like(120, seed=13).preprocess()
    n4 = constraint("N4", 3)
    kernel = make_kernel(n4.patex().compile(dictionary), dictionary)
    clear_grid_memo()
    yield DSeqJob(kernel, sigma=n4.sigma), [tuple(sequence) for sequence in database]
    clear_grid_memo()


def shuffle(job, database):
    partitions = partitions_of(job.kernel, database, job.sigma)
    return {
        pivot: list(zip(sequences, weights))
        for pivot, (sequences, weights) in partitions.items()
    }


class TestTablesBuiltOncePerSequence:
    def test_one_worker_builds_each_table_at_most_once(self, golden_job, monkeypatch):
        job, database = golden_job
        calls = {"reachability_table": [], "finishable_table": []}
        for name, log in calls.items():
            original = getattr(type(job.kernel), name)

            def counted(self, sequence, _original=original, _log=log):
                _log.append(tuple(sequence))
                return _original(self, sequence)

            monkeypatch.setattr(type(job.kernel), name, counted)

        partitions = shuffle(job, database)
        assert not calls["finishable_table"], "the map side must not build finishable tables"
        for pivot, values in partitions.items():
            list(job.reduce(pivot, values))

        landed = [sequence for values in partitions.values() for sequence, _weight in values]
        distinct = set(landed)
        assert grid_memo_info()["size"] < grid_memo_info()["limit"]  # nothing was evicted
        assert len(partitions) > 10 and len(landed) > 2 * len(distinct)  # not vacuous
        for name, log in calls.items():
            assert len(log) == len(set(log)), f"{name} rebuilt for a sequence"
        assert set(calls["finishable_table"]) <= distinct
        assert set(calls["reachability_table"]) == distinct | set(database)

    def test_tables_live_and_die_with_the_memo_entry(self, golden_job):
        job, database = golden_job
        root = job.kernel.initial_state
        sequence = next(
            s for s in database if (job.kernel.reachability_table(s)[0] >> root) & 1
        )
        arguments = dict(max_frequent_fid=job.max_frequent_fid, grid=job.grid)
        grid = cached_grid(job.kernel, sequence, **arguments)
        assert grid.reduce_tables is None  # lazily filled, never by the constructor
        tables = tables_of(grid)
        assert tables.alive is grid.alive
        assert tables_of(cached_grid(job.kernel, sequence, **arguments)) is tables
        clear_grid_memo()
        assert cached_grid(job.kernel, sequence, **arguments).reduce_tables is None


class TestSharedMemoAcrossThreads:
    def test_threads_mining_the_same_partitions_agree(self, golden_job):
        job, database = golden_job
        partitions = shuffle(job, database)
        expected = {pivot: list(job.reduce(pivot, values)) for pivot, values in partitions.items()}
        assert any(expected.values())
        clear_grid_memo()  # both threads start cold and race to fill every slot

        results: dict[str, dict] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(3, timeout=30)

        def worker(name, order):
            try:
                barrier.wait()
                results[name] = {
                    pivot: list(job.reduce(pivot, partitions[pivot])) for pivot in order
                }
            except Exception as error:  # surfaced by the assertions below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(f"t{index}", sorted(partitions)))
            for index in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for name in ("t0", "t1", "t2"):
            assert results[name] == expected
