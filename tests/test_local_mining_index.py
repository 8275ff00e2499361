"""Equivalence of the step-index local miner with the search it replaced.

``DesqDfsMiner`` computes everything that depends on ``(kernel, sequence,
frequency filter)`` once per distinct sequence (:class:`MiningTables`, kept in
the per-worker memo) and lets a partition only *filter* it.  The oracle below
is the previous algorithm, kept on the test side: per-partition
``_SequenceState`` tables, the list-of-lists finishable table, a position–state
grid (the flat one or ``tests/reference``'s) as the early-stopping oracle, the per-node ε-closure walk
``_output_steps`` and the recursive ``_expand``.  Both sides must produce the
same ``patterns`` dict, insertion order included, and the index must answer
every snapshot the oracle's search reaches exactly as the walk did.

The miner itself builds no grid: its three per-sequence tables are state-set
passes over the kernel's per-item edge list, pinned here value for value
against both grids and the kernel's per-transition calls, and by
counting what a reducer constructs.
"""

from __future__ import annotations

import pickle
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dseq import DSeqJob
from repro.core.grid_engine import FlatPivotGrid, clear_grid_memo, grid_memo_info
from repro.core.local_mining import DesqDfsMiner, MiningTables
from repro.datasets import constraint, nyt_like
from repro.dictionary import Dictionary
from repro.fst import CompiledFst, make_kernel
from repro.fst import compiled as compiled_module
from repro.fst.compiled import _MEMO_FIELDS
from repro.patex import PatEx
from repro.sequences import fold_weighted_values
from tests.conftest import weighted
from tests.test_compiled import finishable_lists, mask_rows
from tests.test_dcand_map import random_hierarchy_corpus
from tests.test_differential import build_consistent, patex_strategy, sequences_strategy
from tests.reference import InterpretedKernel, PositionStateGrid

#: The product kernel and the oracle it is checked against, by name.
KERNELS = {"compiled": make_kernel, "interpreted": InterpretedKernel}
#: The product's grid and the reference it is checked against, by name.
GRIDS = {"flat": FlatPivotGrid, "reference": PositionStateGrid}


# ------------------------------------------------------------------ the oracle
class OracleState:
    """The replaced ``_SequenceState``: both tables rebuilt per partition."""

    def __init__(self, sequence, weight, kernel, pivot, max_frequent_fid, grid):
        self.sequence = sequence
        self.weight = weight
        self.alive = kernel.reachability_table(sequence)
        self.finishable = finishable_lists(kernel, sequence)
        if pivot is not None:
            built = GRIDS[grid](kernel, sequence, max_frequent_fid=max_frequent_fid)
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
        for pivot, value in job.map(weighted(sequence)):
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
        kernel = KERNELS[kernel_name](fst, dictionary)
        partitions = {None: (database, weights)}
        partitions.update(partitions_of(kernel, database, sigma, weights))
        for pivot, (sequences, partition_weights) in partitions.items():
            for early in (True, False):
                miner = DesqDfsMiner(kernel, None, sigma, pivot=pivot, use_early_stopping=early)
                mined, asked = mine_recording(miner, sequences, partition_weights)
                for grid in GRIDS:
                    oracle = OracleMiner(kernel, sigma, pivot, early, grid)
                    expected = oracle.mine(sequences, partition_weights)
                    assert list(mined.items()) == list(expected.items()), (
                        kernel_name, pivot, early, grid,
                    )
                    assert_same_snapshots_expanded(oracle, asked)
                    assert_index_answers_like_the_walk(oracle)


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


def assert_index_answers_like_the_walk(oracle):
    tables = {}
    for sequence_index, snapshot, pivot_missing in oracle.reached:
        state = oracle.states[sequence_index]
        if sequence_index not in tables:
            tables[sequence_index] = MiningTables(
                oracle.kernel, state.sequence, oracle.max_frequent_fid
            )
        expected = oracle.output_steps(state, {snapshot}, pivot_missing)
        answer = filtered_index(tables[sequence_index], oracle, state, snapshot, pivot_missing)
        assert answer == expected


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


# ------------------------------------------- the three passes, value for value
def fid_limits(dictionary):
    """``max_frequent_fid`` values: no filter, nothing frequent, a mid fid, all."""
    fids = sorted(dictionary.fids())
    return (None, 0, fids[len(fids) // 2], fids[-1])


def assert_passes_equal_their_references(dictionary, expression, sequences):
    """Each per-sequence table against what it replaced, for both kernels.

    Returns how many of ``sequences`` were accepted, so callers can show they
    covered accepted and rejected ones.
    """
    fst = PatEx(expression).compile(dictionary)
    fids = sorted(dictionary.fids())
    pivots = fids + [fids[-1] + 1]  # every item, and one the dictionary lacks
    accepted = 0
    for kernel_name in KERNELS:
        kernel = KERNELS[kernel_name](fst, dictionary)
        assert_edge_rows_equal_the_kernel_calls(kernel, fids)
        for sequence in sequences:
            sequence = tuple(sequence)
            assert mask_rows(kernel.finishable_table(sequence), kernel.num_states) == (
                finishable_lists(kernel, sequence)
            )
            for limit in fid_limits(dictionary):
                tables = MiningTables(kernel, sequence, limit)
                for grid in GRIDS:
                    built = GRIDS[grid](kernel, sequence, max_frequent_fid=limit)
                    for pivot in pivots:
                        assert tables.last_producing_position(pivot) == (
                            built.last_pivot_producing_position(pivot)
                        ), (kernel_name, sequence, limit, grid, pivot)
            accepted += (tables.alive[0] >> kernel.initial_state) & 1
    return accepted // len(KERNELS)


def assert_edge_rows_equal_the_kernel_calls(kernel, items):
    for item in items:
        rows = kernel.edge_rows(item)
        assert len(rows) == kernel.num_states
        for state, row in enumerate(rows):
            assert list(row) == [
                (kernel.target(tid), kernel.outputs(tid, item) if kernel.is_captured(tid) else None)
                for tid in kernel.matching(state, item)
            ]


class TestPassesAgainstTheirReferences:
    @settings(max_examples=40, deadline=None)
    @given(expression=patex_strategy(), sequences=sequences_strategy())
    def test_last_producing_edge_rows_and_finishable_on_random_expressions(
        self, expression, sequences
    ):
        dictionary, database = build_consistent(sequences)
        assert_passes_equal_their_references(dictionary, expression, [()] + list(database))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_last_producing_edge_rows_and_finishable_on_random_hierarchies(self, data):
        """Generalizing captures over DAG hierarchies: several outputs per
        edge, so a frequency filter cuts output sets in the middle."""
        names, (dictionary, database) = random_hierarchy_corpus(data)
        anchor = data.draw(st.sampled_from(names))
        expression = data.draw(
            st.sampled_from(
                [
                    f".*({anchor}^)[(.^)|.]*(.).*",
                    ".*(.^)[.{0,1}(.^)]{1,2}.*",
                    f".*(.^)[.*({anchor}^=)]?.*",
                    f"({anchor}^)(.^)",
                ]
            )
        )
        assert_passes_equal_their_references(dictionary, expression, [()] + list(database))

    def test_last_producing_on_the_running_example(self, ex_dictionary, ex_database):
        sequences = [(), *ex_database]
        accepted = assert_passes_equal_their_references(
            ex_dictionary, ".*(A)[(.^)|.]*(b).*", sequences
        )
        assert 0 < accepted < len(sequences)  # accepted, rejected and empty were all met

    @pytest.mark.parametrize(
        ("expression", "raw"),
        [
            # 74 states: masks and the finishable flags go past a machine word.
            (
                ".*(A^)[.{0,35}(b)]{1,2}.*",
                [("a1",) + ("c", "d", "e", "a2") * 9 + ("b", "c", "b"), ("c",) * 40, ("a1", "b")],
            ),
            ("(a)+", [("a",) * 1_500, ("a",) * 1_499 + ("b",)]),
        ],
    )
    def test_last_producing_edge_rows_and_finishable_on_wide_and_long_inputs(
        self, expression, raw
    ):
        dictionary, database = build_consistent(raw)
        kernel = make_kernel(PatEx(expression).compile(dictionary), dictionary)
        assert kernel.num_states > 64 or max(map(len, database)) >= 1_500
        accepted = assert_passes_equal_their_references(dictionary, expression, database)
        assert 0 < accepted < len(database)
        mined = DesqDfsMiner(kernel, None, 1, pivot=dictionary.fid_of("b")).mine(database)
        oracle = OracleMiner(kernel, 1, dictionary.fid_of("b")).mine(database)
        assert list(mined.items()) == list(oracle.items())

    def test_edge_rows_share_one_uncaptured_edge_per_transition(self, ex_dictionary):
        kernel = CompiledFst(PatEx(".*(A)[(.^)|.]*(b).*").compile(ex_dictionary), ex_dictionary)
        identities = {
            id(edge)
            for item in ex_dictionary.fids()
            for row in kernel.edge_rows(item)
            for edge in row
            if edge[1] is None
        }
        uncaptured = sum(not transition.label.captured for transition in kernel.transitions)
        assert 0 < len(identities) <= uncaptured
        assert identities == set(map(id, kernel._uncaptured_edges.values()))


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


def count_calls(monkeypatch, owner, name, log):
    """Append the first argument of every ``owner.name`` call to ``log``."""
    original = getattr(owner, name)

    def counted(self, subject, *args, **kwargs):
        log.append(subject)
        return original(self, subject, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestTablesBuiltOncePerSequence:
    TABLES = ("reachability_table", "finishable_table", "last_producing_table")

    def test_zero_grids_and_each_table_at_most_once_per_sequence(self, golden_job, monkeypatch):
        job, database = golden_job
        partitions = shuffle(job, database)
        landed = [sequence for values in partitions.values() for sequence, _weight in values]
        distinct = set(landed)
        assert len(partitions) > 10 and len(landed) > 2 * len(distinct)  # not vacuous

        grids: list = []
        count_calls(monkeypatch, FlatPivotGrid, "__init__", grids)
        count_calls(monkeypatch, PositionStateGrid, "__init__", grids)
        calls = {name: [] for name in self.TABLES}
        for name, log in calls.items():
            count_calls(monkeypatch, type(job.kernel), name, log)
        misses = grid_memo_info()["misses"]
        for pivot, values in partitions.items():
            list(job.reduce(pivot, values))

        assert not grids, "a reducer must not construct a grid"
        assert grid_memo_info()["misses"] - misses == len(distinct)
        assert grid_memo_info()["size"] < grid_memo_info()["limit"]  # nothing was evicted
        for name, log in calls.items():
            assert len(log) == len(set(log)), f"{name} rebuilt for a sequence"
            assert set(log) <= distinct
        assert set(calls["reachability_table"]) == distinct
        assert set(calls["last_producing_table"]) == distinct

    def test_the_map_side_builds_no_grid_object_and_no_reduce_table(
        self, golden_job, monkeypatch
    ):
        job, database = golden_job
        grids: list = []
        count_calls(monkeypatch, FlatPivotGrid, "__init__", grids)
        count_calls(monkeypatch, PositionStateGrid, "__init__", grids)
        calls = {name: [] for name in (*self.TABLES, "edge_rows")}
        for name, log in calls.items():
            count_calls(monkeypatch, type(job.kernel), name, log)
        memo = grid_memo_info()
        shuffle(job, database)
        assert not grids, "the map side must build no grid object"
        assert grid_memo_info() == memo, "the map side must not touch the memo"
        assert Counter(calls.pop("reachability_table")) == Counter(database)  # once a record
        assert not calls.pop("finishable_table") and not calls.pop("last_producing_table")
        initial = job.kernel.initial_state
        accepted = [
            sequence
            for sequence in database
            if job.kernel.reachability_table(sequence)[0] >> initial & 1
        ]
        assert 0 < len(accepted) < len(database)
        # Rows only for the items of accepted records: a rejected one costs
        # its reachability table alone.
        assert set(calls["edge_rows"]) == {item for sequence in accepted for item in sequence}

    def test_tables_live_and_die_with_the_memo_entry(self, golden_job, monkeypatch):
        job, database = golden_job
        built: list = []
        count_calls(monkeypatch, MiningTables, "__init__", built)
        # The first partition the reduce mines: one below sigma builds nothing.
        pivot, values = next(
            (pivot, values)
            for pivot, values in shuffle(job, database).items()
            if sum(weight for _sequence, weight in values) >= job.sigma
        )
        list(job.reduce(pivot, values))
        assert len(built) == len(values)
        list(job.reduce(pivot, values))
        assert len(built) == len(values)  # every sequence was a memo hit
        clear_grid_memo()
        list(job.reduce(pivot, values))
        assert len(built) == 2 * len(values)

    def test_reduce_never_scans_the_f_list(self, golden_job, monkeypatch):
        job, database = golden_job
        partitions = list(shuffle(job, database).items())[:20]
        assert len(partitions) == 20
        asked: list = []
        count_calls(monkeypatch, Dictionary, "frequency", asked)
        for pivot, values in partitions:
            list(job.reduce(pivot, values))
        assert not asked, "the job already holds max_frequent_fid"


class TestEdgeRowMemo:
    def test_six_sigmas_keep_one_entry_per_distinct_item(self):
        """Rows are keyed by the item alone and filtered at use: a σ-descent
        over one corpus must not keep one copy of every row per σ."""
        dictionary, database = nyt_like(120, seed=13).preprocess()
        kernel = CompiledFst(constraint("N4", 3).patex().compile(dictionary), dictionary)
        database = [tuple(sequence) for sequence in database]
        items = {item for sequence in database for item in sequence}
        mined = []
        for sigma in (8, 6, 5, 4, 3, 2):
            job = DSeqJob(kernel, sigma=sigma)
            for pivot, values in shuffle(job, database).items():
                mined.extend(job.reduce(pivot, values))
        assert mined and kernel._edge_memo
        assert set(kernel._edge_memo) <= items
        clear_grid_memo()

    def test_edge_rows_are_warm_state_never_pickled(self, ex_dictionary):
        fst = PatEx(".*(A)[(.^)|.]*(b).*").compile(ex_dictionary)
        cold = pickle.dumps(CompiledFst(fst, ex_dictionary))
        kernel = CompiledFst(fst, ex_dictionary)
        for item in ex_dictionary.fids():
            kernel.edge_rows(item)
            kernel.finishable_table((item, item))
        assert kernel._edge_memo and kernel._uncaptured_edges and kernel._finishable_memo
        assert {"_edge_memo", "_uncaptured_edges", "_finishable_memo"} <= set(_MEMO_FIELDS)
        assert "_uncaptured_memo" not in _MEMO_FIELDS
        assert len(pickle.dumps(kernel)) == len(cold)

    def test_mapping_leaves_the_job_pickle_alone_and_rows_bounded(
        self, golden_job, monkeypatch
    ):
        job, database = golden_job
        cold = len(pickle.dumps(job))
        emitted = [list(job.map(weighted(sequence))) for sequence in database]
        assert any(emitted) and job.kernel._edge_memo
        assert len(pickle.dumps(job)) == cold
        monkeypatch.setattr(compiled_module, "_BACKWARD_MEMO_LIMIT", 3)
        kernel = CompiledFst(job.fst, job.dictionary)  # a cold kernel, not the interned one
        bounded = DSeqJob(kernel, sigma=job.sigma)
        for sequence, expected in zip(database, emitted):
            assert list(bounded.map(weighted(sequence))) == expected
            assert len(kernel._edge_memo) <= 3

    def test_edge_rows_are_cleared_past_the_bound(self, ex_dictionary, monkeypatch):
        monkeypatch.setattr(compiled_module, "_BACKWARD_MEMO_LIMIT", 3)
        fst = PatEx(".*(A)[(.^)|.]*(b).*").compile(ex_dictionary)
        kernel = CompiledFst(fst, ex_dictionary)
        interpreted = InterpretedKernel(fst, ex_dictionary)
        fids = sorted(ex_dictionary.fids())
        assert len(fids) > 3
        for item in fids * 2:
            assert kernel.edge_rows(item) == interpreted.edge_rows(item)
            assert len(kernel._edge_memo) <= 3


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
