"""Equivalence and unit tests for the flat pivot-grid engine.

The :class:`~repro.core.grid_engine.FlatPivotGrid` — the kernel's
reachability and pivot passes behind the grid interface — must answer like
the reference :class:`~tests.reference.grid.PositionStateGrid`: same alive
sets, same pivots, same rewrite bounds for every pivot, same early-stopping
oracle — on arbitrary pattern expressions, hierarchies, and input sequences.
These tests prove that with hypothesis, check the sorted-run ⊕ algebra against
the set-based reference, and pin the behaviour of the per-worker grid memo.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid_engine import (
    DEFAULT_GRID_MEMO_LIMIT,
    FlatPivotGrid,
    cached_grid,
    clear_grid_memo,
    grid_memo_info,
    set_grid_memo_limit,
)
from repro.core import DSeqMiner
from repro.core.dseq import DSeqJob
from repro.core.rewriting import rewrite_for_pivot
from repro.dictionary import EPSILON_FID, Dictionary, Hierarchy
from repro.errors import MiningError
from repro.fst import make_kernel
from repro.fst.compiled import merge_sorted_runs, union_sorted_runs
from repro.mapreduce import ClusterConfig
from repro.patex import PatEx
from repro.sequences import SequenceDatabase, WeightedSequence, as_mining_records, preprocess
from repro.sequential import SequentialDesqDfs
from tests.conftest import weighted
from tests.reference import (
    InterpretedKernel,
    PositionStateGrid,
    ReferenceGridJob,
    pivot_merge,
    pivots_of_output_sets,
)
from tests.test_dcand_map import random_hierarchy_corpus
from tests.test_differential import patex_strategy

#: Constraint shapes shared with the differential suite: captures, optional
#: groups, generalization, repetition, alternation, and bounded gaps.
EXPRESSIONS = [
    ".*(A)[(.^)|.]*(b).*",        # the running example π_ex
    ".*(a1)(b).*",                # plain bigram capture
    ".*(A^)[.{0,2}(A^)]{1,2}.*",  # hierarchy with bounded gaps (A1/T3 shape)
    ".*(.)[.*(.)]?.*",            # 1- or 2-item patterns with arbitrary gaps
    ".*(e)?(d)(c|b).*",           # optional capture and alternation
    "[.*(A^=)]+.*",               # forced generalization, repeated group
]

VOCABULARY = ["a1", "a2", "b", "c", "d", "e"]
ANCHOR_SEQUENCE = tuple(VOCABULARY)


def sequences_strategy():
    return st.lists(
        st.lists(st.sampled_from(VOCABULARY), min_size=0, max_size=7),
        min_size=1,
        max_size=6,
    )


def build_consistent(sequences):
    hierarchy = Hierarchy()
    hierarchy.add_edge("a1", "A")
    hierarchy.add_edge("a2", "A")
    raw = [tuple(sequence) for sequence in sequences] + [ANCHOR_SEQUENCE]
    return preprocess(raw, hierarchy)


def assert_grids_equivalent(flat, legacy) -> None:
    """Every answer the flat engine gives must be the reference grid's."""
    assert flat.has_accepting_run == legacy.has_accepting_run
    assert flat.alive == legacy.alive
    pivots = flat.pivot_items()
    assert pivots == legacy.pivot_items()
    # Per-pivot queries: rewrite bounds and the early-stopping oracle, probed
    # for every actual pivot plus items that are not pivots at all.
    probes = sorted(pivots) + [1, 7, 10**9]
    for pivot in probes:
        assert flat.relevant_range(pivot) == legacy.relevant_range(pivot), pivot
        assert flat.last_pivot_producing_position(pivot) == (
            legacy.last_pivot_producing_position(pivot)
        ), pivot
        assert rewrite_for_pivot(flat, pivot) == rewrite_for_pivot(legacy, pivot)


class TestFlatLegacyEquivalence:
    """``FlatPivotGrid ≡ PositionStateGrid`` over random inputs."""

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    @settings(max_examples=20, deadline=None)
    @given(sequences=sequences_strategy(), sigma=st.integers(min_value=1, max_value=4))
    def test_grids_agree_on_random_databases(self, expression, sequences, sigma):
        dictionary, database = build_consistent(sequences)
        kernel = make_kernel(
            PatEx(expression).compile(dictionary), dictionary
        )
        max_frequent_fid = dictionary.largest_frequent_fid(sigma)
        for sequence in database:
            flat = FlatPivotGrid(kernel, sequence, max_frequent_fid=max_frequent_fid)
            legacy = PositionStateGrid(
                kernel, sequence, max_frequent_fid=max_frequent_fid
            )
            assert_grids_equivalent(flat, legacy)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_grids_agree_on_random_hierarchies(self, data):
        """Random DAG hierarchies: generalization sees multi-parent items."""
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
                max_size=5,
            )
        )
        dictionary, database = preprocess(
            [tuple(sequence) for sequence in sequences] + [tuple(names)], hierarchy
        )
        anchor = data.draw(st.sampled_from(names))
        expression = f".*({anchor}^)[(.^)|.]*(.).*"
        kernel = make_kernel(
            PatEx(expression).compile(dictionary), dictionary
        )
        sigma = data.draw(st.integers(min_value=1, max_value=3))
        max_frequent_fid = dictionary.largest_frequent_fid(sigma)
        for sequence in database:
            flat = FlatPivotGrid(kernel, sequence, max_frequent_fid=max_frequent_fid)
            legacy = PositionStateGrid(
                kernel, sequence, max_frequent_fid=max_frequent_fid
            )
            assert_grids_equivalent(flat, legacy)

    def test_interpreted_kernel_also_served(self, ex_dictionary):
        """Both grids accept the compiled kernel and the oracle."""
        fst = PatEx(".*(A)[(.^)|.]*(b).*").compile(ex_dictionary)
        sequence = ex_dictionary.encode(("c", "a1", "b", "e"))
        results = {
            (grid, build): grid(build(fst, ex_dictionary), sequence).pivot_items()
            for grid in (FlatPivotGrid, PositionStateGrid)
            for build in (make_kernel, InterpretedKernel)
        }
        assert len(set(map(frozenset, results.values()))) == 1


def assert_maps_agree(dictionary, database, expression, sigma) -> DSeqJob:
    """``DSeqJob.map`` emits the same pairs in the same order as the map over
    the reference grid, for every record of the unique view (weights above 1
    included) and for every input sequence as a weight-1 record."""
    kernel = make_kernel(PatEx(expression).compile(dictionary), dictionary)
    jobs = {
        "flat": DSeqJob(kernel, sigma=sigma),
        "reference": ReferenceGridJob(kernel, sigma=sigma),
    }
    sequences = SequenceDatabase([(), *map(tuple, database)])
    records = [*as_mining_records(sequences), *map(weighted, sequences)]
    assert all(isinstance(record, WeightedSequence) for record in records)
    for record in records:
        assert list(jobs["flat"].map(record)) == list(jobs["reference"].map(record)), record
    return jobs["flat"]


class TestMapEnginesAgree:
    """D-SEQ's map — two kernel passes — against the map over the reference
    grid (:class:`~tests.reference.grid.ReferenceGridJob`), pair for pair and
    in emission order.

    The fids here are small, so both maps' pivot sets iterate in ascending
    order; the insertion-order-dependent order of a large corpus is compared
    against the previous implementation by the emission-equality script under
    ``benchmarks/evidence/``.
    """

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_hierarchies_expressions_and_sigmas(self, data):
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
        assert_maps_agree(dictionary, database, expression, data.draw(st.integers(1, 8)))

    @settings(max_examples=40, deadline=None)
    @given(
        expression=patex_strategy(),
        sequences=sequences_strategy(),
        sigma=st.integers(min_value=1, max_value=8),
    )
    def test_random_expressions(self, expression, sequences, sigma):
        dictionary, database = build_consistent(sequences)
        assert_maps_agree(dictionary, database, expression, sigma)

    def test_empty_rejected_and_nothing_frequent(self, ex_dictionary, ex_database):
        expression = ".*(A)[(.^)|.]*(b).*"
        kernel = make_kernel(PatEx(expression).compile(ex_dictionary), ex_dictionary)
        accepted = [
            bool(kernel.reachability_table(tuple(sequence))[0] >> kernel.initial_state & 1)
            for sequence in ex_database
        ]
        assert any(accepted) and not all(accepted)  # rejected records are mapped
        job = assert_maps_agree(ex_dictionary, ex_database, expression, 2)
        assert any(list(job.map(weighted(sequence))) for sequence in ex_database)
        job = assert_maps_agree(ex_dictionary, ex_database, expression, 10**6)
        assert job.max_frequent_fid == 0
        assert not any(list(job.map(weighted(sequence))) for sequence in ex_database)


class TestRejectedSequences:
    """A sequence without an accepting run costs its reachability table only."""

    def test_rejected_grid_holds_no_per_position_container(self, ex_dictionary):
        fst = PatEx(".*(A)[(.^)|.]*(b).*").compile(ex_dictionary)
        kernel = make_kernel(fst, ex_dictionary)
        sequence = ex_dictionary.encode(("c", "a1", "d", "e"))  # no b after the a1
        grid = FlatPivotGrid(kernel, sequence, max_frequent_fid=3)
        assert not grid.has_accepting_run
        # The table itself, the identity fields and nothing else.
        assert grid.alive == kernel.reachability_table(sequence)
        containers = {
            name: value
            for name, value in vars(grid).items()
            if isinstance(value, (list, dict, set, bytearray)) and name != "_alive"
        }
        assert containers == {}
        assert grid._pivots is None
        assert grid._relevance is None
        assert grid._last_producing is None
        assert grid.pivot_items() == set()
        n = len(sequence)
        for pivot in (1, 3, 10**9):
            assert grid.relevant_range(pivot) == (1, n)
            assert grid.last_pivot_producing_position(pivot) == 0
            assert rewrite_for_pivot(grid, pivot) == sequence
        assert_grids_equivalent(grid, PositionStateGrid(kernel, sequence, max_frequent_fid=3))


class TestWideAndLongInputs:
    """Reachability rows are Python ints: no 64-state or length ceiling.

    On an FST with more than 64 states (bits past a machine word) and on a
    1,500-item input: compiled ≡ interpreted reachability table, flat ≡
    reference grid, and D-SEQ ≡ sequential DESQ-DFS.
    """

    def assert_everything_agrees(self, dictionary, database, expression, sigma):
        fst = PatEx(expression).compile(dictionary)
        compiled = make_kernel(fst, dictionary)
        interpreted = InterpretedKernel(fst, dictionary)
        max_frequent_fid = dictionary.largest_frequent_fid(sigma)
        accepted = 0
        for sequence in database:
            sequence = tuple(sequence)
            table = compiled.reachability_table(sequence)
            assert table == interpreted.reachability_table(sequence)
            assert len(table) == len(sequence) + 1
            flat = FlatPivotGrid(compiled, sequence, max_frequent_fid=max_frequent_fid)
            legacy = PositionStateGrid(compiled, sequence, max_frequent_fid=max_frequent_fid)
            assert_grids_equivalent(flat, legacy)
            assert flat.pivot_items() == FlatPivotGrid(
                interpreted, sequence, max_frequent_fid=max_frequent_fid
            ).pivot_items()
            accepted += flat.has_accepting_run
        assert accepted, "vacuous: nothing was accepted"
        reference = SequentialDesqDfs(expression, sigma, dictionary).mine(database)
        mined = DSeqMiner(expression, sigma, dictionary, cluster=ClusterConfig()).mine(database)
        assert mined.patterns() == reference.patterns()
        assert reference.patterns(), "vacuous: nothing was mined"
        return compiled

    @pytest.mark.parametrize(
        "expression",
        [
            ".*(A^)[.{0,35}(b)]{1,2}.*",  # 74 states, two final states below bit 64
            ".*(a1).{70}(b).*",           # 73 states, the final state is bit 72
        ],
    )
    def test_fst_wider_than_a_machine_word(self, expression):
        rng = random.Random(16)
        filler = ["c", "d", "e", "a2"]
        raw = [
            ("a1",) + tuple(rng.choice(filler) for _ in range(70)) + ("b",),
            ("a1",) + tuple(rng.choice(filler) for _ in range(70)) + ("b", "c", "b"),
            ("d", "a1") + tuple(rng.choice(filler + ["b"]) for _ in range(80)) + ("b",),
            tuple(rng.choice(VOCABULARY) for _ in range(90)),
            ("a1",) + ("c",) * 69 + ("b",),  # one item short of the fixed gap
        ]
        dictionary, database = build_consistent(raw)
        kernel = self.assert_everything_agrees(dictionary, database, expression, 2)
        assert kernel.num_states >= 70
        widest = max(
            mask for sequence in database for mask in kernel.reachability_table(tuple(sequence))
        )
        assert widest >> 64, "vacuous: no alive state beyond bit 63"

    @pytest.mark.parametrize("expression", ["(a)+", ".*(a).*(b)"])
    def test_input_of_1500_items(self, expression):
        raw = [("a",) * 1_499 + ("b",), ("a",) * 1_500, ("a", "b")]
        dictionary, database = preprocess(raw, Hierarchy())
        self.assert_everything_agrees(dictionary, database, expression, 1)


# ------------------------------------------------------------ sorted-run ⊕
def sorted_run():
    return st.frozensets(st.integers(min_value=0, max_value=12), max_size=8).map(
        lambda items: tuple(sorted(items))
    )


class TestSortedRunAlgebra:
    """The sorted-run ⊕ agrees with the set-based Theorem-1 reference."""

    @settings(max_examples=200, deadline=None)
    @given(left=sorted_run(), right=sorted_run())
    def test_merge_matches_pivot_merge(self, left, right):
        merged = merge_sorted_runs(left, right)
        assert list(merged) == sorted(set(merged)), "result must be a sorted run"
        assert set(merged) == pivot_merge(set(left), set(right))

    @settings(max_examples=200, deadline=None)
    @given(left=sorted_run(), right=sorted_run())
    def test_union_is_set_union(self, left, right):
        assert union_sorted_runs(left, right) == tuple(sorted(set(left) | set(right)))

    @settings(max_examples=150, deadline=None)
    @given(output_sets=st.lists(sorted_run(), max_size=6))
    def test_in_place_fold_matches_reference_fold(self, output_sets):
        """Guards the allocation micro-fix in ``pivots_of_output_sets``."""
        accumulator = {EPSILON_FID}
        for outputs in output_sets:
            accumulator = pivot_merge(accumulator, set(outputs))
            if not accumulator:
                break
        accumulator.discard(EPSILON_FID)
        assert pivots_of_output_sets(output_sets) == accumulator

    def test_merge_annihilates_on_empty_operands(self):
        assert merge_sorted_runs((), (1, 2)) == ()
        assert merge_sorted_runs((1, 2), ()) == ()

    def test_fold_short_circuits_on_empty_output_set(self):
        assert pivots_of_output_sets([(1, 2), (), (3,)]) == set()


# ------------------------------------------------------------ per-worker memo
@pytest.fixture()
def fresh_memo():
    clear_grid_memo()
    try:
        yield
    finally:
        set_grid_memo_limit(DEFAULT_GRID_MEMO_LIMIT)
        clear_grid_memo()


class TestGridMemo:
    def _kernel(self, ex_dictionary):
        fst = PatEx(".*(A)[(.^)|.]*(b).*").compile(ex_dictionary)
        return make_kernel(fst, ex_dictionary)

    def test_repeated_sequences_hit_the_memo(self, ex_dictionary, fresh_memo):
        kernel = self._kernel(ex_dictionary)
        sequence = ex_dictionary.encode(("c", "a1", "b", "e"))
        first = cached_grid(kernel, sequence)
        second = cached_grid(kernel, sequence)
        assert first is second
        info = grid_memo_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

    def test_filters_are_cached_separately(self, ex_dictionary, fresh_memo):
        kernel = self._kernel(ex_dictionary)
        sequence = ex_dictionary.encode(("a1", "b"))
        flat = cached_grid(kernel, sequence, grid="flat")
        default = cached_grid(kernel, sequence)
        filtered = cached_grid(kernel, sequence, max_frequent_fid=3)
        assert isinstance(flat, FlatPivotGrid)
        assert default is flat
        assert filtered is not flat
        assert grid_memo_info()["size"] == 2

    def test_bounded_eviction(self, ex_dictionary, fresh_memo):
        kernel = self._kernel(ex_dictionary)
        set_grid_memo_limit(2)
        for items in (("b",), ("c",), ("d",)):
            cached_grid(kernel, ex_dictionary.encode(items))
        assert grid_memo_info()["size"] == 2
        set_grid_memo_limit(1)
        assert grid_memo_info()["size"] == 1

    def test_zero_limit_disables_caching(self, ex_dictionary, fresh_memo):
        kernel = self._kernel(ex_dictionary)
        set_grid_memo_limit(0)
        sequence = ex_dictionary.encode(("a1", "b"))
        first = cached_grid(kernel, sequence)
        second = cached_grid(kernel, sequence)
        assert first is not second
        assert grid_memo_info()["size"] == 0

    def test_negative_limit_is_rejected(self):
        with pytest.raises(MiningError):
            set_grid_memo_limit(-1)


class TestKnob:
    def test_cached_grid_serves_only_the_flat_engine(self, ex_dictionary, fresh_memo):
        """``grid`` is ``None`` or ``"flat"``; any other name is refused
        before anything is built."""
        fst = PatEx(".*(b).*").compile(ex_dictionary)
        sequence = ex_dictionary.encode(("b",))
        for grid in (None, "flat"):
            assert isinstance(cached_grid(fst, sequence, ex_dictionary, grid=grid), FlatPivotGrid)
        for grid in ("legacy", "LEGACY", " Flat ", "nope"):
            with pytest.raises(MiningError, match="unknown grid engine"):
                cached_grid(fst, sequence, ex_dictionary, grid=grid)
        assert grid_memo_info()["misses"] == 1

    def test_a_job_takes_no_grid_argument(self, ex_dictionary):
        kernel = make_kernel(PatEx(".*(b).*").compile(ex_dictionary), ex_dictionary)
        assert DSeqJob(kernel, sigma=1).grid == "flat"
        with pytest.raises(TypeError):
            DSeqJob(kernel, sigma=1, grid="flat")

    def test_empty_sequence_grids(self, ex_dictionary):
        """Degenerate input: both grids agree on the empty sequence."""
        fst = PatEx(".*(b).*").compile(ex_dictionary)
        kernel = make_kernel(fst, ex_dictionary)
        flat = FlatPivotGrid(kernel, ())
        legacy = PositionStateGrid(kernel, ())
        assert flat.has_accepting_run == legacy.has_accepting_run
        assert flat.pivot_items() == legacy.pivot_items() == set()
        assert flat.relevant_range(3) == legacy.relevant_range(3)
        assert flat.last_pivot_producing_position(3) == (
            legacy.last_pivot_producing_position(3)
        ) == 0


class TestDictionaryGuard:
    def test_huge_fids_fall_back_to_tuple_keys(self, fresh_memo):
        """Sequences with fids ≥ 2^63 must still be memoizable."""
        hierarchy = Hierarchy()
        hierarchy.add_item("x")
        dictionary = Dictionary.from_hierarchy(hierarchy, {"x": 1})
        # _memo_key encodes via array('q'); huge synthetic fids overflow it
        # and fall back to the tuple itself — probe through the public API.
        from repro.core.grid_engine import _memo_key

        fst = PatEx(".*(x).*").compile(dictionary)
        kernel = make_kernel(fst, dictionary)
        small = _memo_key(kernel, (1, 2), None, "flat")
        huge = _memo_key(kernel, (1, 2**63 + 5), None, "flat")
        assert isinstance(small[2], bytes)
        assert huge[2] == (1, 2**63 + 5)
