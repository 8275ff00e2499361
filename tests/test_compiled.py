"""The compiled mining kernel: interval matchers, flat tables, and interning.

The compiled kernel must be an *exact* drop-in for the interpreted per-label
walk of :class:`tests.reference.InterpretedKernel`: every matching decision,
output set, DP table, accepting run, and pivot set has to be identical.
These tests pin that equivalence on the paper's running example, on random
DAG hierarchies (hypothesis), and on adversarial dictionary shapes (multi-parent items, fids ≥ 2^63, ε handling), plus the
pickling/interning contract that lets workers reuse a warm kernel.
"""

from __future__ import annotations

import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid_engine import FlatPivotGrid
from repro.dictionary import Dictionary, EPSILON_FID, Hierarchy, IntervalSet, Item
from repro.fst import (
    CompiledFst,
    Label,
    accepting_runs,
    ensure_kernel,
    generate_candidates,
    make_kernel,
)
from repro.fst import compiled as compiled_module
from repro.fst.compiled import _KERNEL_CACHE
from repro.fst.fst import Fst
from repro.errors import FstError, UnknownItemError
from repro.patex import PatEx

from tests.conftest import RUNNING_EXAMPLE_PATEX, make_running_example_dictionary
from tests.reference import (
    InterpretedKernel,
    PositionStateGrid,
    filtered_outputs,
    run_output_sets,
)


# ------------------------------------------------------------- interval sets
class TestIntervalSet:
    def test_coalesces_adjacent_positions_into_runs(self):
        interval = IntervalSet.from_positions([5, 1, 2, 3, 9, 10])
        assert interval.runs == ((1, 3), (5, 5), (9, 10))
        assert len(interval) == 6

    def test_membership_probe(self):
        interval = IntervalSet.from_positions([1, 2, 3, 7])
        for position in (1, 2, 3, 7):
            assert position in interval
        for position in (0, 4, 6, 8, 100, -3):
            assert position not in interval

    def test_empty_set_contains_nothing(self):
        interval = IntervalSet.from_positions([])
        assert 0 not in interval
        assert len(interval) == 0
        assert interval.runs == ()

    def test_duplicates_are_deduplicated(self):
        interval = IntervalSet.from_positions([2, 2, 2, 3])
        assert interval.runs == ((2, 3),)
        assert len(interval) == 2

    def test_equality_and_pickle_round_trip(self):
        interval = IntervalSet.from_positions([1, 2, 8])
        clone = pickle.loads(pickle.dumps(interval))
        assert clone == interval
        assert hash(clone) == hash(interval)
        assert 8 in clone and 5 not in clone


# --------------------------------------------------------- descendant index
class TestDescendantIndex:
    def test_forest_descendants_are_single_runs(self, ex_dictionary):
        index = ex_dictionary.descendant_index()
        for fid in ex_dictionary.fids():
            assert len(index.descendant_intervals(fid).runs) == 1

    def test_probe_agrees_with_closure(self, ex_dictionary):
        index = ex_dictionary.descendant_index()
        for ancestor in ex_dictionary.fids():
            descendants = ex_dictionary.descendants(ancestor)
            for item in ex_dictionary.fids():
                assert index.is_descendant(item, ancestor) == (item in descendants)

    def test_unknown_items_are_never_descendants(self, ex_dictionary):
        index = ex_dictionary.descendant_index()
        assert not index.is_descendant(10_000, ex_dictionary.fid_of("A"))

    def test_multi_parent_dag_item(self):
        # E is reachable through both B and C: desc(B) and desc(C) overlap,
        # and whichever parent is off the spanning tree gets a fragmented
        # (multi-run or single-position) interval set.
        hierarchy = Hierarchy()
        hierarchy.add_edge("B", "A")
        hierarchy.add_edge("C", "A")
        hierarchy.add_edge("E", "B")
        hierarchy.add_edge("E", "C")
        hierarchy.add_edge("F", "C")
        dictionary = Dictionary.from_hierarchy(
            hierarchy, {"A": 9, "B": 5, "C": 4, "E": 2, "F": 1}
        )
        index = dictionary.descendant_index()
        for ancestor in dictionary.fids():
            closure = dictionary.descendants(ancestor)
            for item in dictionary.fids():
                assert index.is_descendant(item, ancestor) == (item in closure), (
                    dictionary.gid_of(item),
                    dictionary.gid_of(ancestor),
                )

    def test_huge_fids_beyond_63_bits(self):
        # Positions are dense regardless of fid magnitude, so fids past the
        # signed-64-bit range must work end to end.
        base = 2**63
        items = [
            Item(gid="root", fid=base + 7, children_fids=frozenset({base + 11, 3}),
                 document_frequency=5),
            Item(gid="child", fid=base + 11, parent_fids=frozenset({base + 7}),
                 document_frequency=2),
            Item(gid="small", fid=3, parent_fids=frozenset({base + 7}),
                 document_frequency=1),
        ]
        dictionary = Dictionary(items)
        index = dictionary.descendant_index()
        assert index.is_descendant(base + 11, base + 7)
        assert index.is_descendant(3, base + 7)
        assert not index.is_descendant(base + 7, base + 11)
        label = Label(fid=base + 7, captured=True)
        fst = Fst(2, 0, [1], [(0, label, 1)])
        compiled = make_kernel(fst, dictionary)
        interpreted = InterpretedKernel(fst, dictionary)
        for item in dictionary.fids():
            assert compiled.matching(0, item) == interpreted.matching(0, item)
            if compiled.matching(0, item):
                assert compiled.outputs(0, item) == interpreted.outputs(0, item)


# ------------------------------------------------- random-hierarchy property
def hierarchy_dictionaries():
    """Random DAG dictionaries: items may have several parents."""

    @st.composite
    def build(draw):
        count = draw(st.integers(min_value=1, max_value=8))
        hierarchy = Hierarchy()
        names = [f"i{i}" for i in range(count)]
        for index, name in enumerate(names):
            hierarchy.add_item(name)
            if index:
                parents = draw(
                    st.sets(st.sampled_from(names[:index]), min_size=0, max_size=2)
                )
                for parent in parents:
                    hierarchy.add_edge(name, parent)
        frequencies = {
            name: draw(st.integers(min_value=0, max_value=9)) for name in names
        }
        return Dictionary.from_hierarchy(hierarchy, frequencies)

    return build()


def all_labels(dictionary: Dictionary) -> list[Label]:
    """Every label shape over the dictionary's items, plus the wildcards."""
    labels = [
        Label(fid=None, exact=exact, generalize=generalize, captured=captured)
        for exact in (False, True)
        for generalize in (False, True)
        for captured in (False, True)
    ]
    for fid in dictionary.fids():
        for exact in (False, True):
            for generalize in (False, True):
                for captured in (False, True):
                    labels.append(
                        Label(fid=fid, exact=exact, generalize=generalize,
                              captured=captured)
                    )
    return labels


class TestCompiledLabelEquivalence:
    """CompiledFst matching/outputs ≡ Label.matches/outputs, for any DAG."""

    @settings(max_examples=60, deadline=None)
    @given(dictionary=hierarchy_dictionaries())
    def test_matches_and_outputs_agree_over_random_hierarchies(self, dictionary):
        labels = all_labels(dictionary)
        fst = Fst(
            2, 0, [1], [(0, label, 1) for label in labels]
        )
        compiled = CompiledFst(fst, dictionary)
        for item in dictionary.fids():
            expected = tuple(
                tid
                for tid, label in enumerate(labels)
                if label.matches(item, dictionary)
            )
            assert compiled.matching(0, item) == expected
            for tid in expected:
                assert compiled.outputs(tid, item) == labels[tid].outputs(
                    item, dictionary
                )

    def test_epsilon_output_of_uncaptured_labels_survives_filtering(
        self, ex_dictionary
    ):
        fst = Fst(2, 0, [1], [(0, Label(fid=None), 1)])
        kernel = CompiledFst(fst, ex_dictionary)
        item = ex_dictionary.fid_of("e")
        assert kernel.outputs(0, item) == (EPSILON_FID,)
        # ε sets pass the frequency filter untouched (mff smaller than every
        # real fid would otherwise empty them and kill the run).
        assert filtered_outputs(kernel, 0, item, 0) == (EPSILON_FID,)


# ----------------------------------------------------- kernel equivalence
def finishable_lists(kernel, sequence):
    """The replaced ``finishable_table``, kept as the reference of the mask
    pass: ``table[i][q]`` is True iff acceptance is reachable from position
    ``i``, state ``q`` through uncaptured transitions only."""
    n = len(sequence)
    table = [[False] * kernel.num_states for _ in range(n + 1)]
    for state in kernel.final_states:
        table[n][state] = True
    for i in range(n - 1, -1, -1):
        for state in range(kernel.num_states):
            for tid in kernel.matching(state, sequence[i]):
                if not kernel.is_captured(tid) and table[i + 1][kernel.target(tid)]:
                    table[i][state] = True
                    break
    return table


def mask_rows(table, num_states):
    """A bitmask table read as one list of flags per position."""
    return [[bool((mask >> state) & 1) for state in range(num_states)] for mask in table]


def expression_dictionaries():
    """Random DAG dictionaries over the items :data:`EXPRESSIONS` name (and a
    few more): any parents, any frequencies, so any fid order."""

    @st.composite
    def build(draw):
        names = draw(st.permutations(["A", "B", "a1", "a2", "b", "c", "d", "e"]))
        hierarchy = Hierarchy()
        for index, name in enumerate(names):
            hierarchy.add_item(name)
            if index:
                for parent in draw(st.sets(st.sampled_from(names[:index]), max_size=2)):
                    hierarchy.add_edge(name, parent)
        frequencies = {name: draw(st.integers(min_value=0, max_value=9)) for name in names}
        return Dictionary.from_hierarchy(hierarchy, frequencies)

    return build()


EXPRESSIONS = [
    RUNNING_EXAMPLE_PATEX,
    ".*(a1)(b).*",
    ".*(A^)[.{0,2}(A^)]{1,2}.*",
    ".*(.)[.*(.)]?.*",
    "[.*(A^=)]+.*",
    ".*(A^).{0,2}b.*",  # an uncaptured tail: finishable masks vary by state set
]


def sequences_strategy(max_fid: int = 7):
    return st.lists(
        st.lists(st.integers(min_value=1, max_value=max_fid), min_size=0, max_size=6),
        min_size=1,
        max_size=6,
    )


class TestKernelEquivalence:
    """Compiled and interpreted kernels agree on every simulation product."""

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    @settings(max_examples=25, deadline=None)
    @given(sequences=sequences_strategy(), sigma=st.integers(min_value=1, max_value=4))
    def test_tables_runs_candidates_and_pivots_agree(
        self, expression, sequences, sigma, ex_dictionary
    ):
        fst = PatEx(expression).compile(ex_dictionary)
        compiled = make_kernel(fst, ex_dictionary)
        interpreted = InterpretedKernel(fst, ex_dictionary)
        mff = ex_dictionary.largest_frequent_fid(sigma)
        for sequence in map(tuple, sequences):
            assert compiled.reachability_table(sequence) == (
                interpreted.reachability_table(sequence)
            )
            finishable = compiled.finishable_table(sequence)
            assert finishable == interpreted.finishable_table(sequence)
            assert mask_rows(finishable, compiled.num_states) == (
                finishable_lists(interpreted, sequence)
            )
            compiled_runs = list(accepting_runs(compiled, sequence))
            interpreted_runs = list(accepting_runs(interpreted, sequence))
            assert compiled_runs == interpreted_runs
            for run in compiled_runs:
                assert run_output_sets(run, sequence, compiled, mff) == (
                    run_output_sets(run, sequence, ex_dictionary, mff)
                )
            assert generate_candidates(compiled, sequence, sigma=sigma) == (
                generate_candidates(interpreted, sequence, sigma=sigma)
            )
            # K(T) through the grid.
            assert FlatPivotGrid(compiled, sequence, max_frequent_fid=mff).pivot_items() == (
                FlatPivotGrid(interpreted, sequence, max_frequent_fid=mff).pivot_items()
            )
            compiled_grid = PositionStateGrid(compiled, sequence, max_frequent_fid=mff)
            interpreted_grid = PositionStateGrid(
                interpreted, sequence, max_frequent_fid=mff
            )
            n = len(sequence)
            for position in range(n + 1):
                for state in range(compiled.num_states):
                    assert compiled_grid.pivot_set(position, state) == (
                        interpreted_grid.pivot_set(position, state)
                    )


    @pytest.mark.parametrize("expression", EXPRESSIONS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_oracle_answers_every_probe_alike_over_random_hierarchies(
        self, expression, data
    ):
        """The interpreted oracle ≡ CompiledFst on every kernel query, for
        every fid of a random DAG over the expressions' items.  A fid the
        dictionary does not know matches only wildcard labels in the compiled
        kernel (the oracle raises on hierarchy labels instead); its outputs
        and edge rows are the oracle's on those labels, or fail alike."""
        dictionary = data.draw(expression_dictionaries())
        fst = PatEx(expression).compile(dictionary)
        compiled = CompiledFst(fst, dictionary)
        oracle = InterpretedKernel(fst, dictionary)
        fids = sorted(dictionary.fids())
        for item in fids:
            assert compiled.edge_rows(item) == oracle.edge_rows(item)
            for state in range(compiled.num_states):
                matching = oracle.matching(state, item)
                assert compiled.matching(state, item) == matching
                for tid in matching:
                    assert compiled.outputs(tid, item) == oracle.outputs(tid, item)

        unknown = fids[-1] + 1
        wildcards = [
            tuple(t.tid for t in fst.outgoing(state) if t.label.fid is None)
            for state in range(compiled.num_states)
        ]
        assert [
            compiled.matching(state, unknown) for state in range(compiled.num_states)
        ] == wildcards
        try:
            expected = tuple(
                tuple(
                    (oracle.target(tid), oracle.outputs(tid, unknown))
                    if oracle.is_captured(tid)
                    else (oracle.target(tid), None)
                    for tid in tids
                )
                for tids in wildcards
            )
        except UnknownItemError:
            with pytest.raises(UnknownItemError):
                compiled.edge_rows(unknown)
        else:
            assert compiled.edge_rows(unknown) == expected

        sequences = data.draw(
            st.lists(st.lists(st.sampled_from(fids), max_size=8), min_size=1, max_size=6)
        )
        mff = dictionary.largest_frequent_fid(data.draw(st.integers(1, 9)))
        for sequence in map(tuple, sequences):
            alive = oracle.reachability_table(sequence)
            assert compiled.reachability_table(sequence) == alive
            assert compiled.finishable_table(sequence) == oracle.finishable_table(sequence)
            for limit in (None, mff):
                assert compiled.last_producing_table(sequence, alive, limit) == (
                    oracle.last_producing_table(sequence, alive, limit)
                )

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_finishable_masks_past_the_memo_bound(self, expression, ex_dictionary, monkeypatch):
        """One mask per position, a subset of the reachability mask, equal to
        the list-of-lists reference while the step memo fills and clears."""
        monkeypatch.setattr(compiled_module, "_BACKWARD_MEMO_LIMIT", 4)
        fst = PatEx(expression).compile(ex_dictionary)
        kernel = CompiledFst(fst, ex_dictionary)
        rng = random.Random(20)
        fids = sorted(ex_dictionary.fids())
        sizes = []
        for _ in range(200):
            sequence = tuple(rng.choice(fids) for _ in range(rng.randint(0, 10)))
            finishable = kernel.finishable_table(sequence)
            assert len(finishable) == len(sequence) + 1
            assert finishable[-1] == kernel.final_mask()
            alive = kernel.reachability_table(sequence)
            assert all(mask & ~reach == 0 for mask, reach in zip(finishable, alive))
            assert mask_rows(finishable, kernel.num_states) == finishable_lists(kernel, sequence)
            sizes.append(len(kernel._finishable_memo))
            assert len(kernel._edge_memo) <= 4
        assert max(sizes) == 4
        assert any(after < before for before, after in zip(sizes, sizes[1:]))


# ----------------------------------------------------- pickling & interning
class TestKernelInterning:
    def test_unpickling_returns_the_interned_kernel(self, ex_dictionary):
        fst = PatEx(RUNNING_EXAMPLE_PATEX).compile(ex_dictionary)
        kernel = make_kernel(fst, ex_dictionary)
        assert pickle.loads(pickle.dumps(kernel)) is kernel

    def test_unpickling_rebuilds_after_cache_eviction(self, ex_dictionary):
        fst = PatEx(".*(a1)(b).*").compile(ex_dictionary)
        kernel = make_kernel(fst, ex_dictionary)
        item = ex_dictionary.fid_of("a1")
        expected = kernel.matching(0, item)
        payload = pickle.dumps(kernel)
        _KERNEL_CACHE.pop(kernel.fingerprint, None)
        try:
            restored = pickle.loads(payload)
            assert restored is not kernel
            assert restored.fingerprint == kernel.fingerprint
            assert restored.matching(0, item) == expected
            # The rebuilt kernel is interned again: a second unpickle hits it.
            assert pickle.loads(payload) is restored
        finally:
            _KERNEL_CACHE.pop(kernel.fingerprint, None)

    def test_same_content_compiles_to_the_same_kernel(self, ex_dictionary):
        first = make_kernel(
            PatEx(RUNNING_EXAMPLE_PATEX).compile(ex_dictionary), ex_dictionary
        )
        second = make_kernel(
            PatEx(RUNNING_EXAMPLE_PATEX).compile(ex_dictionary), ex_dictionary
        )
        assert first is second

    def test_content_equal_dictionaries_share_one_kernel(self, ex_dictionary):
        # The intern is the only cache between an expression and a warm
        # kernel: it keys on content, never on which dictionary object.
        clone = make_running_example_dictionary()
        assert clone is not ex_dictionary
        first = ensure_kernel(PatEx(RUNNING_EXAMPLE_PATEX).compile(ex_dictionary), ex_dictionary)
        second = ensure_kernel(PatEx(RUNNING_EXAMPLE_PATEX).compile(clone), clone)
        assert isinstance(first, CompiledFst)
        assert first is second

    def test_memo_fields_are_not_shipped(self, ex_dictionary):
        fst = PatEx(RUNNING_EXAMPLE_PATEX).compile(ex_dictionary)
        kernel = CompiledFst(fst, ex_dictionary)
        kernel.matching(0, ex_dictionary.fid_of("b"))
        kernel.reachability_table((ex_dictionary.fid_of("b"),))
        assert kernel._backward_memo
        _restore, (state,) = kernel.__reduce__()
        assert "_match_memo" not in state
        assert "_output_memo" not in state
        assert "_backward_memo" not in state


class TestBackwardStepMemo:
    """The lazily determinised reverse automaton is warm state, nothing more."""

    def random_sequences(self, dictionary, count, seed=16):
        rng = random.Random(seed)
        fids = sorted(dictionary.fids())
        return [
            tuple(rng.choice(fids) for _ in range(rng.randint(0, 12))) for _ in range(count)
        ]

    def test_a_warm_kernel_pickles_to_the_bytes_of_a_cold_one(self, ex_dictionary):
        fst = PatEx(RUNNING_EXAMPLE_PATEX).compile(ex_dictionary)
        cold = pickle.dumps(CompiledFst(fst, ex_dictionary))
        kernel = CompiledFst(fst, ex_dictionary)
        for sequence in self.random_sequences(ex_dictionary, 1_000):
            kernel.reachability_table(sequence)
        assert set(ex_dictionary.fids()) <= set(kernel._backward_memo)
        assert all(kernel._backward_memo.values()), "every step table is warm"
        assert pickle.dumps(kernel) == cold

    def test_a_warm_kernel_over_a_warm_dictionary_pickles_to_the_cold_size(self):
        """Generalizing captures fill the dictionary's ancestor cache through
        ``edge_rows``; none of it rides along in the kernel's pickle."""
        dictionary = make_running_example_dictionary()
        fst = PatEx(".*(A^)[(.^)|.]*(b).*").compile(dictionary)
        cold = len(pickle.dumps(CompiledFst(fst, dictionary)))
        kernel = CompiledFst(fst, dictionary)
        for sequence in self.random_sequences(dictionary, 200):
            kernel.reachability_table(sequence)
            for item in sequence:
                kernel.edge_rows(item)
        assert kernel._edge_memo and dictionary._ancestor_cache
        assert len(pickle.dumps(kernel)) == cold

    def test_transitions_with_one_label_share_one_output_tuple(self, ex_dictionary):
        """A repetition compiles to many transitions with equal labels; the
        output memo holds one tuple per (label, item), not one per transition."""
        fst = PatEx(".*(A^)[.{0,2}(.^)]{1,3}.*").compile(ex_dictionary)
        kernel = CompiledFst(fst, ex_dictionary)
        captured = [t for t in kernel.transitions if t.label.captured]
        labels = {t.label for t in captured}
        assert len(captured) > len(labels) == 2
        fids = sorted(ex_dictionary.fids())
        for item in fids:
            kernel.edge_rows(item)
        assert 0 < len(kernel._output_memo) <= len(labels) * len(fids)
        for item in fids:
            for label in labels:
                if label.matches(item, ex_dictionary):
                    shared = {
                        id(kernel.outputs(t.tid, item)) for t in captured if t.label == label
                    }
                    assert len(shared) == 1

    def test_unpickling_rebuilds_the_memo_empty(self, ex_dictionary):
        fst = PatEx(".*(a1)[.{0,2}(b)]{1,2}.*").compile(ex_dictionary)
        kernel = make_kernel(fst, ex_dictionary)
        sequences = self.random_sequences(ex_dictionary, 50)
        expected = [kernel.reachability_table(sequence) for sequence in sequences]
        payload = pickle.dumps(kernel)
        _KERNEL_CACHE.pop(kernel.fingerprint, None)
        try:
            restored = pickle.loads(payload)
            assert restored is not kernel
            assert restored._backward_memo == {}
            assert [restored.reachability_table(s) for s in sequences] == expected
        finally:
            _KERNEL_CACHE.pop(kernel.fingerprint, None)

    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_tables_past_the_bound_equal_the_interpreted_kernels(
        self, expression, ex_dictionary, monkeypatch
    ):
        monkeypatch.setattr(compiled_module, "_BACKWARD_MEMO_LIMIT", 5)
        fst = PatEx(expression).compile(ex_dictionary)
        kernel = CompiledFst(fst, ex_dictionary)
        interpreted = InterpretedKernel(fst, ex_dictionary)
        sizes = []
        for sequence in self.random_sequences(ex_dictionary, 300):
            assert kernel.reachability_table(sequence) == (
                interpreted.reachability_table(sequence)
            )
            sizes.append(len(kernel._backward_memo))
            assert all(len(table) <= 5 for table in kernel._backward_memo.values())
        # Filled up to its bound (an item and its class enter together, so one
        # beyond at most) and cleared wholesale on the way.
        assert max(sizes) in (5, 6)
        assert any(after < before for before, after in zip(sizes, sizes[1:]))
        # An unbounded kernel meets more items and classes than the bound
        # allows: the pair really was driven past it.
        monkeypatch.undo()
        unbounded = CompiledFst(fst, ex_dictionary)
        for sequence in self.random_sequences(ex_dictionary, 300):
            unbounded.reachability_table(sequence)
        assert len(unbounded._backward_memo) > 6

    def test_threads_sharing_an_overflowing_memo_agree(self, ex_dictionary, monkeypatch):
        """Unsynchronised fills and wholesale clears never change a table."""
        monkeypatch.setattr(compiled_module, "_BACKWARD_MEMO_LIMIT", 3)
        fst = PatEx(RUNNING_EXAMPLE_PATEX).compile(ex_dictionary)
        kernel = CompiledFst(fst, ex_dictionary)
        interpreted = InterpretedKernel(fst, ex_dictionary)
        sequences = self.random_sequences(ex_dictionary, 400)
        expected = [interpreted.reachability_table(sequence) for sequence in sequences]
        results: dict[int, list] = {}
        barrier = threading.Barrier(4, timeout=30)

        def worker(index):
            barrier.wait()
            results[index] = [kernel.reachability_table(sequence) for sequence in sequences]

        threads = [threading.Thread(target=worker, args=(index,)) for index in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results.get(index) for index in range(4)] == [expected] * 4


# ------------------------------------------------------------- entry points
class TestKernelSelection:
    def test_kernel_builders_take_no_kernel_name(self, ex_dictionary):
        fst = PatEx(RUNNING_EXAMPLE_PATEX).compile(ex_dictionary)
        with pytest.raises(TypeError):
            make_kernel(fst, ex_dictionary, "interpreted")
        with pytest.raises(TypeError):
            ensure_kernel(fst, ex_dictionary, kernel="interpreted")

    def test_ensure_kernel_passes_kernels_through(self, ex_dictionary):
        fst = PatEx(RUNNING_EXAMPLE_PATEX).compile(ex_dictionary)
        kernel = InterpretedKernel(fst, ex_dictionary)
        assert ensure_kernel(kernel) is kernel

    def test_ensure_kernel_requires_a_dictionary_for_raw_fsts(self, ex_dictionary):
        fst = PatEx(RUNNING_EXAMPLE_PATEX).compile(ex_dictionary)
        with pytest.raises(FstError, match="dictionary"):
            ensure_kernel(fst, None)
