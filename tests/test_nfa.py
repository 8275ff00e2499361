"""Tests for output NFAs: trie construction, minimization, serialization."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import NfaError
from repro.fst import expand_output_sets
from repro.nfa import (
    OutputNfa,
    TrieBuilder,
    decode_tables,
    deserialize,
    serialize,
    serialize_trie,
)
from tests.reference import minimize_acyclic, minimized, nfa_accepts, nfa_candidates, trie


def build_trie(runs):
    builder = TrieBuilder()
    for run in runs:
        builder.add_run(run)
    return builder


def reference_minimize_acyclic(nfa):
    """The pre-rewrite ``minimize_acyclic``: recursive sort, ``order.index``
    ranking, and the root swap that the rewrite shows to be unreachable."""
    order: list[int] = []
    seen: set[int] = set()

    def visit(state):
        if state not in seen:
            seen.add(state)
            for _label, target in nfa.outgoing(state):
                visit(target)
            order.append(state)

    visit(0)
    order.reverse()
    canonical: dict[int, int] = {}
    registry: dict[tuple, int] = {}
    for state in reversed(order):
        signature = (
            nfa.is_final(state),
            tuple(sorted((label, canonical[t]) for label, t in nfa.outgoing(state))),
        )
        canonical[state] = registry.setdefault(signature, state)
    kept = sorted({canonical[state] for state in order}, key=order.index)
    renumber = {state: index for index, state in enumerate(kept)}
    root = canonical[0]
    if renumber[root] != 0:
        other = kept[0]
        renumber[root], renumber[other] = 0, renumber[root]
    transitions = [[] for _ in kept]
    for state in kept:
        transitions[renumber[state]] = [
            (label, renumber[canonical[t]]) for label, t in nfa.outgoing(state)
        ]
    finals = {renumber[state] for state in kept if nfa.is_final(state)}
    return OutputNfa(transitions, finals)


class TestTrieBuilder:
    def test_single_run(self):
        builder = build_trie([[(4,), (1,)]])
        nfa = trie(builder)
        assert nfa_candidates(nfa) == {(4, 1)}

    def test_multiple_runs_share_prefix(self):
        builder = build_trie([[(4,), (1,)], [(4,), (2,), (1,)]])
        nfa = trie(builder)
        assert nfa_candidates(nfa) == {(4, 1), (4, 2, 1)}
        # Shared prefix (4,) is stored once: root has a single child.
        assert len(nfa.outgoing(0)) == 1

    def test_output_sets_expand_to_multiple_candidates(self):
        # Label {a1, A} on one edge encodes two candidates.
        builder = build_trie([[(4,), (2, 4), (1,)]])
        assert nfa_candidates(trie(builder)) == {(4, 2, 1), (4, 4, 1)}

    def test_duplicate_runs_are_idempotent(self):
        builder = build_trie([[(4,), (1,)], [(4,), (1,)]])
        assert nfa_candidates(trie(builder)) == {(4, 1)}

    def test_empty_run_is_ignored(self):
        builder = build_trie([[]])
        assert nfa_candidates(trie(builder)) == set()

    @given(
        st.lists(
            st.lists(
                st.lists(
                    st.integers(min_value=1, max_value=6), min_size=1, max_size=3
                ).map(lambda items: tuple(sorted(set(items)))),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_language_is_the_expansion_of_the_runs(self, runs):
        expected = set().union(*(expand_output_sets(run) for run in runs))
        for nfa in (trie(build_trie(runs)), minimized(build_trie(runs))):
            assert nfa_candidates(nfa) == expected
            assert all(nfa_accepts(nfa, candidate) for candidate in expected)
            assert not nfa_accepts(nfa, ())

    def test_empty_label_rejected(self):
        builder = TrieBuilder()
        with pytest.raises(NfaError):
            builder.add_run([()])

    def test_fig7_trie_and_minimization_sizes(self):
        # ρ_c(T1) of the running example (Fig. 7): candidates
        # a1cdcb, a1cdb, a1cb, a1dcb, a1ccb with fids a1=4, c=5, d=3, b=1.
        runs = [
            [(4,), (5,), (3,), (5,), (1,)],
            [(4,), (5,), (3,), (1,)],
            [(4,), (5,), (1,)],
            [(4,), (3,), (5,), (1,)],
            [(4,), (5,), (5,), (1,)],
        ]
        builder = build_trie(runs)
        trie_nfa = trie(builder)
        minimal = minimized(builder)
        # Paper: trie has 13 vertices / 12 edges, minimized NFA 7 vertices / 10 edges.
        assert trie_nfa.num_states == 13
        assert trie_nfa.num_transitions == 12
        assert minimal.num_states == 7
        assert minimal.num_transitions <= 10
        assert nfa_candidates(minimal) == nfa_candidates(trie_nfa)


class TestMinimization:
    def test_minimization_preserves_language(self):
        runs = [
            [(4,), (2, 4), (1,)],
            [(4,), (1,)],
        ]
        builder = build_trie(runs)
        assert nfa_candidates(minimized(builder)) == nfa_candidates(trie(builder))

    def test_minimization_never_increases_size(self):
        runs = [[(i % 3 + 1,), (1,)] for i in range(1, 6)]
        builder = build_trie(runs)
        trie_nfa, minimal = trie(builder), minimized(builder)
        assert minimal.num_states <= trie_nfa.num_states
        assert minimal.num_transitions <= trie_nfa.num_transitions

    def test_suffix_sharing(self):
        # Two branches with identical suffixes collapse.
        runs = [
            [(5,), (3,), (1,)],
            [(4,), (3,), (1,)],
        ]
        minimal = minimized(build_trie(runs))
        assert nfa_candidates(minimal) == {(5, 3, 1), (4, 3, 1)}
        assert minimal.num_states < trie(build_trie(runs)).num_states

    def test_cycle_detection(self):
        nfa = OutputNfa([[((1,), 1)], [((1,), 0)]], final_states={1})
        with pytest.raises(NfaError):
            minimize_acyclic(nfa)

    def test_wide_trie_keeps_root_and_merges_suffixes(self):
        # 8,000 runs (j)(j)(1): 24,001 trie states.  The kept states used to
        # be ordered with a linear ``order.index`` scan each (quadratic); this
        # pins the result the linear rewrite must still produce.  The initial
        # state is always its own representative, so there is no renumbering
        # swap left to exercise (see the property below): index 0 is the root.
        width = 8_000
        builder = build_trie([[(j,), (j,), (1,)] for j in range(1, width + 1)])
        trie_nfa = trie(builder)
        assert trie_nfa.num_states == 3 * width + 1
        minimal = minimize_acyclic(trie_nfa)
        assert minimal.num_states == width + 3
        assert minimal.num_transitions == 2 * width + 1
        assert [label for label, _target in minimal.outgoing(0)] == [
            (j,) for j in range(1, width + 1)
        ]
        (final,) = minimal.final_states
        assert minimal.outgoing(final) == []
        (before_final,) = {
            target
            for _label, middle in minimal.outgoing(0)
            for _label, target in minimal.outgoing(middle)
        }
        assert minimal.outgoing(before_final) == [((1,), final)]
        assert nfa_accepts(minimal, (width, width, 1))
        assert not nfa_accepts(minimal, (width, 1, 1))
        assert serialize(minimal) == serialize_trie(builder)

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.lists(
                        st.integers(min_value=1, max_value=4), min_size=1, max_size=2
                    ).map(lambda items: tuple(sorted(set(items)))),
                    st.integers(min_value=1, max_value=6),
                ),
                max_size=3,
            ),
            min_size=1,
            max_size=6,
        ),
        st.sets(st.integers(min_value=0, max_value=5)),
    )
    @settings(max_examples=100, deadline=None)
    def test_general_acyclic_nfas_keep_their_root_and_language(self, raw, finals):
        # Forward-only edges make the NFA acyclic; unlike a trie it may be
        # nondeterministic and share states.
        count = len(raw)
        transitions = [
            [(label, state + jump) for label, jump in edges if state + jump < count]
            for state, edges in enumerate(raw)
        ]
        nfa = OutputNfa(transitions, {state for state in finals if state < count})
        minimal = minimize_acyclic(nfa)
        assert nfa_candidates(minimal) == nfa_candidates(nfa)
        assert minimal == reference_minimize_acyclic(nfa)


class TestOutputNfa:
    def test_accepts(self):
        nfa = minimized(build_trie([[(4,), (2, 4), (1,)], [(4,), (1,)]]))
        assert nfa_accepts(nfa, (4, 2, 1))
        assert nfa_accepts(nfa, (4, 4, 1))
        assert nfa_accepts(nfa, (4, 1))
        assert not nfa_accepts(nfa, (4, 2))
        assert not nfa_accepts(nfa, (1,))
        assert not nfa_accepts(nfa, ())

    def test_items(self):
        nfa = trie(build_trie([[(4,), (2, 4), (1,)]]))
        assert nfa.items() == {1, 2, 4}

    def test_equality_and_hash(self):
        a = minimized(build_trie([[(4,), (1,)]]))
        b = minimized(build_trie([[(4,), (1,)]]))
        assert a == b
        assert hash(a) == hash(b)

    def test_invalid_target_rejected(self):
        with pytest.raises(NfaError):
            OutputNfa([[((1,), 5)]], final_states={0})

    def test_invalid_final_state_rejected(self):
        with pytest.raises(NfaError):
            OutputNfa([[]], final_states={3})


class TestSerialization:
    def test_round_trip_simple(self):
        nfa = minimized(build_trie([[(4,), (2, 4), (1,)], [(4,), (1,)]]))
        assert nfa_candidates(deserialize(serialize(nfa))) == nfa_candidates(nfa)

    def test_round_trip_preserves_finals(self):
        nfa = minimized(build_trie([[(4,)], [(4,), (1,)]]))
        restored = deserialize(serialize(nfa))
        assert nfa_candidates(restored) == nfa_candidates(nfa)

    def test_canonical_for_identical_nfas(self):
        # Identical candidate sets built in different insertion orders serialize
        # identically (this is what makes D-CAND's aggregation effective).
        a = minimized(build_trie([[(4,), (1,)], [(4,), (2,), (1,)]]))
        b = minimized(build_trie([[(4,), (2,), (1,)], [(4,), (1,)]]))
        assert serialize(a) == serialize(b)

    def test_minimized_is_smaller_or_equal(self):
        runs = [
            [(4,), (5,), (3,), (5,), (1,)],
            [(4,), (5,), (3,), (1,)],
            [(4,), (5,), (1,)],
            [(4,), (3,), (5,), (1,)],
            [(4,), (5,), (5,), (1,)],
        ]
        builder = build_trie(runs)
        assert len(serialize(minimized(builder))) <= len(serialize(trie(builder)))

    def test_large_fids_varint(self):
        nfa = trie(build_trie([[(1_000_000,), (70, 200, 300_000)]]))
        assert nfa_candidates(deserialize(serialize(nfa))) == nfa_candidates(nfa)

    def test_empty_serialization_rejected(self):
        with pytest.raises(NfaError):
            deserialize(b"")

    @given(
        st.lists(
            st.lists(
                st.lists(
                    st.integers(min_value=1, max_value=30), min_size=1, max_size=3
                ).map(lambda items: tuple(sorted(set(items)))),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, runs):
        builder = build_trie(runs)
        for nfa in (trie(builder), minimized(builder)):
            restored = deserialize(serialize(nfa))
            assert nfa_candidates(restored) == nfa_candidates(nfa)

    @given(
        st.lists(
            st.lists(
                st.lists(
                    st.integers(min_value=1, max_value=10), min_size=1, max_size=2
                ).map(lambda items: tuple(sorted(set(items)))),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_minimization_preserves_candidates_property(self, runs):
        builder = build_trie(runs)
        assert nfa_candidates(minimized(builder)) == nfa_candidates(trie(builder))

    @given(
        st.lists(
            st.lists(
                st.lists(
                    st.integers(min_value=1, max_value=12), min_size=1, max_size=3
                ).map(lambda items: tuple(sorted(set(items)))),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=8,
        )
    )
    # One run a prefix of another: two states with the same edges that differ
    # only in finality, which the merge must keep apart.
    @example([[(1,), (2,)], [(3,), (1,), (2,)], [(3,), (1,)]])
    @settings(max_examples=100, deadline=None)
    def test_trie_route_writes_the_same_bytes_as_the_nfa_route(self, runs):
        builder = build_trie(runs)
        assert serialize_trie(builder) == serialize(minimized(builder))
        assert serialize_trie(builder, minimize=False) == serialize(trie(builder))


class TestDeepAutomata:
    """A 3,000-edge chain used to end minimization and serialization in a bare
    ``RecursionError`` (one Python frame per edge)."""

    DEPTH = 3_000

    def chain(self):
        return build_trie([[(1,)] * self.DEPTH])

    def test_minimized_chain(self):
        minimal = minimized(self.chain())
        assert minimal.num_states == self.DEPTH + 1
        assert minimal.final_states == {self.DEPTH}

    def test_serialize_round_trip_of_a_chain(self):
        builder = self.chain()
        trie_nfa = trie(builder)
        payload = serialize(trie_nfa)
        assert deserialize(payload) == trie_nfa
        assert serialize_trie(builder) == serialize_trie(builder, minimize=False)
        assert serialize_trie(builder) == payload


class TestHostilePayloads:
    """``deserialize`` reads bytes another process wrote: whatever arrives, it
    returns a validated ``OutputNfa`` or raises ``NfaError`` — nothing else.
    The reduce's ``decode_tables`` reads the same bytes into tables: it
    refuses what ``deserialize`` refuses (and a cycle) and otherwise returns
    exactly ``deserialize(data).tables()``."""

    PAYLOADS = [
        serialize(minimized(build_trie(runs)))
        for runs in (
            [[(4,), (2, 4), (1,)], [(4,), (1,)]],
            [[(1_000_000,), (70, 200, 300_000)], [(3,)]],
            [[(j,), (j,), (1,)] for j in range(1, 40)],
        )
    ]

    @staticmethod
    def read(data: bytes):
        try:
            nfa = deserialize(data)
        except NfaError:
            return None
        # Whatever was accepted is internally consistent.
        assert nfa == OutputNfa(nfa.transitions, nfa.final_states)
        return nfa

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_every_truncation(self, payload):
        assert self.read(payload) is not None
        for length in range(len(payload)):
            self.read(payload[:length])
        with pytest.raises(NfaError):
            deserialize(payload[:-1])  # the last edge is cut short

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_every_single_bit_flip(self, payload):
        for position in range(len(payload)):
            for bit in range(8):
                flipped = bytearray(payload)
                flipped[position] ^= 1 << bit
                self.read(bytes(flipped))

    @given(st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes(self, data):
        self.read(data)

    @staticmethod
    def both_readers(data: bytes):
        """``decode_tables`` and ``deserialize(...).tables()`` agree: both
        refuse with ``NfaError``, or both give the same tables."""
        try:
            expected = deserialize(data).tables()
        except NfaError:
            expected = None
        try:
            decoded = decode_tables(data)
        except NfaError:
            decoded = None
        assert decoded == expected
        return decoded

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_the_table_decoder_on_every_truncation_and_bit_flip(self, payload):
        assert self.both_readers(payload) is not None
        for length in range(len(payload)):
            self.both_readers(payload[:length])
        for position in range(len(payload)):
            for bit in range(8):
                flipped = bytearray(payload)
                flipped[position] ^= 1 << bit
                self.both_readers(bytes(flipped))

    @given(st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_the_table_decoder_on_random_bytes(self, data):
        self.both_readers(data)

    def test_bytes_that_are_no_depth_first_walk(self):
        # 0 -(1)-> 1 and 0 -(2)-> 2, then an edge 1 -(3)-> 3 after the walk
        # left state 1: the tops come from the tables' own pass.
        data = b"\x00\x00\x01\x01\x01\x00\x01\x02\x01\x01\x01\x03"
        assert deserialize(data).transitions == [
            [((1,), 1), ((2,), 2)], [((3,), 3)], [], []
        ]
        rows, finals, tops = decode_tables(data)
        assert (rows, finals, tops) == deserialize(data).tables()
        assert tops == [3, 3, 0, 0]

    def test_a_cycle_is_refused_by_the_table_decoder_only(self):
        # 0 -(1)-> 1, then 1 -(1)-> 1 (explicit source 1, known target 1).
        data = b"\x00\x00\x01\x01\x03\x01\x01\x01\x01"
        assert deserialize(data).transitions == [[((1,), 1)], [((1,), 1)]]
        with pytest.raises(NfaError, match="cycle"):
            decode_tables(data)
        with pytest.raises(NfaError, match="cycle"):
            deserialize(data).tables()

    def test_forward_references_and_runaway_lengths(self):
        for data in (
            b"\x00\x01\x05\x01\x01",  # source state 5 does not exist
            b"\x00\x02\x01\x01\x07",  # target state 7 does not exist
            b"\x00\x00\x00",  # empty label
            b"\x00\x00\xff\xff\xff\xff\x0f\x01",  # 2**32-item label, 1 present
            b"\x00\x00\x01" + b"\x80" * 40,  # varint that never ends
        ):
            with pytest.raises(NfaError):
                deserialize(data)
            with pytest.raises(NfaError):
                decode_tables(data)
