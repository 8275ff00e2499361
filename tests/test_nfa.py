"""Tests for output NFAs: trie construction, minimization, serialization."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NfaError
from repro.nfa import (
    OutputNfa,
    TrieBuilder,
    deserialize,
    minimize_acyclic,
    serialize,
    serialize_trie,
)


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
        nfa = builder.trie()
        assert nfa.candidates() == {(4, 1)}

    def test_multiple_runs_share_prefix(self):
        builder = build_trie([[(4,), (1,)], [(4,), (2,), (1,)]])
        nfa = builder.trie()
        assert nfa.candidates() == {(4, 1), (4, 2, 1)}
        # Shared prefix (4,) is stored once: root has a single child.
        assert len(nfa.outgoing(0)) == 1

    def test_output_sets_expand_to_multiple_candidates(self):
        # Label {a1, A} on one edge encodes two candidates.
        builder = build_trie([[(4,), (2, 4), (1,)]])
        assert builder.trie().candidates() == {(4, 2, 1), (4, 4, 1)}

    def test_duplicate_runs_are_idempotent(self):
        builder = build_trie([[(4,), (1,)], [(4,), (1,)]])
        assert builder.trie().candidates() == {(4, 1)}

    def test_empty_run_is_ignored(self):
        builder = build_trie([[]])
        assert builder.trie().candidates() == set()

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
        trie = builder.trie()
        minimized = builder.minimized()
        # Paper: trie has 13 vertices / 12 edges, minimized NFA 7 vertices / 10 edges.
        assert trie.num_states == 13
        assert trie.num_transitions == 12
        assert minimized.num_states == 7
        assert minimized.num_transitions <= 10
        assert minimized.candidates() == trie.candidates()


class TestMinimization:
    def test_minimization_preserves_language(self):
        runs = [
            [(4,), (2, 4), (1,)],
            [(4,), (1,)],
        ]
        builder = build_trie(runs)
        assert builder.minimized().candidates() == builder.trie().candidates()

    def test_minimization_never_increases_size(self):
        runs = [[(i % 3 + 1,), (1,)] for i in range(1, 6)]
        builder = build_trie(runs)
        trie, minimized = builder.trie(), builder.minimized()
        assert minimized.num_states <= trie.num_states
        assert minimized.num_transitions <= trie.num_transitions

    def test_suffix_sharing(self):
        # Two branches with identical suffixes collapse.
        runs = [
            [(5,), (3,), (1,)],
            [(4,), (3,), (1,)],
        ]
        minimized = build_trie(runs).minimized()
        assert minimized.candidates() == {(5, 3, 1), (4, 3, 1)}
        assert minimized.num_states < build_trie(runs).trie().num_states

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
        trie = builder.trie()
        assert trie.num_states == 3 * width + 1
        minimized = minimize_acyclic(trie)
        assert minimized.num_states == width + 3
        assert minimized.num_transitions == 2 * width + 1
        assert [label for label, _target in minimized.outgoing(0)] == [
            (j,) for j in range(1, width + 1)
        ]
        (final,) = minimized.final_states
        assert minimized.outgoing(final) == []
        (before_final,) = {
            target
            for _label, middle in minimized.outgoing(0)
            for _label, target in minimized.outgoing(middle)
        }
        assert minimized.outgoing(before_final) == [((1,), final)]
        assert minimized.accepts((width, width, 1))
        assert not minimized.accepts((width, 1, 1))
        assert serialize(minimized) == serialize_trie(builder)

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
        minimized = minimize_acyclic(nfa)
        assert minimized.candidates() == nfa.candidates()
        assert minimized == reference_minimize_acyclic(nfa)


class TestOutputNfa:
    def test_accepts(self):
        nfa = build_trie([[(4,), (2, 4), (1,)], [(4,), (1,)]]).minimized()
        assert nfa.accepts((4, 2, 1))
        assert nfa.accepts((4, 4, 1))
        assert nfa.accepts((4, 1))
        assert not nfa.accepts((4, 2))
        assert not nfa.accepts((1,))
        assert not nfa.accepts(())

    def test_items(self):
        nfa = build_trie([[(4,), (2, 4), (1,)]]).trie()
        assert nfa.items() == {1, 2, 4}

    def test_equality_and_hash(self):
        a = build_trie([[(4,), (1,)]]).minimized()
        b = build_trie([[(4,), (1,)]]).minimized()
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
        nfa = build_trie([[(4,), (2, 4), (1,)], [(4,), (1,)]]).minimized()
        assert deserialize(serialize(nfa)).candidates() == nfa.candidates()

    def test_round_trip_preserves_finals(self):
        nfa = build_trie([[(4,)], [(4,), (1,)]]).minimized()
        restored = deserialize(serialize(nfa))
        assert restored.candidates() == nfa.candidates()

    def test_canonical_for_identical_nfas(self):
        # Identical candidate sets built in different insertion orders serialize
        # identically (this is what makes D-CAND's aggregation effective).
        a = build_trie([[(4,), (1,)], [(4,), (2,), (1,)]]).minimized()
        b = build_trie([[(4,), (2,), (1,)], [(4,), (1,)]]).minimized()
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
        assert len(serialize(builder.minimized())) <= len(serialize(builder.trie()))

    def test_large_fids_varint(self):
        nfa = build_trie([[(1_000_000,), (70, 200, 300_000)]]).trie()
        assert deserialize(serialize(nfa)).candidates() == nfa.candidates()

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
        for nfa in (builder.trie(), builder.minimized()):
            restored = deserialize(serialize(nfa))
            assert restored.candidates() == nfa.candidates()

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
        assert builder.minimized().candidates() == builder.trie().candidates()

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
    @settings(max_examples=100, deadline=None)
    def test_trie_route_writes_the_same_bytes_as_the_nfa_route(self, runs):
        builder = build_trie(runs)
        assert serialize_trie(builder) == serialize(builder.minimized())
        assert serialize_trie(builder, minimize=False) == serialize(builder.trie())


class TestDeepAutomata:
    """A 3,000-edge chain used to end minimization and serialization in a bare
    ``RecursionError`` (one Python frame per edge)."""

    DEPTH = 3_000

    def chain(self):
        return build_trie([[(1,)] * self.DEPTH])

    def test_minimized_chain(self):
        minimized = self.chain().minimized()
        assert minimized.num_states == self.DEPTH + 1
        assert minimized.final_states == {self.DEPTH}

    def test_serialize_round_trip_of_a_chain(self):
        builder = self.chain()
        trie = builder.trie()
        payload = serialize(trie)
        assert deserialize(payload) == trie
        assert serialize_trie(builder) == serialize_trie(builder, minimize=False)
        assert serialize_trie(builder) == payload


class TestHostilePayloads:
    """``deserialize`` reads bytes another process wrote: whatever arrives, it
    returns a validated ``OutputNfa`` or raises ``NfaError`` — nothing else."""

    PAYLOADS = [
        serialize(build_trie(runs).minimized())
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
