"""Compact serialization of output NFAs (Sec. VI-A, "Serialization").

The format follows the paper's scheme: transitions are written in DFS order;
the source state is written only when it differs from the target of the
previously written transition, the target state is written only when it was
visited before, and a "final" marker is attached when a newly visited target
state is final.  Integers are encoded as unsigned LEB128 varints.

The serialization is canonical (edges are visited in sorted label order), so
identical NFAs produce identical byte strings — which is what makes the
MapReduce combine-style aggregation of D-CAND effective.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import NfaError
from repro.nfa.nfa import OutputNfa, TrieBuilder
from repro.varint import read_varint, write_varint

_FLAG_HAS_SOURCE = 1
_FLAG_HAS_TARGET = 2
_FLAG_TARGET_FINAL = 4


# ------------------------------------------------------------------- varints
def _write_varint(buffer: bytearray, value: int) -> None:
    if 0 <= value < 0x80:  # one byte: nearly every state number, count and fid delta
        buffer.append(value)
    else:
        write_varint(buffer, value, error=NfaError)


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    return read_varint(data, offset, error=NfaError, what="varint in serialized NFA")


@lru_cache(maxsize=1 << 16)
def _label_bytes(label: tuple[int, ...]) -> bytes:
    """A label's bytes: its length, then its delta-encoded sorted fids.

    Memoised and bounded: a process writes the same few labels once per trie
    edge, so the table turns a call per label item into a lookup per label.
    """
    buffer = bytearray()
    _write_varint(buffer, len(label))
    previous = 0
    for fid in label:
        _write_varint(buffer, fid - previous)
        previous = fid
    return bytes(buffer)


# --------------------------------------------------------------- serialization
def serialize(nfa: OutputNfa) -> bytes:
    """Serialize an output NFA into a compact canonical byte string."""
    return _write_dfs(nfa.transitions, nfa.final_states)


def serialize_trie(builder: TrieBuilder, minimize: bool = True) -> bytes:
    """The bytes of the builder's minimal NFA (or, unminimized, its trie).

    The bytes are written straight from the builder's merged edge lists,
    without building an :class:`OutputNfa`: the format numbers states by DFS
    visit, so it does not depend on how a minimized automaton would have
    numbered them.  The tests check them against ``serialize`` of the
    automaton built the long way round (trie, then minimization).
    """
    return _write_dfs(builder.edge_lists(minimize), builder.final_states)


def _write_dfs(edges, finals) -> bytes:
    """The canonical bytes of the automaton rooted at state 0.

    ``edges[state]`` is the state's ``(label, target)`` list in sorted order.
    The traversal keeps an explicit stack, so automaton depth is not bounded
    by the interpreter's recursion limit.
    """
    buffer = bytearray([1 if 0 in finals else 0])
    visit_number: dict[int, int] = {0: 0}
    current = 0  # target of the previously written transition
    stack = [(0, iter(edges[0]))]
    while stack:
        source, pending = stack[-1]
        for label, target in pending:
            known = visit_number.get(target)
            flags = 0 if source == current else _FLAG_HAS_SOURCE
            if known is not None:
                flags |= _FLAG_HAS_TARGET
            elif target in finals:
                flags |= _FLAG_TARGET_FINAL
            buffer.append(flags)
            if flags & _FLAG_HAS_SOURCE:
                _write_varint(buffer, visit_number[source])
            buffer += _label_bytes(label)
            current = target
            if known is not None:
                _write_varint(buffer, known)
            else:
                visit_number[target] = len(visit_number)
                stack.append((target, iter(edges[target])))
                break
        else:
            stack.pop()
    return bytes(buffer)


def deserialize(data: bytes) -> OutputNfa:
    """Reconstruct an output NFA from :func:`serialize` output."""
    if not data:
        raise NfaError("empty NFA serialization")
    root_final = bool(data[0])
    offset = 1
    # Labels (three reads in four) take one-byte varints inline, from a copy
    # ending in a continuation byte: a read at the end of ``data`` goes down
    # the slow path too, which reports the truncation.
    padded = data + b"\x80"

    transitions: list[list[tuple[tuple[int, ...], int]]] = [[]]
    finals: set[int] = {0} if root_final else set()
    current = 0  # the implied source: target of the previously read transition

    while offset < len(data):
        flags = data[offset]
        offset += 1
        if flags & _FLAG_HAS_SOURCE:
            source, offset = _read_varint(data, offset)
            if source >= len(transitions):
                raise NfaError(f"forward reference to unknown source state {source}")
        else:
            source = current
        label_length = padded[offset]
        if label_length < 0x80:
            offset += 1
        else:
            label_length, offset = _read_varint(data, offset)
        if label_length == 0:
            raise NfaError("empty edge label in serialization")
        label = []
        previous = 0
        for _ in range(label_length):
            delta = padded[offset]
            if delta < 0x80:
                offset += 1
            else:
                delta, offset = _read_varint(data, offset)
            previous += delta
            label.append(previous)
        if flags & _FLAG_HAS_TARGET:
            target, offset = _read_varint(data, offset)
            if target >= len(transitions):
                raise NfaError(f"forward reference to unknown target state {target}")
        else:
            target = len(transitions)
            transitions.append([])
            if flags & _FLAG_TARGET_FINAL:
                finals.add(target)
        transitions[source].append((tuple(label), target))
        current = target

    return OutputNfa(transitions, finals)
