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

from collections.abc import Iterator
from functools import lru_cache

from repro.errors import NfaError
from repro.nfa.nfa import OutputNfa, Tables, TrieBuilder, readable_tops
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
    return _write_dfs(nfa.transitions, nfa.final_states, 0)


def serialize_trie(builder: TrieBuilder, minimize: bool = True) -> bytes:
    """The bytes of the builder's minimal NFA (or, unminimized, its trie).

    The bytes are written straight from the builder's merged edge lists,
    without building an :class:`OutputNfa`: the format numbers states by DFS
    visit, so it does not depend on how a minimized automaton would have
    numbered them.  The tests check them against ``serialize`` of the
    automaton built the long way round (trie, then minimization).
    """
    return _write_dfs(builder.edge_lists(minimize), builder.final_states, 0)


def serialize_pivot_tries(builder: TrieBuilder, minimize: bool = True) -> Iterator[tuple[int, bytes]]:
    """``(pivot, bytes)`` for every pivot trie of the builder, ascending.

    The forest is minimized once and every pivot's bytes are written from
    the same edge lists.  Each pivot's bytes equal :func:`serialize_trie` of
    a builder that holds that pivot's trie alone: the format numbers states
    by DFS visit from the start state, and a merged root's representative
    spells the same language.
    """
    edges, starts = builder.pivot_edge_lists(minimize)
    finals = builder.final_states
    for pivot, start in starts.items():
        yield pivot, _write_dfs(edges, finals, start)


def _write_dfs(edges, finals, root: int) -> bytes:
    """The canonical bytes of the automaton rooted at ``root``.

    ``edges[state]`` is the state's ``(label, target)`` list in sorted order.
    The traversal keeps an explicit stack, so automaton depth is not bounded
    by the interpreter's recursion limit.
    """
    buffer = bytearray([1 if root in finals else 0])
    visit_number: dict[int, int] = {root: 0}
    current = root  # target of the previously written transition
    stack = [(root, iter(edges[root]))]
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


def decode_tables(data: bytes) -> Tables:
    """Read :func:`serialize` output straight into the tables the reduce
    counts on (see :meth:`OutputNfa.tables`).

    One pass, no :class:`OutputNfa`: nothing is sorted or validated twice.
    It refuses every input :func:`deserialize` refuses, and a cycle, and
    what it accepts equals ``deserialize(data).tables()``.  The bytes are a
    depth-first walk, so each state's ``tops`` entry is settled when the walk
    leaves it; bytes that spell no such walk get the tables' own pass.
    """
    if not data:
        raise NfaError("empty NFA serialization")
    # Varints of one and two bytes (every count, nearly every fid delta and
    # state number) are read inline, from a copy ending in two continuation
    # bytes: a read at the end of ``data`` goes down the slow path, which
    # reports the truncation.
    padded = data + b"\x80\x80"
    end = len(data)
    rows: list[dict[int, set[int]]] = [{}]
    finals = [bool(data[0])]
    tops = [0]
    path = [0]  # the walk's stack of states
    on_path = bytearray(b"\x01")
    walk = True  # so far the bytes are a depth-first walk of an acyclic automaton
    offset = 1
    current = 0  # the implied source: target of the previously read transition
    while offset < end:
        flags = padded[offset]
        offset += 1
        if flags & _FLAG_HAS_SOURCE:
            source = padded[offset]
            if source < 0x80:
                offset += 1
            else:
                source, offset = _read_varint(data, offset)
            if source >= len(rows):
                raise NfaError(f"forward reference to unknown source state {source}")
            if walk and source != path[-1]:
                if on_path[source]:  # the walk went back up to ``source``
                    while path[-1] != source:
                        left = path.pop()
                        on_path[left] = 0
                        if tops[left] > tops[path[-1]]:
                            tops[path[-1]] = tops[left]
                else:
                    walk = False
        else:
            source = current
            if walk and source != path[-1]:
                walk = False
        count = padded[offset]
        if count < 0x80:
            offset += 1
        else:
            count, offset = _read_varint(data, offset)
        if count == 0:
            raise NfaError("empty edge label in serialization")
        items = []
        item = 0
        for _ in range(count):
            delta = padded[offset]
            if delta < 0x80:
                offset += 1
            elif padded[offset + 1] < 0x80:
                delta = (delta & 0x7F) | padded[offset + 1] << 7
                offset += 2
            else:
                delta, offset = _read_varint(data, offset)
            item += delta
            items.append(item)
        if item > tops[source]:  # the last item is the label's largest
            tops[source] = item
        if flags & _FLAG_HAS_TARGET:
            target = padded[offset]
            if target < 0x80:
                offset += 1
            else:
                target, offset = _read_varint(data, offset)
            if target >= len(rows):
                raise NfaError(f"forward reference to unknown target state {target}")
            if on_path[target]:
                walk = False
            elif tops[target] > tops[source]:
                tops[source] = tops[target]
        else:
            target = len(rows)
            rows.append({})
            finals.append(bool(flags & _FLAG_TARGET_FINAL))
            tops.append(0)
            on_path.append(1)
            path.append(target)
        row = rows[source]
        for item in items:
            targets = row.get(item)
            if targets is None:
                row[item] = {target}
            else:
                targets.add(target)
        current = target
    if not walk:
        return rows, finals, readable_tops(rows)
    while len(path) > 1:
        left = path.pop()
        if tops[left] > tops[path[-1]]:
            tops[path[-1]] = tops[left]
    return rows, finals, tops


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
