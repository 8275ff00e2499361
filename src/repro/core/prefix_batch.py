"""Prefix-sharing batch map: trie-batched grid construction over a chunk.

PR 5's corpus dedup (``unique_view()``) collapses *identical* encoded
sequences; this module amortizes across *distinct* sequences that share
prefixes — the dominant redundancy of n-gram and text corpora.  A per-chunk
trie is built over the unique encoded sequences, and the compiled kernel is
driven once per trie **node** through :class:`~repro.core.grid_engine.
GrowableFlatGrid`: the forward dynamic program for a shared prefix runs once,
sibling branches restore to the branch point with ``mark()``/``rewind()``
instead of recomputing, and every sequence's grid is frozen out of the shared
state with ``snapshot()``.

Two batch drivers are exposed:

* :func:`batched_grids` — D-SEQ's map: one
  :class:`~repro.core.grid_engine.FlatPivotGrid` per unique sequence,
  byte-identical to the per-sequence build (the differential matrix holds
  ``map_batching={"off","trie"}`` equal in patterns *and* shuffle metrics).
* :func:`batched_accepting` — D-CAND: a reachable-state-set walk over the
  same trie decides which sequences have an accepting run at all, so the
  (much more expensive) run enumeration is skipped for rejected sequences.

Both meter their work into the ``counters`` mapping (``batch_trie_nodes``,
``batch_shared_positions``) that flows through ``MapTaskResult`` →
``JobMetrics`` → ``RunRecord`` → ``--metrics``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.grid_engine import FlatPivotGrid, GrowableFlatGrid
from repro.dictionary import Dictionary
from repro.fst import Fst, MiningKernel, ensure_kernel
from repro.mapreduce.job import DEFAULT_MAP_BATCHING, MAP_BATCHINGS, normalize_map_batching

#: The mode names live with the job interface (a query that never batches
#: must not load this module to say so) and still import from here.
__all__ = [
    "DEFAULT_MAP_BATCHING",
    "MAP_BATCHINGS",
    "batched_accepting",
    "batched_grids",
    "normalize_map_batching",
]


class _TrieNode:
    """One trie node: children keyed by the next encoded item."""

    __slots__ = ("children", "terminal")

    def __init__(self) -> None:
        self.children: dict[int, _TrieNode] = {}
        self.terminal: tuple[int, ...] | None = None


def _build_trie(sequences: Iterable[Sequence[int]]) -> tuple[_TrieNode, int]:
    """Trie over the unique sequences; returns (root, total unique positions)."""
    root = _TrieNode()
    seen: set[tuple[int, ...]] = set()
    total_positions = 0
    for sequence in sequences:
        key = tuple(sequence)
        if key in seen:
            continue
        seen.add(key)
        total_positions += len(key)
        node = root
        for item in key:
            child = node.children.get(item)
            if child is None:
                child = _TrieNode()
                node.children[item] = child
            node = child
        node.terminal = key
    return root, total_positions


def _count(counters: dict | None, nodes: int, total_positions: int) -> None:
    if counters is None:
        return
    counters["batch_trie_nodes"] = counters.get("batch_trie_nodes", 0) + nodes
    counters["batch_shared_positions"] = (
        counters.get("batch_shared_positions", 0) + (total_positions - nodes)
    )


#: Stack sentinel marking "rewind the shared grid to this mark" (DFS unwind).
_REWIND = object()


def _mark_live(kernel, root: _TrieNode) -> tuple[dict[int, bool], dict[int, bool]]:
    """Reachable-state pre-pass: terminal acceptance plus subtree liveness.

    Returns ``(accepting, live)`` keyed by node id: ``accepting`` is whether
    the node's terminal (if any) has an accepting run; ``live`` is whether the
    subtree rooted at the node contains *any* accepting terminal.  Dead
    subtrees never need the forward dynamic program — their grids are the
    cheap non-accepting builds — so the batched walk skips them entirely,
    keeping the per-sequence path's accepting-run short-circuit.
    """
    matching = kernel.matching
    target_of = kernel.target
    final_states = kernel.final_states
    accepting: dict[int, bool] = {}
    live: dict[int, bool] = {}
    order: list[_TrieNode] = []
    # (state set, item) -> reached state set: the same few state sets recur
    # throughout the trie, so each distinct transition sweep runs once.
    step: dict[tuple[frozenset[int], int], frozenset[int]] = {}
    stack: list[tuple[_TrieNode, frozenset[int]]] = [
        (root, frozenset((kernel.initial_state,)))
    ]
    while stack:
        node, states = stack.pop()
        order.append(node)
        accepting[id(node)] = node.terminal is not None and bool(
            states & final_states
        )
        for item, child in node.children.items():
            key = (states, item)
            reached = step.get(key)
            if reached is None:
                reached = frozenset(
                    target_of(tid) for state in states for tid in matching(state, item)
                )
                step[key] = reached
            stack.append((child, reached))
    # DFS pop order lists every descendant after its parent, so one reverse
    # sweep folds child liveness upward.
    for node in reversed(order):
        live[id(node)] = accepting[id(node)] or any(
            live[id(child)] for child in node.children.values()
        )
    return accepting, live


def _subtree_terminals(node: _TrieNode) -> Iterable[tuple[int, ...]]:
    """Every terminal at or below ``node`` (iterative, arbitrary depth)."""
    stack = [node]
    while stack:
        current = stack.pop()
        if current.terminal is not None:
            yield current.terminal
        stack.extend(current.children.values())


def batched_grids(
    fst: Fst | MiningKernel,
    sequences: Iterable[Sequence[int]],
    dictionary: Dictionary | None = None,
    max_frequent_fid: int | None = None,
    counters: dict | None = None,
) -> dict[tuple[int, ...], FlatPivotGrid]:
    """One flat grid per unique sequence, built trie-batched.

    The returned mapping is keyed by the encoded sequence tuple; duplicate
    input sequences share one grid.  Each grid is byte-identical to
    ``FlatPivotGrid(kernel, sequence, max_frequent_fid=...)`` — the trie only
    changes *when* the forward columns for a shared prefix are computed, never
    what they contain.

    The walk prunes on acceptance: a reachable-state pre-pass (the same sweep
    :func:`batched_accepting` runs) marks the subtrees that contain accepting
    terminals, and only those drive the kernel — sequences without an
    accepting run take the per-sequence constructor's short-circuit instead,
    exactly like the unbatched path.  ``batch_trie_nodes`` therefore counts
    the positions actually driven through the kernel, and
    ``batch_shared_positions`` the accepting-sequence positions served from a
    shared prefix instead of recomputed.
    """
    kernel = ensure_kernel(fst, dictionary)
    root, _ = _build_trie(sequences)
    accepting, live = _mark_live(kernel, root)
    shared = GrowableFlatGrid(kernel, max_frequent_fid=max_frequent_fid)
    grids: dict[tuple[int, ...], FlatPivotGrid] = {}

    def direct(terminal: tuple[int, ...]) -> FlatPivotGrid:
        # Non-accepting: FlatPivotGrid's constructor already short-circuits
        # the forward DP for these, so the direct build is the cheap path.
        return FlatPivotGrid(kernel, terminal, max_frequent_fid=max_frequent_fid)

    if root.terminal is not None:
        grids[root.terminal] = (
            shared.snapshot() if accepting[id(root)] else direct(root.terminal)
        )
    nodes = 0
    built_positions = 0
    stack: list = [(item, child) for item, child in reversed(root.children.items())]
    while stack:
        entry = stack.pop()
        if entry[0] is _REWIND:
            shared.rewind(entry[1])
            continue
        item, node = entry
        if not live[id(node)]:
            for terminal in _subtree_terminals(node):
                grids[terminal] = direct(terminal)
            continue
        mark = shared.mark()
        shared.extend(item)
        nodes += 1
        if node.terminal is not None:
            if accepting[id(node)]:
                built_positions += len(node.terminal)
                grids[node.terminal] = shared.snapshot()
            else:
                grids[node.terminal] = direct(node.terminal)
        stack.append((_REWIND, mark))
        stack.extend(
            (child_item, child) for child_item, child in reversed(node.children.items())
        )
    _count(counters, nodes, built_positions)
    return grids


def batched_accepting(
    fst: Fst | MiningKernel,
    sequences: Iterable[Sequence[int]],
    dictionary: Dictionary | None = None,
    counters: dict | None = None,
) -> dict[tuple[int, ...], bool]:
    """Whether each unique sequence has an accepting run, via one trie walk.

    Simulates the set of reachable FST states down the trie (one transition
    sweep per trie node instead of per sequence position); a sequence is
    accepting iff the state set at its leaf intersects the final states.
    This is exact — D-CAND's map emits nothing for a sequence without
    accepting runs, so skipping those sequences is emission-identical.
    """
    kernel = ensure_kernel(fst, dictionary)
    root, total_positions = _build_trie(sequences)
    matching = kernel.matching
    target_of = kernel.target
    final_states = kernel.final_states
    accepting: dict[tuple[int, ...], bool] = {}
    initial = frozenset((kernel.initial_state,))
    if root.terminal is not None:
        accepting[root.terminal] = kernel.is_final(kernel.initial_state)
    nodes = 0
    step: dict[tuple[frozenset[int], int], frozenset[int]] = {}
    stack: list[tuple[_TrieNode, frozenset[int]]] = [(root, initial)]
    while stack:
        node, states = stack.pop()
        for item, child in node.children.items():
            nodes += 1
            key = (states, item)
            reached = step.get(key)
            if reached is None:
                reached = frozenset(
                    target_of(tid) for state in states for tid in matching(state, item)
                )
                step[key] = reached
            if child.terminal is not None:
                accepting[child.terminal] = bool(reached & final_states)
            stack.append((child, reached))
    _count(counters, nodes, total_positions)
    return accepting
