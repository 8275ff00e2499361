"""Finite state transducer model (Sec. IV of the paper).

An :class:`Fst` is the compiled form of a pattern expression.  It reads an
input sequence item by item; each transition matches a set of input items and
(conceptually, non-deterministically) produces one item of its output set.
Accepting runs generate the candidate subsequences ``G_π(T)``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.dictionary import Dictionary
from repro.errors import FstError
from repro.fst.labels import Label


@dataclass(frozen=True)
class Transition:
    """One FST transition ``(q_from, label, q_to)`` with a stable id."""

    tid: int
    source: int
    label: Label
    target: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"δ{self.tid}: q{self.source} --{self.label}--> q{self.target}"


class Fst:
    """An immutable finite state transducer.

    States are integers ``0..num_states-1``; the initial state is always ``0``
    after compilation.  Transitions are numbered in a stable order so that
    runs can be reported as transition-id sequences (as in Fig. 5a).
    """

    def __init__(
        self,
        num_states: int,
        initial_state: int,
        final_states: Iterable[int],
        transitions: Iterable[tuple[int, Label, int]],
    ) -> None:
        self.num_states = num_states
        self.initial_state = initial_state
        self.final_states = frozenset(final_states)
        self._transitions: list[Transition] = []
        self._outgoing: list[list[Transition]] = [[] for _ in range(num_states)]
        for source, label, target in transitions:
            if not (0 <= source < num_states and 0 <= target < num_states):
                raise FstError(f"transition endpoints out of range: {source}->{target}")
            transition = Transition(len(self._transitions), source, label, target)
            self._transitions.append(transition)
            self._outgoing[source].append(transition)
        if not (0 <= initial_state < num_states):
            raise FstError(f"initial state {initial_state} out of range")
        for state in self.final_states:
            if not (0 <= state < num_states):
                raise FstError(f"final state {state} out of range")

    # ----------------------------------------------------------------- access
    @property
    def transitions(self) -> tuple[Transition, ...]:
        return tuple(self._transitions)

    def outgoing(self, state: int) -> list[Transition]:
        """Transitions leaving ``state``."""
        return self._outgoing[state]

    def is_final(self, state: int) -> bool:
        return state in self.final_states

    def __len__(self) -> int:
        return len(self._transitions)

    # ------------------------------------------------------------- inspection
    def states(self) -> range:
        return range(self.num_states)

    def has_captures(self) -> bool:
        """True if any transition can produce output."""
        return any(t.label.captured for t in self._transitions)

    def dump(self, dictionary: Dictionary | None = None) -> str:
        """Readable multi-line description of the FST (for docs and debugging)."""
        lines = [
            f"FST with {self.num_states} states, {len(self._transitions)} transitions",
            f"initial: q{self.initial_state}, "
            f"final: {{{', '.join('q' + str(s) for s in sorted(self.final_states))}}}",
        ]
        lines.extend(str(t) for t in self._transitions)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Fst(states={self.num_states}, transitions={len(self._transitions)}, "
            f"finals={sorted(self.final_states)})"
        )

