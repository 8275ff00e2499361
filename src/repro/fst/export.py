"""Export and structural statistics of a compiled FST.

Rendering the compiled FST of a pattern expression (Fig. 4 of the paper)
makes constraints much easier to debug.  This module produces its Graphviz
``dot`` text and the summary statistics of the CLI's ``inspect`` command.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dictionary import Dictionary
from repro.fst.fst import Fst


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


# ------------------------------------------------------------------------ FST
def fst_to_dot(fst: Fst, dictionary: Dictionary | None = None, title: str = "fst") -> str:
    """Render an FST as Graphviz ``dot`` text.

    Transition labels use the compact pattern-expression notation of the
    paper's Fig. 4 (e.g. ``.``, ``(A)``, ``(.^)``).
    """
    lines = [
        f'digraph "{_escape(title)}" {{',
        "  rankdir=LR;",
        '  node [shape=circle, fontsize=11];',
        '  __start [shape=point];',
        f"  __start -> q{fst.initial_state};",
    ]
    for state in fst.states():
        shape = "doublecircle" if fst.is_final(state) else "circle"
        lines.append(f'  q{state} [label="q{state}", shape={shape}];')
    for transition in fst.transitions:
        label = transition.label.describe() if transition.label is not None else "ε"
        lines.append(
            f'  q{transition.source} -> q{transition.target} [label="{_escape(label)}"];'
        )
    lines.append("}")
    return "\n".join(lines)


@dataclass(frozen=True)
class FstStatistics:
    """Structural summary of a compiled FST."""

    num_states: int
    num_final_states: int
    num_transitions: int
    num_capturing_transitions: int
    num_generalizing_transitions: int
    max_fanout: int
    is_deterministic_on_states: bool

    def as_dict(self) -> dict[str, int | bool]:
        return {
            "states": self.num_states,
            "final_states": self.num_final_states,
            "transitions": self.num_transitions,
            "capturing_transitions": self.num_capturing_transitions,
            "generalizing_transitions": self.num_generalizing_transitions,
            "max_fanout": self.max_fanout,
            "deterministic_on_states": self.is_deterministic_on_states,
        }


def fst_statistics(fst: Fst) -> FstStatistics:
    """Compute structural statistics of an FST.

    ``is_deterministic_on_states`` is a weak determinism check: it is True when
    no state has two outgoing transitions, which is sufficient (but not
    necessary) for the FST simulation to visit each position–state pair once.
    """
    fanout: dict[int, int] = {}
    capturing = 0
    generalizing = 0
    for transition in fst.transitions:
        fanout[transition.source] = fanout.get(transition.source, 0) + 1
        label = transition.label
        if label is not None and label.produces_output():
            capturing += 1
            if label.generalize:
                generalizing += 1
    return FstStatistics(
        num_states=fst.num_states,
        num_final_states=sum(1 for state in fst.states() if fst.is_final(state)),
        num_transitions=len(fst.transitions),
        num_capturing_transitions=capturing,
        num_generalizing_transitions=generalizing,
        max_fanout=max(fanout.values(), default=0),
        is_deterministic_on_states=all(count <= 1 for count in fanout.values()),
    )
