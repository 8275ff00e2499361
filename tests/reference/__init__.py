"""Reference implementations the product's fast paths are checked against.

Each one encodes a piece of the paper's semantics the simple way and shares
no table, memo or shortcut with the product code it checks:

* :mod:`.dictionary` -- :class:`OccurrenceBuilder` (the f-list's document
  frequencies with a hierarchy walk per item occurrence, Fig. 2c);
* :mod:`.kernel` -- :class:`InterpretedKernel` (labels asked on every probe)
  and :func:`accepts` (``R(T)`` non-empty);
* :mod:`.simulation` -- :func:`run_output_sets` and :func:`generates`
  (``S ∈ G_π(T)``, Sec. IV);
* :mod:`.pivots` -- :func:`pivots_of_output_sets` (Theorem 1's ⊕ fold);
* :mod:`.nfa` -- :func:`trie`, :func:`minimized`, :func:`minimize_acyclic`,
  :func:`nfa_accepts`, :func:`nfa_candidates` (Fig. 7's trie → minimal NFA)
  and :func:`mine_by_labels` (Sec. VI-B's counting on labelled edges);
* :mod:`.gsp` -- :class:`GspMiner`, a generate-and-count miner for gap /
  length constraints.

Product code under ``src/`` never imports this package, and the installed
distribution does not ship it.
"""

from tests.reference.dictionary import OccurrenceBuilder
from tests.reference.gsp import GspMiner
from tests.reference.kernel import InterpretedKernel, accepts
from tests.reference.nfa import (
    mine_by_labels,
    minimize_acyclic,
    minimized,
    nfa_accepts,
    nfa_candidates,
    trie,
)
from tests.reference.pivots import pivots_of_output_sets
from tests.reference.simulation import generates, run_output_sets

__all__ = [
    "GspMiner",
    "InterpretedKernel",
    "OccurrenceBuilder",
    "accepts",
    "generates",
    "mine_by_labels",
    "minimize_acyclic",
    "minimized",
    "nfa_accepts",
    "nfa_candidates",
    "pivots_of_output_sets",
    "run_output_sets",
    "trie",
]
