"""Reference implementations the product's fast paths are checked against.

Each one encodes a piece of the paper's semantics the simple way and shares
no table, memo or shortcut with the product code it checks:

* :mod:`.dictionary` -- :class:`OccurrenceBuilder` (the f-list's document
  frequencies with a hierarchy walk per item occurrence, Fig. 2c);
* :mod:`.kernel` -- :class:`InterpretedKernel` (labels asked on every probe),
  :func:`accepts` (``R(T)`` non-empty) and :func:`filtered_outputs`
  (``out_δ(item)`` without infrequent items);
* :mod:`.grid` -- :func:`pivot_merge` (the set-based ⊕),
  :class:`PositionStateGrid` (the position–state grid of Fig. 5b, one
  :class:`GridEdge` per live edge) and :class:`ReferenceGridJob` (D-SEQ's
  job with its map reading that grid);
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
from tests.reference.grid import GridEdge, PositionStateGrid, ReferenceGridJob, pivot_merge
from tests.reference.gsp import GspMiner
from tests.reference.kernel import InterpretedKernel, accepts, filtered_outputs
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
    "GridEdge",
    "GspMiner",
    "InterpretedKernel",
    "OccurrenceBuilder",
    "PositionStateGrid",
    "ReferenceGridJob",
    "accepts",
    "filtered_outputs",
    "generates",
    "mine_by_labels",
    "minimize_acyclic",
    "minimized",
    "nfa_accepts",
    "nfa_candidates",
    "pivot_merge",
    "pivots_of_output_sets",
    "run_output_sets",
    "trie",
]
