"""The line between the product and its reference implementations.

``tests/reference/`` holds the executable semantics the product's fast paths
are checked against; product code never imports it, and the names that moved
there no longer resolve from the product.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from repro.fst import MiningKernel
from repro.nfa import OutputNfa, TrieBuilder

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: (product module, name) pairs that moved to ``tests/reference/``.
MOVED = [
    ("repro.sequential", "GspMiner"),
    ("repro.sequential", "gsp"),
    ("repro.fst", "generates"),
    ("repro.fst", "run_output_sets"),
    ("repro.fst.simulation", "generates"),
    ("repro.fst.simulation", "run_output_sets"),
    ("repro.nfa", "minimize_acyclic"),
    ("repro.nfa.nfa", "minimize_acyclic"),
    ("repro.nfa.nfa", "_topological_order"),
    ("repro.core", "pivots_of_output_sets"),
    ("repro.core.pivot_search", "pivots_of_output_sets"),
    ("repro.core", "PositionStateGrid"),
    ("repro.core", "pivot_merge"),
    ("repro.core.pivot_search", "GridEdge"),
    ("repro.core.pivot_search", "PositionStateGrid"),
    ("repro.core.pivot_search", "pivot_merge"),
]

#: (product module, name) pairs deleted outright: D-SEQ's map has one engine,
#: so nothing chooses between engines, and ``pivot_item`` had no caller.
GONE = [
    ("repro.core", "pivot_item"),
    ("repro.core", "partitioning"),
    ("repro.core", "make_grid"),
    ("repro.core", "normalize_grid"),
    ("repro.core", "GRIDS"),
    ("repro.core", "DEFAULT_GRID"),
    ("repro.core.grid_engine", "make_grid"),
    ("repro.core.grid_engine", "_GRID_CLASSES"),
]


def imported_modules(path: Path):
    """Absolute module names ``path`` imports, with their line numbers."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module, node.lineno


class TestProductBoundary:
    def test_no_product_module_imports_tests(self):
        sources = sorted(SRC.rglob("*.py"))
        assert len(sources) > 50
        offending = [
            f"{path.relative_to(SRC.parent)}:{line} imports {module}"
            for path in sources
            for module, line in imported_modules(path)
            if module == "tests" or module.startswith("tests.")
        ]
        assert offending == []

    @pytest.mark.parametrize("module,name", MOVED)
    def test_moved_name_is_gone_from_the_product(self, module, name):
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(module), name)

    @pytest.mark.parametrize("module,name", GONE)
    def test_deleted_name_is_gone_from_the_product(self, module, name):
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(module), name)

    @pytest.mark.parametrize(
        "owner,name",
        [(TrieBuilder, "trie"), (TrieBuilder, "minimized"),
         (OutputNfa, "accepts"), (OutputNfa, "candidates"),
         (MiningKernel, "filtered_outputs")],
    )
    def test_moved_method_is_gone_from_the_product(self, owner, name):
        assert not hasattr(owner, name)

