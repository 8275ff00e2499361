"""High-level handle for a pattern expression.

:class:`PatEx` couples the textual expression with its parsed AST and compiles
it into an FST against a dictionary.  It is the main object applications pass
to the miners.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dictionary import Dictionary
from repro.patex.ast import PatExNode, referenced_items
from repro.patex.parser import parse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fst.fst import Fst


class PatEx:
    """A parsed pattern expression that can be compiled against a dictionary.

    Example::

        patex = PatEx(".*(A)[(.^).*]*(b).*")
        fst = patex.compile(dictionary)
    """

    def __init__(self, expression: str) -> None:
        self.expression = expression
        self._ast = parse(expression)

    @property
    def ast(self) -> PatExNode:
        """The parsed abstract syntax tree."""
        return self._ast

    def referenced_items(self) -> set[str]:
        """All item gids referenced by the expression."""
        return referenced_items(self._ast)

    def compile(self, dictionary: Dictionary) -> "Fst":
        """Compile into an FST over ``dictionary``; every call compiles.

        The FST is cheap next to its mining kernel, which
        :func:`~repro.fst.compiled.make_kernel` interns by content, so two
        compiles against content-equal dictionaries share one warm kernel.
        """
        # Imported lazily to avoid a circular import between patex and fst.
        from repro.fst.compiler import compile_ast

        return compile_ast(self._ast, dictionary)

    def __str__(self) -> str:
        return self.expression

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PatEx({self.expression!r})"
