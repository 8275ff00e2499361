"""Tests for the pattern expression lexer and parser."""

from __future__ import annotations

import pytest

from repro.errors import PatExSyntaxError
from repro.patex import (
    Capture,
    Concatenation,
    ItemExpression,
    PatEx,
    Repetition,
    Union,
    Wildcard,
    parse,
    referenced_items,
)
from repro.patex.lexer import TokenType, tokenize


# ------------------------------------------------------------------------ lexer
class TestLexer:
    def test_simple_items(self):
        tokens = tokenize("A b1 c_d")
        assert [t.type for t in tokens[:-1]] == [TokenType.ITEM] * 3
        assert [t.value for t in tokens[:-1]] == ["A", "b1", "c_d"]

    def test_quoted_item(self):
        tokens = tokenize("'MP3 Players'")
        assert tokens[0].type is TokenType.ITEM
        assert tokens[0].value == "MP3 Players"

    def test_unterminated_quote(self):
        with pytest.raises(PatExSyntaxError):
            tokenize("'oops")

    def test_operators(self):
        tokens = tokenize(".*(A)[b]+c?|d")
        types = [t.type for t in tokens[:-1]]
        assert types == [
            TokenType.DOT,
            TokenType.STAR,
            TokenType.LPAREN,
            TokenType.ITEM,
            TokenType.RPAREN,
            TokenType.LBRACKET,
            TokenType.ITEM,
            TokenType.RBRACKET,
            TokenType.PLUS,
            TokenType.ITEM,
            TokenType.QMARK,
            TokenType.PIPE,
            TokenType.ITEM,
        ]

    def test_caret_and_unicode_arrow(self):
        assert tokenize("a^")[1].type is TokenType.CARET
        assert tokenize("a↑")[1].type is TokenType.CARET

    def test_repeat_forms(self):
        assert tokenize("{3}")[0].value == (3, 3)
        assert tokenize("{2,}")[0].value == (2, None)
        assert tokenize("{1,4}")[0].value == (1, 4)
        assert tokenize("{0, 2}")[0].value == (0, 2)
        assert tokenize("{,5}")[0].value == (0, 5)

    def test_invalid_repeats(self):
        with pytest.raises(PatExSyntaxError):
            tokenize("{}")
        with pytest.raises(PatExSyntaxError):
            tokenize("{a}")
        with pytest.raises(PatExSyntaxError):
            tokenize("{3,1}")
        with pytest.raises(PatExSyntaxError):
            tokenize("{1,2")

    def test_unexpected_character(self):
        with pytest.raises(PatExSyntaxError):
            tokenize("a @ b")

    def test_end_token(self):
        assert tokenize("a")[-1].type is TokenType.END


# ----------------------------------------------------------------------- parser
class TestParser:
    def test_single_item(self):
        node = parse("A")
        assert node == ItemExpression("A")

    def test_item_modifiers(self):
        assert parse("A=") == ItemExpression("A", exact=True)
        assert parse("A^") == ItemExpression("A", generalize=True)
        assert parse("A^=") == ItemExpression("A", exact=True, generalize=True)

    def test_wildcards(self):
        assert parse(".") == Wildcard()
        assert parse(".^") == Wildcard(generalize=True)

    def test_capture(self):
        node = parse("(A)")
        assert isinstance(node, Capture)
        assert node.child == ItemExpression("A")

    def test_concatenation(self):
        node = parse("A b c")
        assert isinstance(node, Concatenation)
        assert len(node.parts) == 3

    def test_adjacent_atoms_concatenate_without_spaces(self):
        node = parse(".*(A)")
        assert isinstance(node, Concatenation)
        assert isinstance(node.parts[0], Repetition)
        assert isinstance(node.parts[1], Capture)

    def test_union(self):
        node = parse("[a|b|c]")
        assert isinstance(node, Union)
        assert len(node.options) == 3

    def test_union_precedence_below_concatenation(self):
        node = parse("a b|c d")
        assert isinstance(node, Union)
        assert all(isinstance(option, Concatenation) for option in node.options)

    def test_repetitions(self):
        assert parse("a*") == Repetition(ItemExpression("a"), 0, None)
        assert parse("a+") == Repetition(ItemExpression("a"), 1, None)
        assert parse("a?") == Repetition(ItemExpression("a"), 0, 1)
        assert parse("a{3}") == Repetition(ItemExpression("a"), 3, 3)
        assert parse("a{2,}") == Repetition(ItemExpression("a"), 2, None)
        assert parse("[a]{1,4}") == Repetition(ItemExpression("a"), 1, 4)

    def test_nested_repetition(self):
        node = parse("[a*]+")
        assert isinstance(node, Repetition)
        assert isinstance(node.child, Repetition)

    def test_grouping_brackets_are_transparent(self):
        assert parse("[a]") == ItemExpression("a")

    def test_running_example_expression(self):
        node = parse(".*(A)[(.^).*]*(b).*")
        assert isinstance(node, Concatenation)
        assert len(node.parts) == 5

    def test_paper_constraint_n1_shape(self):
        node = parse("ENTITY (VERB+ NOUN+? PREP?) ENTITY")
        assert isinstance(node, Concatenation)
        assert isinstance(node.parts[1], Capture)

    def test_paper_constraint_t2_shape(self):
        node = parse("(.)[.{0,1}(.)]{1,4}")
        assert isinstance(node, Concatenation)
        assert isinstance(node.parts[1], Repetition)
        assert node.parts[1].min_count == 1
        assert node.parts[1].max_count == 4

    def test_empty_expression_rejected(self):
        with pytest.raises(PatExSyntaxError):
            parse("")
        with pytest.raises(PatExSyntaxError):
            parse("   ")

    def test_unbalanced_parens(self):
        with pytest.raises(PatExSyntaxError):
            parse("(a")
        with pytest.raises(PatExSyntaxError):
            parse("a)")
        with pytest.raises(PatExSyntaxError):
            parse("[a")

    def test_dangling_operator(self):
        with pytest.raises(PatExSyntaxError):
            parse("*a")
        with pytest.raises(PatExSyntaxError):
            parse("a||b")

    def test_referenced_items(self):
        node = parse("ENTITY (VERB+ NOUN+? PREP?) ENTITY")
        assert referenced_items(node) == {"ENTITY", "VERB", "NOUN", "PREP"}

    def test_str_round_trips_through_parser(self):
        for expression in [
            ".*(A)[(.^).*]*(b).*",
            "(.^){3} NOUN",
            "[a|b] c{2,4}",
            "(A^) [.{0,2}(B)]{1,4}",
        ]:
            node = parse(expression)
            assert parse(str(node)) == node


# ------------------------------------------------------------------------ PatEx
class TestPatEx:
    def test_referenced_items(self):
        patex = PatEx(".*(A)[(.^).*]*(b).*")
        assert patex.referenced_items() == {"A", "b"}

    def test_str(self):
        assert str(PatEx("(A)")) == "(A)"
