"""Tests for the XQuery lexer and parser."""

import pytest

from repro.errors import QuerySyntaxError
from repro.xquery.ast import (
    Arithmetic, BoolOp, Comparison, ContextItem, ElementCtor, FLWOR,
    ForClause, FunctionCall, IfExpr, LetClause, Literal, Path, Quantified,
    Step, Unary, VarRef,
)
from repro.xquery.lexer import Lexer
from repro.xquery.parser import parse_query


def body(text):
    return parse_query(text).body


class TestLexer:
    def test_token_stream(self):
        lexer = Lexer('for $x in /a return $x')
        kinds = []
        while True:
            token = lexer.next()
            if token.kind == "eof":
                break
            kinds.append((token.kind, token.value))
        assert kinds == [
            ("name", "for"), ("variable", "x"), ("name", "in"),
            ("symbol", "/"), ("name", "a"), ("name", "return"), ("variable", "x"),
        ]

    def test_multichar_symbols(self):
        lexer = Lexer("<< := != <= >= //")
        values = [lexer.next().value for _ in range(6)]
        assert values == ["<<", ":=", "!=", "<=", ">=", "//"]

    def test_numbers(self):
        lexer = Lexer("42 3.14")
        assert lexer.next().value == "42"
        assert lexer.next().value == "3.14"

    def test_strings_both_quotes(self):
        lexer = Lexer("\"dquote\" 'squote'")
        assert lexer.next().value == "dquote"
        assert lexer.next().value == "squote"

    def test_comments_skipped(self):
        lexer = Lexer("a (: comment (: not nested :) b")
        assert lexer.next().value == "a"
        assert lexer.next().value == "b"

    def test_qname(self):
        assert Lexer("local:convert").next().value == "local:convert"

    def test_error_position(self):
        with pytest.raises(QuerySyntaxError) as excinfo:
            list_all = Lexer("a\n  #")
            while list_all.next().kind != "eof":
                pass
        assert excinfo.value.line == 2


class TestParserBasics:
    def test_literal(self):
        assert body("42") == Literal(42)
        assert body('"hi"') == Literal("hi")
        assert body("3.5") == Literal(3.5)

    def test_variable(self):
        assert body("$x") == VarRef("x")

    def test_arithmetic_precedence(self):
        node = body("1 + 2 * 3")
        assert isinstance(node, Arithmetic) and node.op == "+"
        assert isinstance(node.right, Arithmetic) and node.right.op == "*"

    def test_div_mod_keywords(self):
        node = body("4 div 2 mod 3")
        assert node.op == "mod"
        assert node.left.op == "div"

    def test_unary_minus(self):
        node = body("-5")
        assert isinstance(node, Unary)

    def test_comparison(self):
        node = body("$a <= $b")
        assert isinstance(node, Comparison) and node.op == "<="

    def test_before_operator(self):
        node = body("$a << $b")
        assert node.op == "<<"

    def test_and_or(self):
        node = body("$a and $b or $c")
        assert isinstance(node, BoolOp) and node.op == "or"
        assert isinstance(node.operands[0], BoolOp)

    def test_if_expr(self):
        node = body("if ($a) then 1 else 2")
        assert isinstance(node, IfExpr)


class TestParserPaths:
    def test_absolute_path(self):
        node = body("/site/people/person")
        assert isinstance(node, Path) and node.root is None
        assert [s.name for s in node.steps] == ["site", "people", "person"]
        assert all(s.axis == "child" for s in node.steps)

    def test_descendant_axis(self):
        node = body("/site//item")
        assert node.steps[1].axis == "descendant"

    def test_attribute_and_text_steps(self):
        node = body("$b/name/text()")
        assert node.steps[-1].axis == "text"
        node = body("$b/@id")
        assert node.steps[-1].axis == "attribute"
        assert node.steps[-1].name == "id"

    def test_predicates(self):
        node = body('/site/people/person[@id = "p0"]')
        predicate = node.steps[-1].predicates[0]
        assert isinstance(predicate, Comparison)
        assert isinstance(predicate.left, Path)
        assert isinstance(predicate.left.root, ContextItem)

    def test_positional_predicate(self):
        node = body("$b/bidder[1]")
        assert node.steps[-1].predicates == [Literal(1)]

    def test_last_predicate(self):
        node = body("$b/bidder[last()]")
        assert isinstance(node.steps[-1].predicates[0], FunctionCall)

    def test_document_function_root(self):
        node = body('document("auction.xml")/site')
        assert isinstance(node.root, FunctionCall)
        assert node.root.name == "document"

    def test_bare_name_in_predicate_is_context_path(self):
        node = body("$p[name]")
        predicate = node.steps[0].predicates[0]
        assert isinstance(predicate, Path)
        assert isinstance(predicate.root, ContextItem)


class TestParserFLWOR:
    def test_for_let_where_return(self):
        node = body("for $a in /x let $b := $a/y where $b > 1 return $b")
        assert isinstance(node, FLWOR)
        assert isinstance(node.clauses[0], ForClause)
        assert isinstance(node.clauses[1], LetClause)
        assert node.where is not None

    def test_multiple_for_vars(self):
        node = body("for $a in /x, $b in /y return 1")
        assert len(node.clauses) == 2

    def test_order_by(self):
        node = body("for $a in /x order by $a/k descending return $a")
        assert node.order[0].descending

    def test_quantified(self):
        node = body("some $a in /x, $b in /y satisfies $a << $b")
        assert isinstance(node, Quantified)
        assert len(node.bindings) == 2

    def test_nested_flwor_in_return(self):
        node = body("for $a in /x return let $b := 1 return $b")
        assert isinstance(node.ret, FLWOR)


class TestParserConstructors:
    def test_empty_constructor(self):
        node = body('<history/>')
        assert isinstance(node, ElementCtor)
        assert node.tag == "history" and not node.content

    def test_text_content(self):
        node = body("<a>hello</a>")
        assert node.content == ["hello"]

    def test_embedded_expression(self):
        node = body("<a>{$x}</a>")
        assert isinstance(node.content[0], VarRef)

    def test_attribute_value_template(self):
        node = body('<a name="{$p/name/text()}" fixed="k"/>')
        assert node.attributes[0].name == "name"
        assert isinstance(node.attributes[0].parts[0], Path)
        assert node.attributes[1].parts == ["k"]

    def test_nested_constructors(self):
        node = body("<a><b>{1}</b><c/></a>")
        assert isinstance(node.content[0], ElementCtor)
        assert isinstance(node.content[1], ElementCtor)

    def test_mismatched_close_raises(self):
        with pytest.raises(QuerySyntaxError):
            body("<a></b>")

    def test_brace_escapes(self):
        node = body("<a>left {{ right }}</a>")
        assert node.content == ["left { right }"]

    def test_references_resolve_at_parse_time(self):
        """Predefined entity and character references become the
        characters they name, in content, attribute literals and strings."""
        node = body('<a b="x&lt;y&#34;">p&amp;q&#x3E;{"1 &lt; 2"}</a>')
        assert node.attributes[0].parts == ['x<y"']
        assert node.content[0] == "p&q>"
        assert node.content[1] == Literal("1 < 2")
        assert body("'a&amp;b&apos;'") == Literal("a&b'")

    @pytest.mark.parametrize("query, column", [
        ('"ok" = "&bogus;"', 8), ("<a>x &nope; y</a>", 4),
        ('<a b="&#xZZ;"/>', 7), ("<a>1 & 2</a>", 4),
    ])
    def test_a_bad_reference_is_a_positioned_syntax_error(self, query, column):
        with pytest.raises(QuerySyntaxError) as excinfo:
            parse_query(query)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)

    def test_duplicate_attribute_is_a_static_error(self):
        """XQST0040: not silently the last value, and never markup with
        the attribute twice."""
        with pytest.raises(QuerySyntaxError, match="XQST0040") as excinfo:
            parse_query('<r><a b="1" c="2" b="{3}"/></r>')
        assert excinfo.value.column == 19


class TestParserFunctions:
    def test_udf_declaration(self):
        query = parse_query(
            "declare function local:double($v) { $v * 2 }; local:double(21)")
        assert "local:double" in query.functions
        assert query.functions["local:double"].params == ["v"]
        assert isinstance(query.body, FunctionCall)

    def test_call_arity(self):
        node = body("contains($a, \"gold\")")
        assert len(node.args) == 2

    @pytest.mark.parametrize("bad", [
        "for $x return 1",          # missing 'in'
        "let $x = 1 return $x",     # '=' instead of ':='
        "for $x in /a",             # missing return
        "1 +",                      # dangling operator
        "<a>",                      # unterminated constructor
        "$x[",                      # unterminated predicate
        "for x in /a return 1",     # missing $
        "1 2",                      # trailing junk
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)
