"""Recursive-descent parser for the XQuery subset."""

from __future__ import annotations

from repro.errors import QueryError, QuerySyntaxError
from repro.xquery.ast import (
    Arithmetic, AttributeCtor, BoolOp, Comparison, ContextItem, ElementCtor,
    Expr, FLWOR, ForClause, FunctionCall, FunctionDecl, IfExpr, LetClause,
    Literal, OrderSpec, Path, Quantified, Query, Step, Unary, VarRef,
)
from repro.xquery.lexer import Lexer, Token, number_value

_KEYWORDS_STOPPING_PATH = frozenset((
    "return", "where", "order", "in", "satisfies", "then", "else",
    "and", "or", "div", "mod", "let", "for", "some", "every",
    "ascending", "descending", "by", "to",
))

_COMPARISON_OPS = ("=", "!=", "<=", ">=", "<", ">", "<<")


def parse_query(text: str, spans: dict | None = None) -> Query:
    """Parse a complete query (declarations + body).  With a shape's
    ``spans`` (:func:`repro.xquery.lexer.scan_shape`), every literal that
    is one of its slots carries the slot's number."""
    parser = _Parser(Lexer(text, spans))
    query = parser.parse_query()
    trailing = parser.lexer.peek()
    if trailing.kind != "eof":
        raise QuerySyntaxError(
            f"unexpected trailing input {trailing.value!r}", trailing.line, trailing.column
        )
    return query


class _Parser:
    def __init__(self, lexer: Lexer) -> None:
        self.lexer = lexer

    # -- helpers --------------------------------------------------------------

    def _expect_symbol(self, value: str) -> Token:
        token = self.lexer.next()
        if not token.is_symbol(value):
            raise QuerySyntaxError(
                f"expected {value!r}, got {token.value!r}", token.line, token.column
            )
        return token

    def _expect_name(self, value: str | None = None) -> Token:
        token = self.lexer.next()
        if token.kind != "name" or (value is not None and token.value != value):
            expected = value or "a name"
            raise QuerySyntaxError(
                f"expected {expected}, got {token.value!r}", token.line, token.column
            )
        return token

    def _expect_variable(self) -> str:
        token = self.lexer.next()
        if token.kind != "variable":
            raise QuerySyntaxError(
                f"expected a variable, got {token.value!r}", token.line, token.column
            )
        return token.value

    # -- entry points ------------------------------------------------------------

    def parse_query(self) -> Query:
        functions: dict[str, FunctionDecl] = {}
        while self.lexer.peek().is_name("declare"):
            decl = self._parse_function_decl()
            if decl.name in functions:  # no overloading: the name is the key
                raise QueryError(f"duplicate declaration of function {decl.name}()")
            functions[decl.name] = decl
        body = self.parse_expr()
        return Query(functions, body)

    def _parse_function_decl(self) -> FunctionDecl:
        self._expect_name("declare")
        self._expect_name("function")
        name = self._expect_name().value
        self._expect_symbol("(")
        params: list[str] = []
        if not self.lexer.peek().is_symbol(")"):
            params.append(self._expect_variable())
            while self.lexer.peek().is_symbol(","):
                self.lexer.next()
                params.append(self._expect_variable())
        self._expect_symbol(")")
        self._expect_symbol("{")
        body = self.parse_expr()
        self._expect_symbol("}")
        if self.lexer.peek().is_symbol(";"):
            self.lexer.next()
        return FunctionDecl(name, params, body)

    # -- expression grammar ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        token = self.lexer.peek()
        if token.is_name("for") or token.is_name("let"):
            return self._parse_flwor()
        if token.is_name("some") or token.is_name("every"):
            return self._parse_quantified()
        if token.is_name("if"):
            return self._parse_if()
        return self._parse_or()

    def _parse_flwor(self) -> FLWOR:
        clauses: list[ForClause | LetClause] = []
        while True:
            token = self.lexer.peek()
            if token.is_name("for"):
                self.lexer.next()
                while True:
                    var = self._expect_variable()
                    self._expect_name("in")
                    clauses.append(ForClause(var, self.parse_expr()))
                    if self.lexer.peek().is_symbol(","):
                        self.lexer.next()
                        continue
                    break
            elif token.is_name("let"):
                self.lexer.next()
                while True:
                    var = self._expect_variable()
                    self._expect_symbol(":=")
                    clauses.append(LetClause(var, self.parse_expr()))
                    if self.lexer.peek().is_symbol(","):
                        self.lexer.next()
                        continue
                    break
            else:
                break
        where = None
        if self.lexer.peek().is_name("where"):
            self.lexer.next()
            where = self.parse_expr()
        order: list[OrderSpec] = []
        if self.lexer.peek().is_name("order"):
            self.lexer.next()
            self._expect_name("by")
            while True:
                key = self.parse_expr()
                descending = False
                if self.lexer.peek().is_name("descending"):
                    self.lexer.next()
                    descending = True
                elif self.lexer.peek().is_name("ascending"):
                    self.lexer.next()
                order.append(OrderSpec(key, descending))
                if self.lexer.peek().is_symbol(","):
                    self.lexer.next()
                    continue
                break
        self._expect_name("return")
        ret = self.parse_expr()
        return FLWOR(clauses, where, order, ret)

    def _parse_quantified(self) -> Quantified:
        kind = self.lexer.next().value
        bindings: list[ForClause] = []
        while True:
            var = self._expect_variable()
            self._expect_name("in")
            bindings.append(ForClause(var, self.parse_expr()))
            if self.lexer.peek().is_symbol(","):
                self.lexer.next()
                continue
            break
        self._expect_name("satisfies")
        return Quantified(kind, bindings, self.parse_expr())

    def _parse_if(self) -> IfExpr:
        self._expect_name("if")
        self._expect_symbol("(")
        condition = self.parse_expr()
        self._expect_symbol(")")
        self._expect_name("then")
        then = self.parse_expr()
        self._expect_name("else")
        orelse = self.parse_expr()
        return IfExpr(condition, then, orelse)

    def _parse_or(self) -> Expr:
        operands = [self._parse_and()]
        while self.lexer.peek().is_name("or"):
            self.lexer.next()
            operands.append(self._parse_and())
        return operands[0] if len(operands) == 1 else BoolOp("or", operands)

    def _parse_and(self) -> Expr:
        operands = [self._parse_comparison()]
        while self.lexer.peek().is_name("and"):
            self.lexer.next()
            operands.append(self._parse_comparison())
        return operands[0] if len(operands) == 1 else BoolOp("and", operands)

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        token = self.lexer.peek()
        if token.kind == "symbol" and token.value in _COMPARISON_OPS:
            self.lexer.next()
            right = self._parse_additive()
            return Comparison(token.value, left, right)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self.lexer.peek()
            if token.is_symbol("+") or token.is_symbol("-"):
                self.lexer.next()
                left = Arithmetic(token.value, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self.lexer.peek()
            if token.is_symbol("*") or token.is_name("div") or token.is_name("mod"):
                self.lexer.next()
                op = "*" if token.value == "*" else token.value
                left = Arithmetic(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self.lexer.peek().is_symbol("-"):
            self.lexer.next()
            return Unary(self._parse_unary())
        return self._parse_path()

    # -- paths -----------------------------------------------------------------------

    def _parse_path(self) -> Expr:
        token = self.lexer.peek()
        if token.is_symbol("/") or token.is_symbol("//"):
            self.lexer.next()
            steps = [self._parse_step(descendant=token.value == "//")]
            return self._parse_step_tail(Path(None, steps))
        primary = self._parse_primary()
        return self._parse_step_tail_from_primary(primary)

    def _parse_step_tail_from_primary(self, primary: Expr) -> Expr:
        token = self.lexer.peek()
        if token.is_symbol("/") or token.is_symbol("//"):
            path = Path(primary, [])
            return self._parse_step_tail(path)
        return primary

    def _parse_step_tail(self, path: Path) -> Path:
        while True:
            token = self.lexer.peek()
            if token.is_symbol("/"):
                self.lexer.next()
                path.steps.append(self._parse_step(descendant=False))
            elif token.is_symbol("//"):
                self.lexer.next()
                path.steps.append(self._parse_step(descendant=True))
            else:
                return path

    def _parse_step(self, descendant: bool) -> Step:
        token = self.lexer.next()
        if token.is_symbol("@"):
            name = self._expect_name().value
            step = Step("attribute", name)
        elif token.kind == "name":
            if token.value == "text" and self.lexer.peek().is_symbol("("):
                self.lexer.next()
                self._expect_symbol(")")
                step = Step("text", None)
            else:
                step = Step("child", token.value)
        elif token.is_symbol("*"):
            step = Step("child", None)
        else:
            raise QuerySyntaxError(
                f"expected a step, got {token.value!r}", token.line, token.column
            )
        if descendant:
            step.axis = {"child": "descendant", "attribute": "attribute",
                         "text": "text"}[step.axis]
            if step.axis == "attribute" or step.axis == "text":
                raise QuerySyntaxError(
                    "'//' must be followed by an element test", token.line, token.column
                )
        while self.lexer.peek().is_symbol("["):
            self.lexer.next()
            step.predicates.append(self.parse_expr())
            self._expect_symbol("]")
        return step

    # -- primaries ----------------------------------------------------------------------

    def _parse_primary(self) -> Expr:
        token = self.lexer.peek()
        if token.kind == "variable":
            self.lexer.next()
            return self._with_primary_predicates(VarRef(token.value))
        if token.kind == "string":
            self.lexer.next()
            return Literal(token.value, token.slot)
        if token.kind == "number":
            self.lexer.next()
            return Literal(number_value(token.value), token.slot)
        if token.is_symbol("("):
            self.lexer.next()
            inner = self.parse_expr()
            self._expect_symbol(")")
            return self._with_primary_predicates(inner)
        if token.is_symbol("<"):
            return self._parse_constructor()
        if token.is_symbol("."):
            self.lexer.next()
            return ContextItem()
        if token.is_symbol("@"):
            # Context-relative attribute step: [@income >= 1000].
            self.lexer.next()
            name = self._expect_name().value
            return Path(ContextItem(), [Step("attribute", name)])
        if token.kind == "name":
            self.lexer.next()
            if self.lexer.peek().is_symbol("("):
                if token.value == "text":
                    self.lexer.next()
                    self._expect_symbol(")")
                    return Path(ContextItem(), [Step("text", None)])
                return self._parse_function_call(token.value)
            # Context-relative child step (bare name inside a predicate).
            step = Step("child", token.value)
            while self.lexer.peek().is_symbol("["):
                self.lexer.next()
                step.predicates.append(self.parse_expr())
                self._expect_symbol("]")
            return Path(ContextItem(), [step])
        raise QuerySyntaxError(
            f"unexpected token {token.value!r}", token.line, token.column
        )

    def _with_primary_predicates(self, expr: Expr) -> Expr:
        """Allow predicates straight after a primary: ``$x[1]``, ``(...)[2]``."""
        if not self.lexer.peek().is_symbol("["):
            return expr
        path = Path(expr, [])
        # Model as a path with a single self-ish step carrying predicates:
        step = Step("self", None)
        while self.lexer.peek().is_symbol("["):
            self.lexer.next()
            step.predicates.append(self.parse_expr())
            self._expect_symbol("]")
        path.steps.append(step)
        return path

    def _parse_function_call(self, name: str) -> Expr:
        self._expect_symbol("(")
        args: list[Expr] = []
        if not self.lexer.peek().is_symbol(")"):
            args.append(self.parse_expr())
            while self.lexer.peek().is_symbol(","):
                self.lexer.next()
                args.append(self.parse_expr())
        self._expect_symbol(")")
        call = FunctionCall(name, args)
        # document("auction.xml")/site/... — steps may follow a call.
        return call

    # -- element constructors --------------------------------------------------------------

    def _parse_constructor(self) -> ElementCtor:
        self.lexer.consume_raw("<")
        tag = self._raw_name()
        attributes: list[AttributeCtor] = []
        while True:
            self._raw_skip_space()
            if self.lexer.at_raw("/>"):
                self.lexer.consume_raw("/>")
                return ElementCtor(tag, attributes, [])
            if self.lexer.at_raw(">"):
                self.lexer.consume_raw(">")
                break
            offset = self._raw_offset()
            attribute = self._parse_ctor_attribute()
            if any(attribute.name == seen.name for seen in attributes):
                raise self.lexer.error(
                    f"duplicate attribute {attribute.name!r} in constructor "
                    f"<{tag}> (XQST0040)", offset)
            attributes.append(attribute)
        content: list[str | Expr] = []
        while True:
            text = self.lexer.read_constructor_text()
            if text:
                content.append(text)
            if self.lexer.at_raw("</"):
                self.lexer.consume_raw("</")
                closing = self._raw_name()
                if closing != tag:
                    raise self.lexer.error(
                        f"constructor mismatch: <{tag}> closed by </{closing}>"
                    )
                self._raw_skip_space()
                self.lexer.consume_raw(">")
                return ElementCtor(tag, attributes, content)
            if self.lexer.at_raw("<"):
                content.append(self._parse_constructor())
                continue
            if self.lexer.at_raw("{"):
                self.lexer.consume_raw("{")
                content.append(self.parse_expr())
                self._expect_symbol("}")
                continue
            raise self.lexer.error(f"unterminated constructor <{tag}>")

    def _parse_ctor_attribute(self) -> AttributeCtor:
        name = self._raw_name()
        self._raw_skip_space()
        self.lexer.consume_raw("=")
        self._raw_skip_space()
        quote = '"' if self.lexer.at_raw('"') else "'"
        self.lexer.consume_raw(quote)
        parts: list[str | Expr] = []
        buffer: list[str] = []
        start = self._raw_offset()

        def flush() -> None:
            if buffer:
                parts.append(self.lexer.resolve("".join(buffer), start))
                buffer.clear()

        while True:
            if self.lexer.at_raw(quote):
                flush()
                self.lexer.consume_raw(quote)
                break
            if self.lexer.at_raw("{"):
                flush()
                self.lexer.consume_raw("{")
                parts.append(self.parse_expr())
                self._expect_symbol("}")
                start = self._raw_offset()
                continue
            buffer.append(self._raw_char())
        return AttributeCtor(name, parts)

    # -- raw-mode helpers -----------------------------------------------------------

    def _raw_skip_space(self) -> None:
        while any(self.lexer.at_raw(c) for c in (" ", "\t", "\r", "\n")):
            self.lexer.consume_raw(self.lexer.text[self._raw_offset()])

    def _raw_offset(self) -> int:
        # at_raw/consume_raw clear the lookahead, so position is authoritative.
        return self.lexer.position

    def _raw_char(self) -> str:
        offset = self._raw_offset()
        if offset >= len(self.lexer.text):
            raise self.lexer.error("unexpected end of input in constructor")
        char = self.lexer.text[offset]
        self.lexer.position = offset + 1
        return char

    def _raw_name(self) -> str:
        self._raw_skip_space()
        offset = self._raw_offset()
        text = self.lexer.text
        end = offset
        while end < len(text) and (text[end].isalnum() or text[end] in "_-."):
            end += 1
        if end == offset:
            raise self.lexer.error("expected a name in constructor")
        self.lexer.position = end
        return text[offset:end]
