"""Abstract syntax tree for the XQuery subset."""

from __future__ import annotations

from dataclasses import dataclass, field


class Expr:
    """Base class for all expression nodes."""

    __slots__ = ()


@dataclass(slots=True)
class Literal(Expr):
    """String or numeric literal.

    ``slot`` is the literal's slot in its text's shape: a compiled plan
    reads a slotted literal's value from the execution's bindings
    (:func:`bound_value`), never from ``value``, which is the text it was
    compiled from.  None: a literal outside every slot, a constant."""

    value: str | float | int
    slot: int | None = field(default=None, compare=False)


@dataclass(slots=True)
class VarRef(Expr):
    """``$name``."""

    name: str


@dataclass(slots=True)
class ContextItem(Expr):
    """``.`` — the current context node inside a predicate."""


@dataclass(slots=True)
class Step:
    """One path step: an axis, a node test and optional predicates."""

    axis: str                      # "child" | "descendant" | "attribute" | "text"
    name: str | None               # element/attribute name; None for text()
    predicates: list[Expr] = field(default_factory=list)


@dataclass(slots=True)
class Path(Expr):
    """A path expression: a root expression followed by steps.

    ``root`` is None for absolute paths (``/site/...`` — the benchmark's
    single-document convention, Section 5) or any primary expression
    (variable, function call) for relative ones.
    """

    root: Expr | None
    steps: list[Step]


@dataclass(slots=True)
class Comparison(Expr):
    """General comparison or document-order comparison (``<<``)."""

    op: str                        # = != < <= > >= <<
    left: Expr
    right: Expr


@dataclass(slots=True)
class Arithmetic(Expr):
    op: str                        # + - * div mod
    left: Expr
    right: Expr


@dataclass(slots=True)
class Unary(Expr):
    operand: Expr


@dataclass(slots=True)
class BoolOp(Expr):
    """``and`` / ``or`` over two or more operands."""

    op: str                        # "and" | "or"
    operands: list[Expr]


@dataclass(slots=True)
class FunctionCall(Expr):
    name: str
    args: list[Expr]


@dataclass(slots=True)
class ForClause:
    var: str
    sequence: Expr


@dataclass(slots=True)
class LetClause:
    var: str
    expr: Expr


@dataclass(slots=True)
class OrderSpec:
    key: Expr
    descending: bool = False


@dataclass(slots=True)
class FLWOR(Expr):
    clauses: list[ForClause | LetClause]
    where: Expr | None
    order: list[OrderSpec]
    ret: Expr


@dataclass(slots=True)
class Quantified(Expr):
    """``some $x in E, $y in F satisfies P`` (``every`` also supported)."""

    kind: str                      # "some" | "every"
    bindings: list[ForClause]
    satisfies: Expr


@dataclass(slots=True)
class IfExpr(Expr):
    condition: Expr
    then: Expr
    orelse: Expr


@dataclass(slots=True)
class AttributeCtor:
    """Constructor attribute: literal parts interleaved with expressions."""

    name: str
    parts: list[str | Expr]


@dataclass(slots=True)
class ElementCtor(Expr):
    """Direct element constructor with attribute-value templates."""

    tag: str
    attributes: list[AttributeCtor]
    content: list[str | Expr]


@dataclass(slots=True)
class FunctionDecl:
    """``declare function local:name($a, $b) { body }``."""

    name: str
    params: list[str]
    body: Expr


@dataclass(slots=True)
class Query:
    """A complete query: UDF declarations plus the body expression."""

    functions: dict[str, FunctionDecl]
    body: Expr


def is_absolute(path: Path) -> bool:
    """Whether a path starts at the document: ``/...`` or, under the
    benchmark's single-document convention, ``document(...)/...``."""
    root = path.root
    return root is None or (isinstance(root, FunctionCall)
                            and root.name in ("document", "doc"))


def bound_value(literal: Literal, values: tuple):
    """A literal's value in one execution's bindings."""
    return literal.value if literal.slot is None else values[literal.slot]


def walk(node) -> list:
    """All AST nodes in the subtree (pre-order), for analysis passes."""
    out: list = []
    stack = [node]
    while stack:
        current = stack.pop()
        out.append(current)
        if isinstance(current, Query):
            stack.append(current.body)
            stack.extend(f.body for f in current.functions.values())
        elif isinstance(current, FLWOR):
            for clause in current.clauses:
                stack.append(clause.sequence if isinstance(clause, ForClause) else clause.expr)
            if current.where is not None:
                stack.append(current.where)
            stack.extend(spec.key for spec in current.order)
            stack.append(current.ret)
        elif isinstance(current, Path):
            if current.root is not None:
                stack.append(current.root)
            for step in current.steps:
                stack.extend(step.predicates)
        elif isinstance(current, Comparison):
            stack.extend((current.left, current.right))
        elif isinstance(current, Arithmetic):
            stack.extend((current.left, current.right))
        elif isinstance(current, Unary):
            stack.append(current.operand)
        elif isinstance(current, BoolOp):
            stack.extend(current.operands)
        elif isinstance(current, FunctionCall):
            stack.extend(current.args)
        elif isinstance(current, Quantified):
            stack.extend(binding.sequence for binding in current.bindings)
            stack.append(current.satisfies)
        elif isinstance(current, IfExpr):
            stack.extend((current.condition, current.then, current.orelse))
        elif isinstance(current, ElementCtor):
            for attribute in current.attributes:
                stack.extend(p for p in attribute.parts if isinstance(p, Expr))
            stack.extend(p for p in current.content if isinstance(p, Expr))
    return out
