"""Tokenizer for the XQuery subset, and the shape of a query text.

The scanner matches one compiled master regular expression per token.
Element-constructor *content* is not tokenized: the parser switches the
lexer into raw mode and reads character data directly until the next
``<`` or ``{``, which mirrors how XQuery's grammar really interleaves
query tokens with XML content.  Line and column are computed only when
something asks for them — an error, in practice.

:func:`scan_shape` is the lexer's other face: one pass that lifts every
string and numeric literal token into a numbered, typed *slot*.  Two texts
with the same shape differ only in those literals, so a plan compiled for
one serves the other with its own values bound (see :mod:`repro.cache`).
"""

from __future__ import annotations

import re

from repro.errors import QuerySyntaxError, XMLSyntaxError
from repro.xmlio.escape import resolve_references

_NAME = r"[A-Za-z_][A-Za-z0-9_.\-]*"
_STRING = r""""[^"]*(?:""[^"]*)*"|'[^']*(?:''[^']*)*'"""
_NUMBER = r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"

#: One token (or a run of space and comments) at a position; the
#: ``comment`` / ``dollar`` alternatives only match what is an error.
_TOKEN = re.compile(rf"""
    (?P<space>(?:[ \t\r\n]+|\(:.*?:\))+)
  | (?P<comment>\(:)
  | (?P<variable>\${_NAME}(?::{_NAME})?)
  | (?P<dollar>\$)
  | (?P<string>{_STRING})
  | (?P<number>{_NUMBER})
  | (?P<name>{_NAME}(?::{_NAME})?)
  | (?P<symbol><<|:=|!=|<=|>=|//|[()\[\]{{}},;/@*+\-=<>.])
""", re.X | re.S)

#: What a shape scan stops at: literals, and the names and comments whose
#: digits and quotes are not literals.  Symbols and space sit in between.
_SHAPE = re.compile(rf"(?P<string>{_STRING})|(?P<number>{_NUMBER})"
                    rf"|\(:.*?:\)|{_NAME}", re.S)


def location(text: str, offset: int) -> tuple[int, int]:
    """``(line, column)`` of an offset, both 1-based."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class Token:
    """One token; ``slot`` is the shape slot a literal token fills."""

    __slots__ = ("kind", "value", "offset", "text", "slot")

    def __init__(self, kind: str, value: str, offset: int, text: str,
                 slot: int | None = None) -> None:
        self.kind = kind        # "name" | "variable" | "string" | "number" | "symbol" | "eof"
        self.value = value
        self.offset = offset
        self.text = text
        self.slot = slot

    @property
    def line(self) -> int:
        return location(self.text, self.offset)[0]

    @property
    def column(self) -> int:
        return location(self.text, self.offset)[1]

    def is_symbol(self, value: str) -> bool:
        return self.kind == "symbol" and self.value == value

    def is_name(self, value: str | None = None) -> bool:
        return self.kind == "name" and (value is None or self.value == value)

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.value!r}, {self.offset})"


def string_value(raw: str) -> str:
    """A string literal token's value, quotes off and doubled quotes
    (XQuery 1.0's escape) undone; references are resolved by the caller."""
    quote = raw[0]
    return raw[1:-1].replace(quote + quote, quote)


def number_value(raw: str) -> int | float:
    """An integer literal is an int; a decimal or a double is a float."""
    return int(raw) if raw.isdigit() else float(raw)


class Shape:
    """A query text with its literals lifted into slots.

    ``key`` is the text with every string and numeric literal replaced by
    a marker of its type — equal keys mean texts that differ in literal
    values only.  ``values`` holds the literals, in slot order, as the
    parser would read them, and ``raws`` as they are written (two
    spellings of one value are one value, but not one constructor text);
    ``spans`` maps a literal's offset to ``(slot, end)``, so the parser
    can tell which tokens are slots.  A text with a literal that does not
    read (a bad reference) has no slots: its key is the text, and the
    parser reports the literal where it occurs."""

    __slots__ = ("key", "values", "raws", "spans")

    def __init__(self, key: tuple, values: tuple = (), raws: tuple = (),
                 spans: dict | None = None) -> None:
        self.key = key
        self.values = values
        self.raws = raws
        self.spans = spans or {}


def scan_shape(text: str) -> Shape:
    """A text's :class:`Shape`, in one pass over it."""
    parts: list = []
    values: list = []
    raws: list = []
    spans: dict[int, tuple[int, int]] = {}
    last = 0
    for match in _SHAPE.finditer(text):
        kind = match.lastgroup
        if kind is None:
            continue                    # a name or a comment
        start, end = match.span()
        raw = match.group()
        spans[start] = (len(values), end)
        raws.append(raw)
        parts.append(text[last:start])
        if kind == "string":
            parts.append("s")
            try:
                values.append(resolve_references(string_value(raw)))
            except XMLSyntaxError:
                return Shape((text,))
        else:
            value = number_value(raw)
            parts.append("i" if type(value) is int else "f")
            values.append(value)
        last = end
    parts.append(text[last:])
    return Shape(tuple(parts), tuple(values), tuple(raws), spans)


class Lexer:
    """Streaming tokenizer with lookahead and a raw-content mode.

    ``spans`` (a :class:`Shape`'s) numbers the literal tokens that are
    shape slots."""

    def __init__(self, text: str, spans: dict | None = None) -> None:
        self.text = text
        self.position = 0
        self.spans = spans or {}
        self._peeked: Token | None = None

    # -- positions ---------------------------------------------------------------

    def error(self, message: str, offset: int | None = None) -> QuerySyntaxError:
        line, column = location(self.text,
                                self.position if offset is None else offset)
        return QuerySyntaxError(message, line, column)

    def resolve(self, literal: str, offset: int) -> str:
        """``literal`` (read from ``offset``) with its predefined entity and
        character references replaced, so the serialiser escapes the
        characters once; a bad reference is a syntax error there."""
        try:
            return resolve_references(literal)
        except XMLSyntaxError as exc:
            raise self.error(str(exc), offset) from None

    # -- token stream ---------------------------------------------------------------

    def peek(self) -> Token:
        if self._peeked is None:
            self._peeked = self._scan()
        return self._peeked

    def next(self) -> Token:
        token = self.peek()
        self._peeked = None
        return token

    def _scan(self) -> Token:
        text = self.text
        match = _TOKEN.match(text, self.position)
        if match is not None and match.lastgroup == "space":
            self.position = match.end()
            match = _TOKEN.match(text, self.position)
        start = self.position
        if match is None:
            if start >= len(text):
                return Token("eof", "", start, text)
            if text[start] in "\"'":
                raise self.error("unterminated string literal", start)
            raise self.error(f"unexpected character {text[start]!r}", start)
        kind, end = match.lastgroup, match.end()
        if kind == "comment":
            raise self.error("unterminated comment '(:'", start)
        if kind == "dollar":
            raise self.error("expected a variable name", start + 1)
        self.position = end
        raw = match.group()
        if kind == "variable":
            return Token(kind, raw[1:], start, text)
        if kind == "string" or kind == "number":
            slot = self.spans.get(start)
            slot = slot[0] if slot is not None and slot[1] == end else None
            value = self.resolve(string_value(raw), start) if kind == "string" else raw
            return Token(kind, value, start, text, slot)
        return Token(kind, raw, start, text)

    # -- raw constructor-content mode ----------------------------------------------

    def _raw_offset(self) -> int:
        """Where raw reading resumes: a peeked token is read again as raw."""
        return self._peeked.offset if self._peeked is not None else self.position

    def read_constructor_text(self) -> str:
        """Raw character data inside an element constructor, up to '<' or '{'.

        Doubled ``{{``/``}}`` escape to literal braces; references resolve.
        """
        self.position = self._raw_offset()
        self._peeked = None
        text, start = self.text, self.position
        parts: list[str] = []
        while self.position < len(text):
            char = text[self.position]
            if char == "<" or char == "{":
                if char == "{" and text.startswith("{{", self.position):
                    parts.append("{")
                    self.position += 2
                    continue
                break
            if char == "}":
                if text.startswith("}}", self.position):
                    parts.append("}")
                    self.position += 2
                    continue
                raise self.error("unescaped '}' in constructor content")
            parts.append(char)
            self.position += 1
        return self.resolve("".join(parts), start)

    def at_raw(self, prefix: str) -> bool:
        """Does the raw input (ignoring the token lookahead) start with prefix?"""
        return self.text.startswith(prefix, self._raw_offset())

    def consume_raw(self, prefix: str) -> None:
        offset = self._raw_offset()
        if not self.text.startswith(prefix, offset):
            raise self.error(f"expected {prefix!r}", offset)
        self._peeked = None
        self.position = offset + len(prefix)
