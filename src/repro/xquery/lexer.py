"""Tokenizer for the XQuery subset.

A hand-written scanner with one twist: element-constructor *content* is not
tokenized — the parser switches the lexer into raw mode and reads character
data directly until the next ``<`` or ``{``.  This mirrors how XQuery's
grammar really interleaves query tokens with XML content.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QuerySyntaxError, XMLSyntaxError
from repro.xmlio.escape import resolve_references

# Multi-character symbols first so maximal munch works.
_SYMBOLS = (
    "<<", ":=", "!=", "<=", ">=", "//",
    "(", ")", "[", "]", "{", "}", ",", ";", "/", "@", "$", "*", "+", "-",
    "=", "<", ">", ".",
)

_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | frozenset("0123456789-.")


@dataclass(frozen=True, slots=True)
class Token:
    kind: str          # "name" | "variable" | "string" | "number" | "symbol" | "eof"
    value: str
    line: int
    column: int

    def is_symbol(self, value: str) -> bool:
        return self.kind == "symbol" and self.value == value

    def is_name(self, value: str | None = None) -> bool:
        return self.kind == "name" and (value is None or self.value == value)


class Lexer:
    """Streaming tokenizer with lookahead and a raw-content mode."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.position = 0
        self._peeked: Token | None = None

    # -- positions ---------------------------------------------------------------

    def _location(self, offset: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, offset) + 1
        last = self.text.rfind("\n", 0, offset)
        return line, offset - last

    def error(self, message: str, offset: int | None = None) -> QuerySyntaxError:
        line, column = self._location(self.position if offset is None else offset)
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

    def _skip_space(self) -> None:
        text = self.text
        while self.position < len(text):
            char = text[self.position]
            if char in " \t\r\n":
                self.position += 1
            elif text.startswith("(:", self.position):
                end = text.find(":)", self.position + 2)
                if end < 0:
                    raise self.error("unterminated comment '(:'")
                self.position = end + 2
            else:
                return

    def _scan(self) -> Token:
        self._skip_space()
        text = self.text
        if self.position >= len(text):
            line, column = self._location(self.position)
            return Token("eof", "", line, column)
        start = self.position
        line, column = self._location(start)
        char = text[start]

        if char == "$":
            self.position += 1
            name = self._read_name("variable name")
            return Token("variable", name, line, column)
        if char in "\"'":
            end = text.find(char, start + 1)
            if end < 0:
                raise self.error("unterminated string literal", start)
            self.position = end + 1
            return Token("string", self.resolve(text[start + 1 : end], start),
                         line, column)
        if char.isdigit():
            end = start
            seen_dot = False
            while end < len(text) and (text[end].isdigit() or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    # "1." followed by a name char is a path step, not a float.
                    if end + 1 >= len(text) or not text[end + 1].isdigit():
                        break
                    seen_dot = True
                end += 1
            self.position = end
            return Token("number", text[start:end], line, column)
        if char in _NAME_START:
            name = self._read_name("name")
            return Token("name", name, line, column)
        for symbol in _SYMBOLS:
            if text.startswith(symbol, start):
                self.position = start + len(symbol)
                return Token("symbol", symbol, line, column)
        raise self.error(f"unexpected character {char!r}", start)

    def _read_name(self, what: str) -> str:
        text = self.text
        start = self.position
        if start >= len(text) or text[start] not in _NAME_START:
            raise self.error(f"expected a {what}")
        end = start + 1
        while end < len(text) and text[end] in _NAME_CHARS:
            end += 1
        # QName with one colon (local:convert).
        if end < len(text) and text[end] == ":" and end + 1 < len(text) and text[end + 1] in _NAME_START:
            end += 2
            while end < len(text) and text[end] in _NAME_CHARS:
                end += 1
        self.position = end
        return text[start:end]

    # -- raw constructor-content mode ----------------------------------------------

    def read_constructor_text(self) -> str:
        """Raw character data inside an element constructor, up to '<' or '{'.

        Doubled ``{{``/``}}`` escape to literal braces; references resolve.
        """
        if self._peeked is not None:
            # Rewind the lookahead: content must be read from its raw start.
            self.position = _token_offset(self)
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
        offset = _token_offset(self) if self._peeked is not None else self.position
        return self.text.startswith(prefix, offset)

    def consume_raw(self, prefix: str) -> None:
        offset = _token_offset(self) if self._peeked is not None else self.position
        if not self.text.startswith(prefix, offset):
            raise self.error(f"expected {prefix!r}", offset)
        self._peeked = None
        self.position = offset + len(prefix)


def _token_offset(lexer: Lexer) -> int:
    """Byte offset where the peeked token began."""
    token = lexer._peeked
    assert token is not None
    # Recompute: find the offset of (line, column).
    if token.line == 1:
        base = 0
    else:
        base = 0
        for _ in range(token.line - 1):
            base = lexer.text.find("\n", base) + 1
    return base + token.column - 1
