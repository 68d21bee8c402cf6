"""From-scratch streaming XML tokenizer and the parsers built on it.

:func:`tokens` is the one tokenizer: a single module-level regex, applied
with ``finditer`` over the whole buffer, yields plain ``(kind, name_or_text,
attributes)`` tuples.  :func:`iterparse` wraps those tuples into
:class:`~repro.xmlio.events.Event` objects; :func:`parse` builds a DOM;
:func:`scan` consumes tokens without materialising anything — the role
played by expat's bare tokenization pass in the paper's Table 1 discussion.
The bulkloading stores consume :func:`tokens` directly.

The tokenizer enforces well-formedness for the supported subset: matching
tags, a single root element, unique attributes, no markup outside the root
other than comments/PIs/DOCTYPE, resolved entity references.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterator
from functools import partial

from repro.errors import XMLSyntaxError
from repro.xmlio.dom import Document, Element
from repro.xmlio.escape import resolve_references
from repro.xmlio.events import Characters, EndElement, Event, StartElement

#: Token kinds, the first member of every tuple :func:`tokens` yields.
START, END, TEXT = 0, 1, 2

Token = tuple[int, str, "tuple[tuple[str, str], ...] | None"]

_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_SPACE = r"[ \t\r\n]"
_ATTRIBUTE = re.compile(
    rf"""({_NAME}){_SPACE}*={_SPACE}*(?:"([^<"]*)"|'([^<']*)')""")
_ATTRIBUTES = rf"""(?:{_SPACE}++{_NAME}{_SPACE}*+={_SPACE}*+(?:"[^<"]*+"|'[^<']*+'))*+"""

# One alternative per construct, most frequent first.  Every character
# belongs to some alternative — a text run takes anything but "<", and the
# last alternative takes a "<" that opens no well-formed construct — so
# consecutive matches tile the buffer, and that last alternative is the only
# place a syntax error is diagnosed.  The quantifiers inside a tag are
# possessive: a malformed tag fails in one pass, never by backtracking.
_TOKEN = re.compile(
    rf"""([^<]+)"""                                         # 1 text run
    rf"""|</({_NAME}){_SPACE}*>"""                          # 2 close tag
    rf"""|<({_NAME})({_ATTRIBUTES}){_SPACE}*(/?)>"""        # 3 open tag, 4 attributes, 5 "/"
    r"""|<!--(?s:.*?)-->"""                                 # comment
    r"""|<\?(?s:.*?)\?>"""                                  # processing instruction
    r"""|<!\[CDATA\[((?s:.*?))\]\]>"""                      # 6 CDATA section
    r"""|(<!DOCTYPE)[^\[>]*+(?:\[[^\]]*+\][^\[>]*+)*+>"""    # 7 DOCTYPE, internal subset
    r"""|(<)"""                                             # 8 malformed
)
_TEXT_RUN, _CLOSE, _OPEN, _CDATA, _DOCTYPE, _MALFORMED = 1, 2, 5, 6, 7, 8
_NAME_AT = re.compile(_NAME)
_SPACE_AT = re.compile(f"{_SPACE}*")
_UNTERMINATED = (
    ("<!--", "comment"),
    ("<![CDATA[", "CDATA section"),
    ("<?", "processing instruction"),
)


def _location(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of ``offset`` — computed only to raise."""
    line = text.count("\n", 0, offset) + 1
    last_newline = text.rfind("\n", 0, offset)
    return line, offset - last_newline


def _error(text: str, offset: int, message: str) -> XMLSyntaxError:
    line, column = _location(text, offset)
    return XMLSyntaxError(message, line, column)


def _diagnose(text: str, offset: int) -> XMLSyntaxError:
    """Why the ``<`` at ``offset`` opens no well-formed construct."""
    for opener, what in _UNTERMINATED:
        if text.startswith(opener, offset):
            return _error(text, offset, f"unterminated {what}")
    if text.startswith("<!DOCTYPE", offset):
        return _error(text, len(text) - 1, "unterminated DOCTYPE")
    if text.startswith("<!", offset):
        return _error(text, offset, "unsupported markup declaration")
    closing = text.startswith("</", offset)
    name = _NAME_AT.match(text, offset + 1 + closing)
    if name is None:
        return _error(text, offset + 1 + closing, "expected a name")
    position = name.end()
    if closing:
        return _error(text, position, f"malformed closing tag </{name[0]}")
    # An open tag: step over the attributes that are fine, name the one
    # that is not.
    while True:
        spaced = _SPACE_AT.match(text, position).end()
        attribute = _ATTRIBUTE.match(text, spaced)
        if attribute is None:
            break
        if spaced == position:
            return _error(text, spaced,
                          f"attribute {attribute[1]!r} must follow whitespace")
        position = attribute.end()
    position = spaced
    if position >= len(text):
        return _error(text, len(text) - 1, f"unterminated tag <{name[0]}")
    if text[position] == "/":
        return _error(text, position, "expected '/>'")
    attribute = _NAME_AT.match(text, position)
    if attribute is None:
        return _error(text, position, "expected a name")
    position = _SPACE_AT.match(text, attribute.end()).end()
    if not text.startswith("=", position):
        return _error(text, position, f"attribute {attribute[0]!r} missing '='")
    position = _SPACE_AT.match(text, position + 1).end()
    quote = text[position : position + 1]
    if quote not in ("'", '"'):
        return _error(text, position, f"attribute {attribute[0]!r} value must be quoted")
    if text.find(quote, position + 1) < 0:
        return _error(text, position,
                      f"unterminated attribute value for {attribute[0]!r}")
    return _error(text, position, f"'<' in attribute value for {attribute[0]!r}")


def tokens(text: str) -> Iterator[Token]:
    """Yield ``(kind, name_or_text, attributes)`` for every token of ``text``.

    ``kind`` is :data:`START`, :data:`END` or :data:`TEXT`.  A START carries
    the tag name and a tuple of ``(name, value)`` pairs; an END (also emitted
    for a self-closing element) carries the name; a TEXT carries one run of
    character data or one CDATA section, references resolved.  Names are
    interned once per parse, so equal names are one object.
    """
    stack: list[str] = []
    interned: dict[str, str] = {}
    seen_root = False

    for match in _TOKEN.finditer(text):
        kind = match.lastindex
        if kind == _TEXT_RUN:
            run = match[1]
            if stack:
                if "&" in run:
                    run = resolve_references(
                        run, partial(_location, text, match.start()))
                yield TEXT, run, None
            elif run.strip():
                raise _error(text, match.start(),
                             "character data outside the root element")
        elif kind == _CLOSE:
            name = match[2]
            if not stack:
                raise _error(text, match.start(),
                             f"closing tag </{name}> with no open element")
            expected = stack.pop()
            if expected != name:
                raise _error(
                    text, match.start(),
                    f"mismatched closing tag: expected </{expected}>, got </{name}>")
            yield END, expected, None
        elif kind == _OPEN:
            name, raw_attributes, empty = match.group(3, 4, 5)
            name = interned.get(name) or interned.setdefault(name, sys.intern(name))
            if not stack:
                if seen_root:
                    raise _error(text, match.start(), "multiple root elements")
                seen_root = True
            attributes: tuple[tuple[str, str], ...] = ()
            if raw_attributes:
                pairs: dict[str, str] = {}
                for key, double, single in _ATTRIBUTE.findall(raw_attributes):
                    if key in pairs:
                        raise _error(text, match.start(),
                                     f"duplicate attribute {key!r}")
                    key = interned.get(key) or interned.setdefault(key, sys.intern(key))
                    value = double or single
                    if "&" in value:
                        value = resolve_references(
                            value, partial(_location, text, match.start()))
                    pairs[key] = value
                attributes = tuple(pairs.items())
            yield START, name, attributes
            if empty:
                yield END, name, None
            else:
                stack.append(name)
        elif kind == _CDATA:
            if not stack:
                raise _error(text, match.start(), "CDATA outside the root element")
            yield TEXT, match[6], None
        elif kind == _DOCTYPE:
            if seen_root:
                raise _error(text, match.start(), "DOCTYPE after the root element")
        elif kind == _MALFORMED:
            raise _diagnose(text, match.start())
        # else: a comment or processing instruction, skipped.

    if stack:
        raise _error(text, len(text) - 1, f"unclosed element <{stack[-1]}>")
    if not seen_root:
        raise _error(text, 0, "no root element")


def iterparse(text: str) -> Iterator[Event]:
    """Yield streaming events from an XML document string."""
    for kind, value, attributes in tokens(text):
        if kind == START:
            yield StartElement(value, attributes)
        elif kind == END:
            yield EndElement(value)
        else:
            yield Characters(value)


def parse(text: str) -> Document:
    """Parse a document string into a DOM tree."""
    document = Document()
    open_elements: list[Element] = []
    for kind, value, attributes in tokens(text):
        if kind == START:
            element = Element(value, dict(attributes))
            if open_elements:
                open_elements[-1].append(element)
            else:
                document.set_root(element)
            open_elements.append(element)
        elif kind == END:
            open_elements.pop()
        else:
            open_elements[-1].append_text(value)
    return document


def scan(text: str) -> int:
    """Tokenize without building anything; return the number of events.

    This mirrors the paper's expat baseline: "this time only includes the
    tokenization of the input stream and normalizations and substitutions
    as required by the XML standard and no user-specified semantic actions".
    """
    count = 0
    for _ in tokens(text):
        count += 1
    return count


def parse_file(path: str) -> Document:
    """Parse a document from a file path (convenience wrapper)."""
    with open(path, "r", encoding="ascii") as handle:
        return parse(handle.read())
