"""Lightweight DOM used by the main-memory stores and query results.

Nodes are plain Python objects with ``__slots__``; an :class:`Element` owns an
ordered list of children (elements and text nodes interleaved, preserving the
textual order of the source document — the property the paper's ordered-access
queries Q2–Q4 exercise).
"""

from __future__ import annotations

from collections.abc import Iterator


class Text:
    """A run of character data."""

    __slots__ = ("value", "parent")

    #: No element name: a scan over mixed children can test
    #: ``child.tag == tag`` without asking each child for its type.
    tag = None

    def __init__(self, value: str) -> None:
        self.value = value
        self.parent: Element | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.value if len(self.value) <= 30 else self.value[:27] + "..."
        return f"Text({preview!r})"


class Element:
    """An element node with attributes and ordered children."""

    __slots__ = ("tag", "attributes", "children", "parent")

    def __init__(self, tag: str, attributes: dict[str, str] | None = None) -> None:
        self.tag = tag
        self.attributes: dict[str, str] = attributes if attributes is not None else {}
        self.children: list[Element | Text] = []
        self.parent: Element | None = None

    # -- construction ---------------------------------------------------------

    def append(self, child: "Element | Text") -> "Element | Text":
        child.parent = self
        self.children.append(child)
        return child

    def append_text(self, value: str) -> None:
        """Append character data, merging with a trailing text node."""
        if self.children and isinstance(self.children[-1], Text):
            self.children[-1].value += value
        else:
            self.append(Text(value))

    # -- navigation -------------------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        """Attribute lookup."""
        return self.attributes.get(name, default)

    def child_elements(self) -> Iterator["Element"]:
        for child in self.children:
            if isinstance(child, Element):
                yield child

    def find(self, tag: str) -> "Element | None":
        """First child element with the given tag, or None."""
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> list["Element"]:
        """All child elements with the given tag, in document order."""
        return [child for child in self.children if child.tag == tag]

    def iter(self, tag: str | None = None) -> Iterator["Element"]:
        """Self-and-descendant elements in document order."""
        if tag is None or self.tag == tag:
            yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter(tag)

    def descendants(self, tag: str | None = None) -> Iterator["Element"]:
        """Descendant elements (excluding self) in document order."""
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter(tag)

    # -- content ----------------------------------------------------------------

    def immediate_text(self) -> str:
        """Concatenated character data of direct text-node children."""
        return "".join(child.value for child in self.children if isinstance(child, Text))

    def text_content(self) -> str:
        """Concatenated character data of the whole subtree (string value)."""
        parts: list[str] = []
        stack: list[Element | Text] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Text):
                parts.append(node.value)
            else:
                stack.extend(reversed(node.children))
        return "".join(parts)

    def copy(self) -> "Element":
        """Deep copy of the subtree (parent link of the copy is None)."""
        duplicate = Element(self.tag, dict(self.attributes))
        for child in self.children:
            if isinstance(child, Element):
                duplicate.append(child.copy())
            else:
                duplicate.append(Text(child.value))
        return duplicate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Element({self.tag!r}, children={len(self.children)})"


class Document:
    """A parsed document: a single root element plus convenience access."""

    __slots__ = ("root",)

    def __init__(self, root: Element | None = None) -> None:
        self.root = root

    def set_root(self, root: Element) -> None:
        if self.root is not None:
            raise ValueError("document already has a root element")
        self.root = root

    def iter(self, tag: str | None = None) -> Iterator[Element]:
        if self.root is None:
            return iter(())
        return self.root.iter(tag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.root.tag if self.root is not None else None
        return f"Document(root={tag!r})"
