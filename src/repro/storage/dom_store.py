"""System G analogue: an embedded, naive DOM query target.

The paper's System G is an in-process query processor "intended to serve as
embedded query processors in programming languages and aim at small to
medium sized documents"; it failed at scaling factor 1.0 and showed a flat
interpretive overhead at 100 kB / 1 MB (Figure 4).  This store wraps the
parse-time DOM directly: no indexes of any kind, every operation is a fresh
recursive walk, and an optional document-size guard mimics G's inability to
process large inputs.
"""

from __future__ import annotations

import sys

from repro.errors import StorageError
from repro.storage.interface import Store
from repro.xmlio.dom import Document, Element, Text
from repro.xmlio.parser import parse
from repro.xmlio.serialize import serialize

#: Default refusal threshold: G "failed to do so" at scale 1.0; we refuse
#: anything over ~1/4 of the standard document so the failure is reproducible.
DEFAULT_DOCUMENT_LIMIT = 25_000_000


class DomStore(Store):
    """Naive embedded DOM store (System G).

    "No indexes" describes the *architecture and its profile*: G's planner
    never uses an access structure.  Like every store it still builds the
    uniform secondary IndexSet at mark_loaded — that is what lets the
    ablation benchmark and the probe==scan property tests compare both
    access paths on one and the same loaded store.
    """

    architecture = "embedded in-process DOM, no native indexes (System G)"

    def __init__(self, document_limit: int = DEFAULT_DOCUMENT_LIMIT) -> None:
        super().__init__()
        self._document: Document | None = None
        self._positions: dict[int, int] = {}
        self._positions_stale = False
        self._source_bytes = 0
        self._document_limit = document_limit

    def load(self, text: str) -> None:
        if len(text) > self._document_limit:
            raise StorageError(
                f"document of {len(text)} bytes exceeds the embedded processor's "
                f"capacity ({self._document_limit} bytes) — the paper's System G "
                "equally failed at scaling factor 1.0"
            )
        self._document = parse(text)
        self._source_bytes = len(text)
        self._renumber()
        self.mark_loaded(text)

    def _renumber(self) -> None:
        # Document-order numbering for the << comparisons (Q4); the id() of a
        # DOM node is stable for the life of the tree we hold.
        self._positions.clear()
        order = 0
        if self._document.root is not None:
            stack: list[Element] = [self._document.root]
            while stack:
                node = stack.pop()
                self._positions[id(node)] = order
                order += 1
                stack.extend(reversed(list(node.child_elements())))
        self._positions_stale = False

    def size_bytes(self) -> int:
        self.require_loaded()
        total = 0
        root = self._document.root
        stack: list[Element | Text] = [root] if root is not None else []
        while stack:
            node = stack.pop()
            total += sys.getsizeof(node)
            if isinstance(node, Element):
                total += sys.getsizeof(node.attributes)
                total += sum(sys.getsizeof(k) + sys.getsizeof(v)
                             for k, v in node.attributes.items())
                stack.extend(node.children)
            else:
                total += sys.getsizeof(node.value)
        return total

    # -- navigation -----------------------------------------------------------

    def root(self) -> Element:
        self.require_loaded()
        return self._document.root

    def tag(self, node: Element) -> str:
        return node.tag

    def children(self, node: Element) -> list[Element]:
        self.stats.nodes_visited += 1
        return list(node.child_elements())

    def children_by_tag(self, node: Element, tag: str) -> list[Element]:
        self.stats.nodes_visited += 1
        return node.find_all(tag)

    def descendants_by_tag(self, node: Element, tag: str) -> list[Element]:
        found = []
        for descendant in node.descendants(tag):
            self.stats.nodes_visited += 1
            found.append(descendant)
        return found

    def parent(self, node: Element) -> Element | None:
        return node.parent

    def attribute(self, node: Element, name: str) -> str | None:
        return node.attributes.get(name)

    def attributes(self, node: Element) -> dict[str, str]:
        return dict(node.attributes)

    def child_texts(self, node: Element) -> list[str]:
        self.stats.nodes_visited += 1
        return [child.value for child in node.children if isinstance(child, Text)]

    def string_value(self, node: Element) -> str:
        self.stats.nodes_visited += 1
        return node.text_content()

    def content(self, node: Element) -> list[Element | str]:
        self.stats.nodes_visited += 1
        return [
            child.value if isinstance(child, Text) else child
            for child in node.children
        ]

    def doc_position(self, node: Element) -> int:
        if self._positions_stale:
            self._renumber()
        return self._positions[id(node)]

    def build_dom(self, node: Element) -> Element:
        return node.copy()

    def markup(self, node: Element) -> str:
        return serialize(node)

    # -- mutation: direct DOM pointer splices -----------------------------------

    def insert_child(self, parent: Element, element: Element,
                     index: int | None = None) -> Element:
        self.require_loaded()
        node = element.copy()
        node.parent = parent
        parent.children.insert(_content_slot(parent, index), node)
        self._positions_stale = True
        return node

    def remove_node(self, node: Element) -> None:
        self.require_loaded()
        if node.parent is None:
            if node is not self._document.root:
                raise StorageError(f"node <{node.tag}> was already removed")
            raise StorageError("cannot remove the document root")
        siblings = node.parent.children
        slot = siblings.index(node)
        del siblings[slot]
        # The runs on either side are one text node now.
        if 0 < slot < len(siblings) and isinstance(siblings[slot - 1], Text) \
                and isinstance(siblings[slot], Text):
            siblings[slot - 1].value += siblings.pop(slot).value
        node.parent = None
        self._positions_stale = True

    def set_text(self, node: Element, text: str) -> None:
        self.require_loaded()
        replaced = False
        rebuilt: list[Element | Text] = []
        for child in node.children:
            if isinstance(child, Text):
                if text and not replaced:
                    run = Text(text)
                    run.parent = node
                    rebuilt.append(run)
                    replaced = True
            else:
                rebuilt.append(child)
        if text and not replaced:
            run = Text(text)
            run.parent = node
            rebuilt.append(run)
        node.children = rebuilt

    def set_attribute(self, node: Element, name: str, value: str) -> None:
        self.require_loaded()
        node.attributes[name] = value


def _content_slot(parent: Element, index: int | None) -> int:
    """The children-list position placing a new node before the ``index``-th
    element child (None: after every existing child)."""
    if index is None:
        return len(parent.children)
    seen = 0
    for slot, child in enumerate(parent.children):
        if isinstance(child, Element):
            if seen == index:
                return slot
            seen += 1
    return len(parent.children)
