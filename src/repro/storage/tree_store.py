"""Main-memory tree stores: Systems F (pure traversal) and E (tag index).

Both build a flat array representation straight from the streaming parser —
nodes are dense pre-order integers, so handles are ints and document order
is the natural integer order.

* :class:`TreeStore` (System F) navigates by walking the tree; it spends
  extra space on materialised per-node child lists — a traversal-speed
  choice that makes it the *largest* database of the main-memory systems,
  matching Table 1 (F: 345 MB vs E: 302 MB vs D: 142 MB).
* :class:`IndexedTreeStore` (System E) adds an inverted tag index with
  pre/post containment filtering, accelerating descendant-axis queries
  without a full structural summary.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right

from repro.errors import StorageError
from repro.storage.interface import Store
from repro.xmlio.dom import Element, Text
from repro.xmlio.parser import END, START, tokens

#: Parent sentinel for nodes detached by remove_node (root keeps -1).
_DETACHED = -2


class TreeStore(Store):
    """Pure-traversal main-memory store (System F).

    Updates: new nodes are *appended* to the flat arrays (handles stay
    dense ints and existing handles never move), which deliberately breaks
    the load-time invariant that array position equals pre-order rank.
    While ``_sequential`` is False the pre/post interval tricks degrade to
    pointer traversal and document order comes from a lazily recomputed
    rank labeling (``_ensure_order``) — the classic update tax of a
    read-optimized clustered layout, paid explicitly instead of hidden.
    """

    architecture = "main memory, pure tree traversal, heuristic optimizer (System F)"

    #: System D derives children from content and overrides the hooks.
    _maintains_child_lists = True

    def __init__(self) -> None:
        super().__init__()
        self._tags: list[str] = []
        self._parents: list[int] = []
        self._posts: list[int] = []
        self._attrs: list[dict[str, str] | None] = []
        self._content: list[list] = []          # interleaved int child ids / str runs
        self._children: list[list[int]] = []    # materialised element children
        self._sequential = True                 # array position == pre-order rank
        self._order: list[int] | None = None    # lazy doc-order ranks (mutated only)
        self._stop: list[int] | None = None     # max rank within each subtree

    def load(self, text: str) -> None:
        self._tags.clear()
        self._parents.clear()
        self._posts.clear()
        self._attrs.clear()
        self._content.clear()
        self._children.clear()
        self._sequential = True
        self._order = None
        self._stop = None
        tags, parents, posts = self._tags, self._parents, self._posts
        attrs, contents, child_lists = self._attrs, self._content, self._children
        stack: list[int] = []
        parent = -1
        for kind, value, attributes in tokens(text):
            if kind == START:
                node = len(tags)
                tags.append(value)              # interned by the tokenizer
                parents.append(parent)
                posts.append(node)
                attrs.append(dict(attributes) if attributes else None)
                contents.append([])
                child_lists.append([])
                if parent >= 0:
                    contents[parent].append(node)
                    child_lists[parent].append(node)
                stack.append(node)
                parent = node
            elif kind == END:
                posts[stack.pop()] = len(tags) - 1
                parent = stack[-1] if stack else -1
            else:
                self._append_text(parent, value)
        self.mark_loaded(text)

    def _append_text(self, node: int, text: str) -> None:
        content = self._content[node]
        if content and isinstance(content[-1], str):
            content[-1] += text
        else:
            content.append(text)

    def size_bytes(self) -> int:
        self.require_loaded()
        total = sum(
            sys.getsizeof(lst)
            for lst in (self._tags, self._parents, self._posts, self._attrs,
                        self._content, self._children)
        )
        total += 16 * len(self._parents)             # parents + posts payloads
        total += self._payload_bytes()
        for children in self._children:
            total += sys.getsizeof(children) + 8 * len(children)
        return total

    def _payload_bytes(self) -> int:
        """Attribute dicts and content sequences with the strings they hold,
        in one flat loop: ``bulkload`` pays this inside every set-up."""
        getsizeof = sys.getsizeof
        total = 0
        for attrs in self._attrs:
            if attrs:
                total += getsizeof(attrs)
                for name, value in attrs.items():
                    total += getsizeof(name) + getsizeof(value)
        for content in self._content:
            total += getsizeof(content)
            for part in content:
                if part.__class__ is str:
                    total += getsizeof(part)
        return total

    # -- navigation -----------------------------------------------------------

    def root(self) -> int:
        self.require_loaded()
        return 0

    def tag(self, node: int) -> str:
        return self._tags[node]

    def children(self, node: int) -> list[int]:
        self.stats.nodes_visited += 1
        return self._children[node]

    def children_by_tag(self, node: int, tag: str) -> list[int]:
        self.stats.nodes_visited += 1
        tags = self._tags
        return [child for child in self._children[node] if tags[child] == tag]

    def descendants_by_tag(self, node: int, tag: str) -> list[int]:
        if not self._sequential:
            return self._descendants_walk(node, tag)
        # Pre-order ids are contiguous within a subtree: scan [node+1, post].
        tags = self._tags
        found = []
        stop = self._posts[node]
        self.stats.nodes_visited += max(0, stop - node)
        for candidate in range(node + 1, stop + 1):
            if tags[candidate] == tag:
                found.append(candidate)
        return found

    def _descendants_walk(self, node: int, tag: str) -> list[int]:
        """Pointer traversal: id contiguity is gone after a mutation."""
        tags = self._tags
        found: list[int] = []
        stack = list(reversed(self._child_ids(node)))
        while stack:
            current = stack.pop()
            self.stats.nodes_visited += 1
            if tags[current] == tag:
                found.append(current)
            stack.extend(reversed(self._child_ids(current)))
        return found

    def parent(self, node: int) -> int | None:
        parent = self._parents[node]
        return None if parent < 0 else parent

    def attribute(self, node: int, name: str) -> str | None:
        attrs = self._attrs[node]
        return attrs.get(name) if attrs else None

    def attributes(self, node: int) -> dict[str, str]:
        attrs = self._attrs[node]
        return dict(attrs) if attrs else {}

    def child_texts(self, node: int) -> list[str]:
        self.stats.nodes_visited += 1
        return [part for part in self._content[node] if isinstance(part, str)]

    def string_value(self, node: int) -> str:
        parts: list[str] = []
        stack: list = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, str):
                parts.append(current)
            else:
                self.stats.nodes_visited += 1
                stack.extend(reversed(self._content[current]))
        return "".join(parts)

    def content(self, node: int) -> list:
        self.stats.nodes_visited += 1
        return list(self._content[node])

    def doc_position(self, node: int) -> int:
        if self._sequential:
            return node
        self._ensure_order()
        return self._order[node]

    def sibling_position(self, node: int) -> int:
        """The content slot: one C-level scan of the parent's content."""
        return self._content[self._parents[node]].index(node)

    def node_count(self) -> int:
        return len(self._tags)

    # -- mutation: array appends + lazy rank relabeling ----------------------------

    def _child_ids(self, node: int) -> list[int]:
        """Raw (uncounted) element-child ids, independent of child lists."""
        if self._maintains_child_lists:
            return self._children[node]
        return [part for part in self._content[node] if isinstance(part, int)]

    def _label_path(self, node: int) -> tuple[str, ...]:
        """Root-to-node tag sequence via the parent chain."""
        parts: list[str] = []
        current = node
        while current >= 0:
            parts.append(self._tags[current])
            current = self._parents[current]
        parts.reverse()
        return tuple(parts)

    def _note_mutation(self) -> None:
        self._sequential = False
        self._order = None
        self._stop = None

    def _ensure_order(self) -> None:
        """Recompute document-order ranks (and per-subtree max rank) from
        the pointer structure — one O(n) pass per mutation batch, amortised
        over every order-dependent read until the next write."""
        if self._order is not None:
            return
        size = len(self._tags)
        order = [0] * size
        stop = [0] * size
        rank = 0
        stack: list[tuple[int, bool]] = [(0, False)]
        while stack:
            node, done = stack.pop()
            if done:
                stop[node] = rank - 1
                continue
            order[node] = rank
            rank += 1
            stack.append((node, True))
            for child in reversed(self._child_ids(node)):
                stack.append((child, False))
        self._order = order
        self._stop = stop

    def _seal_content(self, parts: list):
        """New-node content representation (SummaryStore freezes tuples)."""
        return parts

    def _splice_content(self, parent: int, slot: int, node_id: int) -> None:
        self._content[parent].insert(slot, node_id)
        if self._maintains_child_lists:
            self._children[parent] = [
                part for part in self._content[parent] if isinstance(part, int)]

    def _unsplice_content(self, parent: int, node_id: int) -> None:
        self._content[parent].remove(node_id)
        if self._maintains_child_lists:
            self._children[parent] = [
                part for part in self._content[parent] if isinstance(part, int)]

    def _content_slot(self, parent: int, index: int | None) -> int:
        parts = self._content[parent]
        if index is None:
            return len(parts)
        seen = 0
        for slot, part in enumerate(parts):
            if isinstance(part, int):
                if seen == index:
                    return slot
                seen += 1
        return len(parts)

    def insert_child(self, parent: int, element: Element,
                     index: int | None = None) -> int:
        self.require_loaded()
        new_ids: list[int] = []

        def build(elem: Element, parent_id: int) -> int:
            node_id = len(self._tags)
            new_ids.append(node_id)
            self._tags.append(sys.intern(elem.tag))
            self._parents.append(parent_id)
            self._posts.append(node_id)     # stale by design: _sequential is off
            self._attrs.append(dict(elem.attributes) if elem.attributes else None)
            parts: list = []
            self._content.append(parts)     # placeholder; sealed below
            if self._maintains_child_lists:
                self._children.append([])
            for child in elem.children:
                if isinstance(child, Text):
                    if parts and isinstance(parts[-1], str):
                        parts[-1] += child.value
                    else:
                        parts.append(child.value)
                else:
                    child_id = build(child, node_id)
                    parts.append(child_id)
            if self._maintains_child_lists:
                self._children[node_id] = [p for p in parts if isinstance(p, int)]
            self._content[node_id] = self._seal_content(parts)
            return node_id

        slot = self._content_slot(parent, index)
        root_id = build(element, parent)
        self._splice_content(parent, slot, root_id)
        self._note_mutation()
        self._after_insert(new_ids)
        return root_id

    def remove_node(self, node: int) -> None:
        self.require_loaded()
        parent = self._parents[node]
        if parent < 0:
            raise StorageError("cannot remove the document root")
        removed: list[tuple[int, tuple[str, ...]]] = []
        stack = [node]
        while stack:
            current = stack.pop()
            removed.append((current, self._label_path(current)))
            stack.extend(self._child_ids(current))
        self._unsplice_content(parent, node)
        self._parents[node] = _DETACHED
        self._note_mutation()
        self._after_remove(removed)

    def set_text(self, node: int, text: str) -> None:
        self.require_loaded()
        rebuilt: list = []
        placed = False
        for part in self._content[node]:
            if isinstance(part, str):
                if text and not placed:
                    rebuilt.append(text)
                    placed = True
            else:
                rebuilt.append(part)
        if text and not placed:
            rebuilt.append(text)
        self._content[node] = self._seal_content(rebuilt)

    def set_attribute(self, node: int, name: str, value: str) -> None:
        self.require_loaded()
        attrs = self._attrs[node]
        if attrs is None:
            attrs = {}
            self._attrs[node] = attrs
        attrs[name] = value
        self._after_set_attribute(node, name, value)

    # Subclass hooks for store-native access structures (E's tag index,
    # D's structural summary and ID index).

    def _after_insert(self, new_ids: list[int]) -> None:
        pass

    def _after_remove(self, removed: list[tuple[int, tuple[str, ...]]]) -> None:
        pass

    def _after_set_attribute(self, node: int, name: str, value: str) -> None:
        pass


class IndexedTreeStore(TreeStore):
    """Tag-indexed main-memory store (System E)."""

    architecture = "main memory, inverted tag index + pre/post containment (System E)"

    def __init__(self) -> None:
        super().__init__()
        self._tag_index: dict[str, list[int]] = {}

    def load(self, text: str) -> None:
        super().load(text)
        self._tag_index.clear()
        for node, tag in enumerate(self._tags):
            self._tag_index.setdefault(tag, []).append(node)

    def size_bytes(self) -> int:
        total = super().size_bytes()
        total += sys.getsizeof(self._tag_index)
        for nodes in self._tag_index.values():
            total += sys.getsizeof(nodes) + 8 * len(nodes)
        return total

    def descendants_by_tag(self, node: int, tag: str) -> list[int]:
        self.stats.index_lookups += 1
        extent = self._tag_index.get(tag)
        if not extent:
            return []
        if not self._sequential:
            # Containment degrades from a bisection to an extent scan over
            # the lazy rank labels until the store is reloaded (compacted).
            self._ensure_order()
            order = self._order
            low, high = order[node], self._stop[node]
            result = sorted(
                (n for n in extent if low < order[n] <= high),
                key=order.__getitem__)
            self.stats.nodes_visited += len(result)
            return result
        # Extent lists are in pre-order; a subtree is the id range (node, post].
        start = bisect_right(extent, node)
        stop = bisect_right(extent, self._posts[node])
        result = extent[start:stop]
        self.stats.nodes_visited += len(result)
        return result

    def known_tags(self) -> frozenset[str]:
        return frozenset(self._tag_index)

    def all_with_tag(self, tag: str) -> list[int]:
        """The whole extent of one tag (document-ordered)."""
        self.stats.index_lookups += 1
        extent = list(self._tag_index.get(tag, ()))
        if not self._sequential:
            self._ensure_order()
            extent.sort(key=self._order.__getitem__)
        return extent

    # -- mutation hooks: the inverted tag index takes per-node deltas ----------

    def _after_insert(self, new_ids: list[int]) -> None:
        for node in new_ids:
            self._tag_index.setdefault(self._tags[node], []).append(node)

    def _after_remove(self, removed: list[tuple[int, tuple[str, ...]]]) -> None:
        for node, _path in removed:
            extent = self._tag_index.get(self._tags[node])
            if extent is not None:
                try:
                    extent.remove(node)
                except ValueError:
                    pass
                if not extent:
                    del self._tag_index[self._tags[node]]
