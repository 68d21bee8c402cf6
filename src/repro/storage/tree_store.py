"""Main-memory tree stores: Systems F (pure traversal) and E (tag index).

Both build a flat array representation straight from the streaming parser —
nodes are dense pre-order integers, so handles are ints.

Document order is an integer *label* per node that every write keeps
valid, so a read takes the same path before and after updates and never
writes to the store:

* a loaded node's label is its pre-order id ``<< 32`` and is never stored;
* an inserted subtree takes evenly spaced labels inside the gap between
  the node before it and the node after it in document order, kept in one
  packed column for inserted nodes only (``_labels``); when a gap is used
  up, one walk respaces the inserted labels — loaded labels never move —
  and ``stats.relabels`` counts it;
* ``_posts[node]`` is the label of the last node in the subtree, raised
  on the ancestors an insert extends, so a subtree is the label window
  ``(label, _posts[node]]``.  A removal leaves a stale maximum, which is
  still a valid bound.

* :class:`TreeStore` (System F) navigates by walking the tree; it spends
  extra space on materialised per-node child lists — a traversal-speed
  choice that makes it the *largest* database of the main-memory systems,
  matching Table 1 (F: 345 MB vs E: 302 MB vs D: 142 MB).
* :class:`IndexedTreeStore` (System E) adds an inverted tag index whose
  extents are bisected on the labels, accelerating descendant-axis
  queries without a full structural summary.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right

from repro.errors import StorageError
from repro.storage.interface import Store, splice_subtree
from repro.xmlio.dom import Element, Text
from repro.xmlio.escape import escape_attribute, escape_text
from repro.xmlio.parser import END, START, tokens

#: Parent sentinel for nodes detached by remove_node (root keeps -1).
_DETACHED = -2

#: A loaded node's label is its pre-order id shifted by this many bits.
_SHIFT = 32

#: The widest spacing between the labels of an inserted run.
_STEP = 1 << 16


def _slot_of(parts, index: int) -> int:
    """The content slot of element child ``index`` in ``parts``."""
    return [slot for slot, part in enumerate(parts) if part.__class__ is int][index]


class TreeStore(Store):
    """Pure-traversal main-memory store (System F).

    Updates: new nodes are *appended* to the flat arrays (handles stay
    dense ints and existing handles never move) and take order labels in
    the gap their position leaves.  A descendant step scans the subtree's
    loaded id range, stepping over removed subtrees (``_holes``), plus the
    inserted nodes inside its label window (``_inserted``).
    """

    architecture = "main memory, pure tree traversal, heuristic optimizer (System F)"

    def __init__(self) -> None:
        super().__init__()
        self._tags: list[str] = []
        self._parents: list[int] = []
        self._posts = array("q")                # label of each subtree's last node
        self._attrs: list[dict[str, str] | None] = []
        self._content: list[list] = []          # interleaved int child ids / str runs
        self._children: list[list[int]] = []    # materialised element children
        self._bulk = 0                          # ids below are loaded, in pre-order
        self._labels = array("q")               # labels of inserted ids (id - _bulk)
        self._inserted: list[int] = []          # live inserted ids in document order
        self._holes: list[tuple[int, int]] = []  # removed loaded id ranges, inclusive

    def load(self, text: str) -> None:
        self._tags.clear()
        self._parents.clear()
        self._attrs.clear()
        self._content.clear()
        self._children.clear()
        self._posts = array("q")
        self._labels = array("q")
        self._inserted = []
        self._holes = []
        tags, parents, posts = self._tags, self._parents, self._posts
        attrs, contents, child_lists = self._attrs, self._content, self._children
        stack: list[int] = []
        parent = -1
        for kind, value, attributes in tokens(text):
            if kind == START:
                node = len(tags)
                tags.append(value)              # interned by the tokenizer
                parents.append(parent)
                posts.append(0)
                attrs.append(dict(attributes) if attributes else None)
                contents.append([])
                child_lists.append([])
                if parent >= 0:
                    contents[parent].append(node)
                    child_lists[parent].append(node)
                stack.append(node)
                parent = node
            elif kind == END:
                posts[stack.pop()] = (len(tags) - 1) << _SHIFT
                parent = stack[-1] if stack else -1
            else:
                content = contents[parent]
                if content and content[-1].__class__ is str:
                    content[-1] += value
                else:
                    content.append(value)
        self._bulk = len(tags)
        self.mark_loaded(text)

    def size_bytes(self) -> int:
        self.require_loaded()
        # _posts is a packed array: getsizeof covers its payload.
        total = sum(
            sys.getsizeof(lst)
            for lst in (self._tags, self._parents, self._posts, self._attrs,
                        self._content, self._children)
        )
        total += 8 * len(self._parents)              # parents payload
        total += self._attribute_bytes()
        getsizeof = sys.getsizeof
        for content in self._content:
            total += getsizeof(content)
            for part in content:
                if part.__class__ is str:
                    total += getsizeof(part)
        for children in self._children:
            total += getsizeof(children) + 8 * len(children)
        return total

    def _attribute_bytes(self) -> int:
        """Attribute dicts with the strings they hold."""
        getsizeof = sys.getsizeof
        total = 0
        for attrs in self._attrs:
            if attrs:
                total += getsizeof(attrs)
                for name, value in attrs.items():
                    total += getsizeof(name) + getsizeof(value)
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
        """Scan the subtree's loaded id range, stepping over removed
        subtrees, then the inserted ids inside its label window."""
        tags, end = self._tags, self._posts[node]
        found: list[int] = []
        visited = 0
        if node < self._bulk:
            # Loaded ids are contiguous within a subtree: scan (node, end].
            start, stop = node + 1, (end >> _SHIFT) + 1
            holes = self._holes
            at = bisect_left(holes, (start,))
            while at < len(holes) and holes[at][0] < stop:
                hole, last = holes[at]
                found += [c for c in range(start, hole) if tags[c] == tag]
                visited += hole - start
                start, at = last + 1, at + 1
            found += [c for c in range(start, stop) if tags[c] == tag]
            visited += max(0, stop - start)
        inserted = self._window(self._inserted, node)
        if inserted:
            visited += len(inserted)
            matches = [c for c in inserted if tags[c] == tag]
            if matches:
                found = self._in_document_order(found + matches)
        self.stats.nodes_visited += visited
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

    def markup(self, node: int) -> str:
        """The generic :meth:`Store.markup`, byte for byte and visit for
        visit (one per element), read straight off the arrays: no
        navigation call and no content copy per node.  Each element is one
        ``join``: one flat list for the whole document would hold every
        piece at once, and a checkpoint renders the whole document."""
        tags, attrs_of, content = self._tags, self._attrs, self._content
        elements = 0

        def render(node: int) -> str:
            nonlocal elements
            elements += 1
            tag, attrs = tags[node], attrs_of[node]
            start = "<" + tag
            if attrs:
                start += "".join([f' {name}="{escape_attribute(value)}"'
                                  for name, value in attrs.items()])
            parts = content[node]
            if not parts:
                return start + "/>"
            pieces = [start, ">"]
            for part in parts:
                if part.__class__ is int:
                    pieces.append(render(part))
                elif "&" in part or "<" in part or ">" in part:
                    pieces.append(escape_text(part))
                else:
                    pieces.append(part)
            pieces += ("</", tag, ">")
            return "".join(pieces)

        text = render(node)
        self.stats.nodes_visited += elements
        return text

    def doc_position(self, node: int) -> int:
        """The node's order label."""
        bulk = self._bulk
        return node << _SHIFT if node < bulk else self._labels[node - bulk]

    def order_key(self, node: int, keys=None) -> int:
        return self.doc_position(node)

    def node_count(self) -> int:
        return len(self._tags)

    # -- document order over label windows ---------------------------------------

    def _window(self, extent, node: int):
        """The part of a document-ordered id sequence inside ``node``'s
        subtree: two bisects on the label."""
        label = self.doc_position
        return extent[bisect_right(extent, label(node), key=label):
                      bisect_right(extent, self._posts[node], key=label)]

    def _drop_window(self, extent, node: int) -> None:
        """Delete ``node``'s subtree, itself included, from a
        document-ordered id list."""
        label = self.doc_position
        del extent[bisect_left(extent, label(node), key=label):
                   bisect_right(extent, self._posts[node], key=label)]

    def _in_document_order(self, nodes: list[int]) -> list[int]:
        """Sort ids by label; loaded labels grow with the id, so loaded
        ids alone sort as plain ints."""
        if nodes and max(nodes) >= self._bulk:
            nodes.sort(key=self.doc_position)
        else:
            nodes.sort()
        return nodes

    # -- mutation: array appends + labels placed in the gap -------------------
    #
    # Four hooks are all a write reads or writes of a node's content, so
    # System D, which keeps its text elsewhere, overrides only them.

    def _child_ids(self, node: int) -> list[int]:
        """Raw (uncounted) element-child ids."""
        return self._children[node]

    def _parts(self, node: int):
        """Raw (uncounted) content: child ids and text runs interleaved."""
        return self._content[node]

    def _reserve(self) -> None:
        """Room for the content of one more node, set by :meth:`_set_content`."""
        self._content.append([])
        self._children.append([])

    def _set_content(self, node: int, parts: list, children) -> None:
        """Replace ``node``'s content with ``parts``, whose element
        children are ``children``."""
        self._content[node] = parts
        self._children[node] = list(children)

    def _path_of(self, node: int) -> tuple[str, ...]:
        """Root-to-node tag sequence via the parent chain."""
        parts: list[str] = []
        current = node
        while current >= 0:
            parts.append(self._tags[current])
            current = self._parents[current]
        parts.reverse()
        return tuple(parts)

    def _label_after(self, node: int) -> int | None:
        """Label of the first node after ``node``'s subtree in document
        order — the next sibling of the nearest ancestor-or-self that has
        one — or None at the document end."""
        parents = self._parents
        while True:
            parent = parents[node]
            if parent < 0:
                return None
            siblings = self._child_ids(parent)
            after = siblings.index(node) + 1
            if after < len(siblings):
                return self.doc_position(siblings[after])
            node = parent

    def _spread(self, run: list[int], low: int, high: int | None) -> bool:
        """Label a document-ordered run of inserted ids evenly inside
        ``(low, high)``; False when the gap is too narrow for it."""
        step = _STEP if high is None else min(_STEP, (high - low) // (len(run) + 1))
        if step < 1:
            return False
        labels, bulk = self._labels, self._bulk
        for rank, node in enumerate(run, 1):
            labels[node - bulk] = low + step * rank
        return True

    def _label_run(self, root: int, run: list[int], index: int) -> None:
        """Label an inserted subtree (``run``, pre-order, whose ``_posts``
        hold the id of each subtree's last node; ``root`` is element child
        ``index`` of its parent) and raise the subtree ends it extends; an
        exhausted gap relabels instead."""
        parents, posts = self._parents, self._posts
        parent = parents[root]
        siblings = self._child_ids(parent)
        low = self.doc_position(parent) if index == 0 else posts[siblings[index - 1]]
        high = (self._label_after(parent) if index + 1 == len(siblings)
                else self.doc_position(siblings[index + 1]))
        if not self._spread(run, low, high):
            self._relabel()
            return
        labels, bulk = self._labels, self._bulk
        for node in run:
            posts[node] = labels[posts[node] - bulk]
        last, node = posts[root], parent
        while node >= 0 and posts[node] < last:
            posts[node] = last
            node = parents[node]
        inserted = self._inserted
        at = bisect_right(inserted, low, key=self.doc_position)
        inserted[at:at] = run

    def _relabel(self) -> None:
        """Respace every inserted label in one pre-order walk and set every
        live subtree end exactly; loaded labels never move."""
        self.stats.relabels += 1
        order: list[int] = []
        ends: list[tuple[int, int]] = []        # (node, index of its last node)
        stack = [0]
        while stack:
            node = stack.pop()
            if node < 0:                        # ~node's subtree is complete
                ends.append((~node, len(order) - 1))
                continue
            order.append(node)
            stack.append(~node)
            stack.extend(reversed(self._child_ids(node)))
        bulk, run, low = self._bulk, [], 0
        for node in order:
            if node < bulk:
                self._spread(run, low, node << _SHIFT)
                run, low = [], node << _SHIFT
            else:
                run.append(node)
        self._spread(run, low, None)
        label, posts = self.doc_position, self._posts
        for node, last in ends:
            posts[node] = label(order[last])
        self._inserted = [node for node in order if node >= bulk]

    def insert_child(self, parent: int, element: Element,
                     index: int | None = None) -> int:
        self.require_loaded()
        tags, parents, posts = self._tags, self._parents, self._posts
        new_ids: list[int] = []

        def build(elem: Element, parent_id: int) -> int:
            node_id = len(tags)
            new_ids.append(node_id)
            tags.append(sys.intern(elem.tag))
            parents.append(parent_id)
            posts.append(0)
            self._labels.append(0)
            self._attrs.append(dict(elem.attributes) if elem.attributes else None)
            self._reserve()
            parts: list = []
            children: list[int] = []
            for child in elem.children:
                if isinstance(child, Text):
                    if parts and parts[-1].__class__ is str:
                        parts[-1] += child.value
                    else:
                        parts.append(child.value)
                else:
                    children.append(build(child, node_id))
                    parts.append(children[-1])
            self._set_content(node_id, parts, children)
            posts[node_id] = len(tags) - 1  # the subtree's last id; labelled next
            return node_id

        siblings = self._child_ids(parent)
        root_id = build(element, parent)
        parts = list(self._parts(parent))
        if index is None or not 0 <= index < len(siblings):
            index = len(siblings)
            parts.append(root_id)
        else:
            parts.insert(_slot_of(parts, index), root_id)
        self._set_content(parent, parts, (*siblings[:index], root_id, *siblings[index:]))
        self._label_run(root_id, new_ids, index)
        self._after_insert(new_ids)
        return root_id

    def remove_node(self, node: int) -> None:
        """Detach ``node``'s subtree; the text runs before and after it,
        adjacent now, merge into one run as XQuery Update merges them."""
        self.require_loaded()
        parent = self._parents[node]
        if parent == _DETACHED:
            raise StorageError(f"node {node!r} was already removed")
        if parent < 0:
            raise StorageError("cannot remove the document root")
        tags, bulk = self._tags, self._bulk
        removed: list[tuple[int, tuple[str, ...]]] = []
        last_loaded = -1
        stack = [(node, self._path_of(node))]
        while stack:                            # pre-order: paths from parents'
            current, path = stack.pop()
            removed.append((current, path))
            if current < bulk:
                last_loaded = current
            stack.extend((child, path + (tags[child],))
                         for child in reversed(self._child_ids(current)))
        if node < bulk:
            # Loaded ids of the subtree are [node, last_loaded] less the
            # holes already inside it, which this one absorbs.
            holes = self._holes
            holes[bisect_left(holes, (node,)):
                  bisect_left(holes, (last_loaded + 1,))] = [(node, last_loaded)]
        self._drop_window(self._inserted, node)
        parts = list(self._parts(parent))
        slot = parts.index(node)
        del parts[slot]
        if 0 < slot < len(parts) and parts[slot - 1].__class__ is str \
                and parts[slot].__class__ is str:
            parts[slot - 1:slot + 1] = [parts[slot - 1] + parts[slot]]
        siblings = self._child_ids(parent)
        at = siblings.index(node)
        self._set_content(parent, parts, (*siblings[:at], *siblings[at + 1:]))
        self._parents[node] = _DETACHED
        self._after_remove(removed)

    def set_text(self, node: int, text: str) -> None:
        self.require_loaded()
        rebuilt: list = []
        placed = False
        for part in self._parts(node):
            if part.__class__ is str:
                if text and not placed:
                    rebuilt.append(text)
                    placed = True
            else:
                rebuilt.append(part)
        if text and not placed:
            rebuilt.append(text)
        self._set_content(node, rebuilt, self._child_ids(node))

    def set_attribute(self, node: int, name: str, value: str) -> None:
        self.require_loaded()
        attrs = self._attrs[node]
        if attrs is None:
            attrs = {}
            self._attrs[node] = attrs
        old = attrs.get(name)
        attrs[name] = value
        self._after_set_attribute(node, name, value, old)

    # Subclass hooks for store-native access structures (E's tag index,
    # D's structural summary and ID index).  They run after the write, with
    # the labels of inserted and removed nodes readable.

    def _after_insert(self, new_ids: list[int]) -> None:
        pass

    def _after_remove(self, removed: list[tuple[int, tuple[str, ...]]]) -> None:
        pass

    def _after_set_attribute(self, node: int, name: str, value: str,
                             old: str | None) -> None:
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
        # Extents are in document order; a subtree is one label window.
        result = self._window(extent, node)
        self.stats.nodes_visited += len(result)
        return result

    def known_tags(self) -> frozenset[str]:
        return frozenset(self._tag_index)

    def all_with_tag(self, tag: str) -> list[int]:
        """The whole extent of one tag (document-ordered)."""
        self.stats.index_lookups += 1
        return list(self._tag_index.get(tag, ()))

    # -- mutation hooks: an inserted or removed subtree is one run per tag -----

    def _after_insert(self, new_ids: list[int]) -> None:
        tags, index = self._tags, self._tag_index
        splice_subtree(self, [(node, tags[node]) for node in new_ids],
                       lambda tag: index.setdefault(tag, []))

    def _after_remove(self, removed: list[tuple[int, tuple[str, ...]]]) -> None:
        root = removed[0][0]
        for tag in {self._tags[node] for node, _path in removed}:
            extent = self._tag_index[tag]
            self._drop_window(extent, root)
            if not extent:
                del self._tag_index[tag]
