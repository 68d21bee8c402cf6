"""System A analogue: the "one big heap" generic relational mapping.

The paper on System A: "System A basically stores all XML data on one big
heap, i.e., only a single relation. ... System A has to access fewer
metadata to compile a query than System B ... However, this comes at a cost.
Because the data mapping deployed in System A has less explicit semantics,
the actual cost of accessing the real data is higher."

The mapping is the classic edge/node relation (Florescu–Kossmann style):

* ``nodes(pre, post, parent, tag, pos)`` — one row per element, ``pre`` in
  document order, ``post`` the last sequence number in the subtree;
* ``texts(pre, parent, pos, value)`` — one row per text run;
* ``attrs(parent, name, value)`` — one row per attribute.

Every navigation step is an index probe plus row fetches against these three
relations, so path-heavy and reconstruction-heavy queries (Q10!) pay the
per-step relational toll the paper reports.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.errors import StorageError
from repro.relational.catalog import Catalog
from repro.relational.table import Column, ColumnType
from repro.storage.interface import (
    Store, rank_by_walk, rekey_id, runs_made_adjacent)
from repro.xmlio.dom import Element, Text
from repro.xmlio.parser import END, START, tokens

_INT = ColumnType.INT
_STR = ColumnType.STR


class HeapStore(Store):
    """Single-relation generic edge mapping (System A)."""

    architecture = "relational single heap: one generic node relation (System A)"

    def __init__(self) -> None:
        super().__init__()
        self.catalog = Catalog()
        self._nodes = None
        self._texts = None
        self._attrs = None
        self._id_index: dict[str, int] = {}
        self._next_pre = 0                      # pre allocator for inserted tuples
        self._mutated = False                   # pre order == doc order until then
        self._order: dict[int, int] | None = None

    # -- bulkload -----------------------------------------------------------------

    def load(self, text: str) -> None:
        self.catalog = Catalog()
        nodes = self.catalog.create_table("nodes", [
            Column("pre", _INT, nullable=False, key=True),
            Column("post", _INT, nullable=False),
            Column("parent", _INT, indexed=True),
            Column("tag", _STR, nullable=False, indexed=True),
            Column("pos", _INT, nullable=False),
        ])
        texts = self.catalog.create_table("texts", [
            Column("pre", _INT, nullable=False),
            Column("parent", _INT, nullable=False, indexed=True),
            Column("pos", _INT, nullable=False),
            Column("value", _STR, nullable=False),
        ])
        attrs = self.catalog.create_table("attrs", [
            Column("parent", _INT, nullable=False, indexed=True),
            Column("name", _STR, nullable=False),
            Column("value", _STR, nullable=False),
        ])

        sequence, id_index = self._stage(text, nodes, texts, attrs)
        self.catalog.seal()
        self._nodes, self._texts, self._attrs = nodes, texts, attrs
        self._id_index = id_index
        self._next_pre = sequence
        self._mutated = False
        self._order = None
        self.mark_loaded(text)

    @staticmethod
    def _stage(text: str, nodes, texts, attrs) -> tuple[int, dict[str, int]]:
        """Tokenize ``text`` into the three tables' load buffers; return the
        next free pre and the ID index.  Apart from :meth:`load` so that no
        local still holds a raw buffer when the seal types and frees it."""
        node_pres, node_posts, node_parents, node_tags, node_poss = nodes.buffers()
        text_pres, text_parents, text_poss, text_values = texts.buffers()
        attr_parents, attr_names, attr_values = attrs.buffers()
        id_index: dict[str, int] = {}

        sequence = 0
        # One frame per open element: [pre, next child slot, row].
        stack: list[list[int]] = []

        for kind, value, attributes in tokens(text):
            if kind == START:
                if stack:
                    frame = stack[-1]
                    parent_pre, slot = frame[0], frame[1]
                    frame[1] = slot + 1
                else:
                    parent_pre, slot = None, 0
                stack.append([sequence, 0, len(node_pres)])
                node_pres.append(sequence)
                node_posts.append(sequence)
                node_parents.append(parent_pre)
                node_tags.append(value)
                node_poss.append(slot)
                for name, attribute in attributes:
                    attr_parents.append(sequence)
                    attr_names.append(name)
                    attr_values.append(attribute)
                    if name == "id":
                        id_index[attribute] = sequence
                sequence += 1
            elif kind == END:
                node_posts[stack.pop()[2]] = sequence - 1
            else:
                frame = stack[-1]
                slot = frame[1]
                frame[1] = slot + 1
                text_pres.append(sequence)
                text_parents.append(frame[0])
                text_poss.append(slot)
                text_values.append(value)
                sequence += 1
        return sequence, id_index

    def size_bytes(self) -> int:
        self.require_loaded()
        return self.catalog.estimated_bytes()

    # -- navigation -----------------------------------------------------------------

    def root(self) -> int:
        self.require_loaded()
        return 0

    def tag(self, node: int) -> str:
        self.stats.table_lookups += 1
        return self._nodes.get(self._row(node), "tag")

    def _row(self, node: int) -> int:
        row = self._nodes.row_of(node)
        if row is None:
            raise StorageError(f"no live tuple for handle {node!r}")
        return row

    def children(self, node: int) -> list[int]:
        self.stats.index_lookups += 1
        rows = self._nodes.lookup("parent", node)
        self.stats.table_lookups += len(rows)
        pres = self._nodes.column("pre")
        if self._mutated:
            # Bucket order is append order, not sibling order, once tuples
            # have been inserted: restore it from the pos column.
            poss = self._nodes.column("pos")
            rows = sorted(rows, key=poss.__getitem__)
        return [pres[row] for row in rows]

    def children_by_tag(self, node: int, tag: str) -> list[int]:
        self.stats.index_lookups += 1
        rows = self._nodes.lookup("parent", node)
        self.stats.table_lookups += len(rows)
        pres = self._nodes.column("pre")
        tags = self._nodes.column("tag")
        if self._mutated:
            poss = self._nodes.column("pos")
            rows = sorted(rows, key=poss.__getitem__)
        return [pres[row] for row in rows if tags[row] == tag]

    def descendants_by_tag(self, node: int, tag: str) -> list[int]:
        if self._mutated:
            # Inserted pres break the pre/post interval encoding: navigate.
            tags = self._nodes.column("tag")
            found: list[int] = []
            stack = list(reversed(self.children(node)))
            while stack:
                current = stack.pop()
                if tags[self._row(current)] == tag:
                    found.append(current)
                stack.extend(reversed(self.children(current)))
            return found
        # B-tree on (tag, pre): probe the tag extent, bisect the pre interval.
        self.stats.index_lookups += 1
        rows = self._nodes.lookup("tag", tag)
        pres = self._nodes.column("pre")
        extent = [pres[row] for row in rows]  # ascending: heap is in doc order
        self.stats.table_lookups += len(extent)
        post = self._nodes.get(self._row(node), "post")
        start = bisect_right(extent, node)
        stop = bisect_right(extent, post)
        return extent[start:stop]

    def parent(self, node: int) -> int | None:
        self.stats.table_lookups += 1
        return self._nodes.get(self._row(node), "parent")

    def attribute(self, node: int, name: str) -> str | None:
        self.stats.index_lookups += 1
        rows = self._attrs.lookup("parent", node)
        self.stats.table_lookups += len(rows)
        names = self._attrs.column("name")
        values = self._attrs.column("value")
        for row in rows:
            if names[row] == name:
                return values[row]
        return None

    def attributes(self, node: int) -> dict[str, str]:
        self.stats.index_lookups += 1
        rows = self._attrs.lookup("parent", node)
        self.stats.table_lookups += len(rows)
        names = self._attrs.column("name")
        values = self._attrs.column("value")
        return {names[row]: values[row] for row in rows}

    def child_texts(self, node: int) -> list[str]:
        self.stats.index_lookups += 1
        rows = self._texts.lookup("parent", node)
        self.stats.table_lookups += len(rows)
        values = self._texts.column("value")
        return [values[row] for row in rows]

    def string_value(self, node: int) -> str:
        if self._mutated:
            # The text heap interleaves inserted runs out of pre order:
            # reassemble through content() like the update literature's
            # declustered-CLOB case.
            parts: list[str] = []
            stack: list = [node]
            while stack:
                current = stack.pop()
                if isinstance(current, str):
                    parts.append(current)
                else:
                    stack.extend(reversed(self.content(current)))
            return "".join(parts)
        # Texts are stored in document order: bisect the subtree interval.
        self.stats.index_lookups += 1
        text_pres = self._texts.column("pre")
        post = self._nodes.get(self._row(node), "post")
        start = bisect_left(text_pres, node)
        stop = bisect_right(text_pres, post)
        values = self._texts.column("value")
        self.stats.table_lookups += stop - start
        return "".join(values[row] for row in range(start, stop))

    def content(self, node: int) -> list:
        self.stats.index_lookups += 2
        child_rows = self._nodes.lookup("parent", node)
        text_rows = self._texts.lookup("parent", node)
        self.stats.table_lookups += len(child_rows) + len(text_rows)
        pres = self._nodes.column("pre")
        node_pos = self._nodes.column("pos")
        text_pos = self._texts.column("pos")
        values = self._texts.column("value")
        merged: list[tuple[int, object]] = [
            (node_pos[row], pres[row]) for row in child_rows
        ]
        merged.extend((text_pos[row], values[row]) for row in text_rows)
        merged.sort(key=lambda pair: pair[0])
        return [part for _, part in merged]

    def doc_position(self, node: int) -> int:
        if not self._mutated:
            return node
        if self._order is None:
            self._order = rank_by_walk(self)
        return self._order[node]

    def sibling_position(self, node: int) -> int:
        return self._nodes.get(self._row(node), "pos")

    # -- capabilities ------------------------------------------------------------------

    def lookup_id(self, value: str) -> int | None:
        self.stats.index_lookups += 1
        return self._id_index.get(value)

    def has_id_index(self) -> bool:
        return True

    def all_with_tag(self, tag: str) -> list[int]:
        """Whole extent of one tag (ascending pre) — the relational access
        path for unrooted element scans."""
        self.stats.index_lookups += 1
        rows = self._nodes.lookup("tag", tag)
        pres = self._nodes.column("pre")
        self.stats.table_lookups += len(rows)
        extent = [pres[row] for row in rows]
        if self._mutated:
            extent.sort(key=self.doc_position)
        return extent

    # -- mutation: tuple inserts/deletes with index touches ------------------------------

    def _note_mutation(self) -> None:
        self._mutated = True
        self._order = None

    def _content_pos(self, parent: int, index: int | None) -> int:
        """The pos value for a new child at element ``index``, shifting the
        pos of every following sibling tuple (elements and text runs) up."""
        child_rows = sorted(self._nodes.lookup("parent", parent),
                            key=self._nodes.column("pos").__getitem__)
        if index is None or index >= len(child_rows):
            text_rows = self._texts.lookup("parent", parent)
            highest = -1
            for row in child_rows:
                highest = max(highest, self._nodes.get(row, "pos"))
            for row in text_rows:
                highest = max(highest, self._texts.get(row, "pos"))
            return highest + 1
        target = self._nodes.get(child_rows[index], "pos")
        for row in self._nodes.lookup("parent", parent):
            pos = self._nodes.get(row, "pos")
            if pos >= target:
                self._nodes.set(row, "pos", pos + 1)
        for row in self._texts.lookup("parent", parent):
            pos = self._texts.get(row, "pos")
            if pos >= target:
                self._texts.set(row, "pos", pos + 1)
        return target

    def insert_child(self, parent: int, element: Element,
                     index: int | None = None) -> int:
        self.require_loaded()
        pos = self._content_pos(parent, index)
        root_pre = self._insert_subtree(element, parent, pos)
        self._note_mutation()
        return root_pre

    def _insert_subtree(self, element: Element, parent_pre: int, pos: int) -> int:
        pre = self._next_pre
        self._next_pre += 1
        self._nodes.append(pre=pre, post=pre, parent=parent_pre,
                           tag=element.tag, pos=pos)
        for name, value in element.attributes.items():
            self._attrs.append(parent=pre, name=name, value=value)
            if name == "id":
                self._id_index[value] = pre
        slot = 0
        for child in element.children:
            if isinstance(child, Text):
                text_pre = self._next_pre
                self._next_pre += 1
                self._texts.append(pre=text_pre, parent=pre,
                                   pos=slot, value=child.value)
            else:
                self._insert_subtree(child, pre, slot)
            slot += 1
        return pre

    def remove_node(self, node: int) -> None:
        self.require_loaded()
        row = self._nodes.row_of(node)
        if row is None:
            raise StorageError(f"node {node!r} was already removed")
        parent = self._nodes.get(row, "parent")
        if parent is None:
            raise StorageError("cannot remove the document root")
        doomed = [node]
        stack = list(self.children(node))
        while stack:
            current = stack.pop()
            doomed.append(current)
            stack.extend(self.children(current))
        names = self._attrs.column("name")
        values = self._attrs.column("value")
        for pre in doomed:
            self._nodes.delete(self._nodes.row_of(pre))
            for attr_row in list(self._attrs.lookup("parent", pre)):
                if names[attr_row] == "id" and self._id_index.get(values[attr_row]) == pre:
                    del self._id_index[values[attr_row]]
                self._attrs.delete(attr_row)
            for text_row in list(self._texts.lookup("parent", pre)):
                self._texts.delete(text_row)
        text_pos, node_pos = self._texts.column("pos"), self._nodes.column("pos")
        merge = runs_made_adjacent(
            [(text_pos[text], text) for text in self._texts.lookup("parent", parent)],
            (node_pos[child] for child in self._nodes.lookup("parent", parent)),
            node_pos[row])
        if merge is not None:
            before, after = merge
            self._texts.set(before, "value", self._texts.get(before, "value")
                            + self._texts.get(after, "value"))
            self._texts.delete(after)
        self._note_mutation()

    def set_text(self, node: int, text: str) -> None:
        self.require_loaded()
        text_rows = sorted(self._texts.lookup("parent", node),
                           key=self._texts.column("pos").__getitem__)
        if text_rows:
            if text:
                self._texts.set(text_rows[0], "value", text)
                extra = text_rows[1:]
            else:
                extra = text_rows
            for row in extra:
                self._texts.delete(row)
        elif text:
            pos = self._content_pos(node, None)
            text_pre = self._next_pre
            self._next_pre += 1
            self._texts.append(pre=text_pre, parent=node, pos=pos, value=text)
        self._note_mutation()

    def set_attribute(self, node: int, name: str, value: str) -> None:
        self.require_loaded()
        names, old = self._attrs.column("name"), None
        for row in self._attrs.lookup("parent", node):
            if names[row] == name:
                old = self._attrs.get(row, "value")
                self._attrs.set(row, "value", value)
                break
        else:
            self._attrs.append(parent=node, name=name, value=value)
        if name == "id":
            rekey_id(self._id_index, old, value, node)
