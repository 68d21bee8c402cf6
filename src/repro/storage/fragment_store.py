"""System B analogue: the "highly fragmenting" per-path relational mapping.

The paper on System B: "System B on the other hand uses a highly fragmenting
mapping. Consequently, System A has to access fewer metadata to compile a
query than System B, thus spending only half as much time on query
compilation ... [but B's] actual cost of accessing the real data is
[lower]".

Every distinct root-to-element path gets its own relation (the Monet/binary
association style of [20]):

* ``site/people/person``            -> (pre, post, parent, pos)
* ``site/people/person/@id``        -> (parent, value)
* ``site/people/person/name/#text`` -> (pre, parent, pos, value)

Navigation inside a known path is a small-table index probe (fast), but
*every* step resolution goes through the catalog by table name, and
descendant steps must inspect the whole catalog — the metadata weight that
dominates B's compile times in Table 2.
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

Path = tuple[str, ...]
Handle = tuple[Path, int]


def _table_name(path: Path) -> str:
    return "/".join(path)


def _text_table_name(path: Path) -> str:
    return _table_name(path) + "/#text"


def _attr_table_name(path: Path, attr: str) -> str:
    return _table_name(path) + "/@" + attr


_ELEM_COLUMNS = [
    Column("pre", _INT, nullable=False, key=True),
    Column("post", _INT, nullable=False),
    Column("parent", _INT, indexed=True),
    Column("pos", _INT, nullable=False),
]
_TEXT_COLUMNS = [
    Column("pre", _INT, nullable=False),
    Column("parent", _INT, nullable=False, indexed=True),
    Column("pos", _INT, nullable=False),
    Column("value", _STR, nullable=False),
]
_ATTR_COLUMNS = [
    Column("parent", _INT, nullable=False, indexed=True),
    Column("value", _STR, nullable=False),
]


class _PathLoad:
    """One distinct path's column buffers while a document loads."""

    __slots__ = ("path", "columns", "texts", "children", "attrs")

    def __init__(self, path: Path) -> None:
        self.path = path
        self.columns: list[list] | None = None      # the element table's
        self.texts: list[list] | None = None        # the #text table's
        self.children: dict[str, _PathLoad] = {}
        self.attrs: dict[str, list[list]] = {}


class FragmentStore(Store):
    """One relation per distinct path (System B)."""

    architecture = "relational, one table per distinct path (System B)"
    native_path_extents = True          # a path's extent is its table

    def __init__(self) -> None:
        super().__init__()
        self.catalog = Catalog()
        self._children_map: dict[Path, list[str]] = {}
        self._text_paths: set[Path] = set()
        self._attr_map: dict[Path, list[str]] = {}
        self._paths_by_tag: dict[str, list[Path]] = {}
        self._id_index: dict[str, Handle] = {}
        self._root_path: Path = ()
        self._text_tables_below: dict[Path, list[str]] = {}
        self._next_pre = 0                      # pre allocator for inserted tuples
        self._mutated = False                   # pre order == doc order until then
        self._order: dict[Handle, int] | None = None

    # -- bulkload -----------------------------------------------------------------

    def load(self, text: str) -> None:
        self.catalog = catalog = Catalog()
        self._children_map = {}
        self._text_paths = set()
        self._attr_map = {}
        self._paths_by_tag = {}
        self._id_index = id_index = {}
        self._text_tables_below = {}

        sequence = 0
        # One frame per open element: [path buffers, pre, next slot, row].
        stack: list[list] = []
        top = _PathLoad(())                     # the document node's children

        for kind, value, attributes in tokens(text):
            if kind == START:
                if stack:
                    frame = stack[-1]
                    parent, parent_pre, slot = frame[0], frame[1], frame[2]
                    frame[2] = slot + 1
                else:
                    parent, parent_pre, slot = top, None, 0
                current = parent.children.get(value)
                if current is None:
                    current = parent.children[value] = _PathLoad(parent.path + (value,))
                    self._register_path(current.path, parent.path)
                    current.columns = catalog.create_table(
                        _table_name(current.path), _ELEM_COLUMNS).buffers()
                pres, posts, parents, poss = current.columns
                row = len(pres)
                pres.append(sequence)
                posts.append(sequence)
                parents.append(parent_pre)
                poss.append(slot)
                for name, attribute in attributes:
                    attr_columns = current.attrs.get(name)
                    if attr_columns is None:
                        attr_columns = current.attrs[name] = catalog.create_table(
                            _attr_table_name(current.path, name), _ATTR_COLUMNS).buffers()
                        self._attr_map.setdefault(current.path, []).append(name)
                    attr_columns[0].append(sequence)
                    attr_columns[1].append(attribute)
                    if name == "id":
                        id_index[attribute] = (current.path, sequence)
                stack.append([current, sequence, 0, row])
                sequence += 1
            elif kind == END:
                current, _, _, row = stack.pop()
                current.columns[1][row] = sequence - 1
            else:
                frame = stack[-1]
                current, slot = frame[0], frame[2]
                frame[2] = slot + 1
                text_columns = current.texts
                if text_columns is None:
                    text_columns = current.texts = catalog.create_table(
                        _text_table_name(current.path), _TEXT_COLUMNS).buffers()
                    self._text_paths.add(current.path)
                text_columns[0].append(sequence)
                text_columns[1].append(frame[1])
                text_columns[2].append(slot)
                text_columns[3].append(value)
                sequence += 1

        catalog.seal()
        # Resolve the text tables below every registered path now: the catalog
        # never changes after load, and precomputing keeps string_value() free
        # of shared mutable scratch, so concurrent readers are safe.
        below: dict[Path, list[str]] = {path: [] for path in self._children_map}
        for text_path in self._text_paths:
            name = _text_table_name(text_path)
            for depth in range(1, len(text_path) + 1):
                prefix = text_path[:depth]
                if prefix in below:
                    below[prefix].append(name)
        self._text_tables_below = {path: sorted(names) for path, names in below.items()}
        self._next_pre = sequence
        self._mutated = False
        self._order = None
        self.mark_loaded(text)

    def _register_path(self, path: Path, parent_path: Path) -> None:
        self._children_map[path] = []
        if parent_path in self._children_map and path[-1] not in self._children_map[parent_path]:
            self._children_map[parent_path].append(path[-1])
        self._paths_by_tag.setdefault(path[-1], []).append(path)
        if len(path) == 1:
            self._root_path = path

    def size_bytes(self) -> int:
        self.require_loaded()
        return self.catalog.estimated_bytes()

    @property
    def table_count(self) -> int:
        return self.catalog.table_count()

    # -- path metadata (counted catalog traffic) -------------------------------------

    def paths_extending(self, prefix: Path, tag: str) -> list[Path]:
        """All registered element paths that extend ``prefix`` and end in
        ``tag`` — a full catalog inspection, the B compile-time workload."""
        prefix_name = _table_name(prefix)
        matches = self.catalog.match_table_names(
            lambda name: name.startswith(prefix_name + "/")
            and name.endswith("/" + tag)
            and "#" not in name and "@" not in name
        )
        return [tuple(name.split("/")) for name in matches]

    def child_path_exists(self, prefix: Path, tag: str) -> bool:
        return self.catalog.has_table(_table_name(prefix + (tag,)))

    # -- navigation -----------------------------------------------------------------

    def root(self) -> Handle:
        self.require_loaded()
        return (self._root_path, 0)

    def tag(self, node: Handle) -> str:
        return node[0][-1]

    def children(self, node: Handle) -> list[Handle]:
        path, pre = node
        merged: list[tuple[int, Handle]] = []
        for tag in self._children_map.get(path, ()):
            child_path = path + (tag,)
            table = self.catalog.table(_table_name(child_path))
            self.stats.index_lookups += 1
            rows = table.lookup("parent", pre)
            self.stats.table_lookups += len(rows)
            pres = table.column("pre")
            poss = table.column("pos")
            merged.extend((poss[row], (child_path, pres[row])) for row in rows)
        merged.sort(key=lambda pair: pair[0])
        return [handle for _, handle in merged]

    def children_by_tag(self, node: Handle, tag: str) -> list[Handle]:
        path, pre = node
        child_path = path + (tag,)
        if not self.catalog.has_table(_table_name(child_path)):
            return []
        table = self.catalog.table(_table_name(child_path))
        self.stats.index_lookups += 1
        rows = table.lookup("parent", pre)
        self.stats.table_lookups += len(rows)
        pres = table.column("pre")
        if self._mutated:
            # Row order is append order, not sibling order, once tuples
            # have been inserted: restore it from the pos column.
            poss = table.column("pos")
            rows = sorted(rows, key=poss.__getitem__)
            return [(child_path, pres[row]) for row in rows]
        return [(child_path, pres[row]) for row in sorted(rows)]

    def descendants_by_tag(self, node: Handle, tag: str) -> list[Handle]:
        if self._mutated:
            # Inserted pres break the per-table pre intervals: navigate.
            found: list[Handle] = []
            stack = [child for child in reversed(self.children(node))]
            while stack:
                current = stack.pop()
                if current[0][-1] == tag:
                    found.append(current)
                stack.extend(reversed(self.children(current)))
            return found
        path, pre = node
        post = self._post_of(node)
        found = []
        for descendant_path in self.paths_extending(path, tag):
            table = self.catalog.table(_table_name(descendant_path))
            pres = table.column("pre")
            start = bisect_right(pres, pre)
            stop = bisect_right(pres, post)
            self.stats.table_lookups += stop - start
            found.extend((descendant_path, pres[row]) for row in range(start, stop))
        found.sort(key=lambda handle: handle[1])
        return found

    def _row_of(self, node: Handle) -> int:
        path, pre = node
        self.stats.index_lookups += 1
        row = self.catalog.table(_table_name(path)).row_of(pre)
        if row is None:
            raise StorageError(f"no live row for handle {node!r}")
        return row

    def _post_of(self, node: Handle) -> int:
        table = self.catalog.table(_table_name(node[0]))
        return table.get(self._row_of(node), "post")

    def parent(self, node: Handle) -> Handle | None:
        path, _ = node
        if len(path) <= 1:
            return None
        table = self.catalog.table(_table_name(path))
        parent_pre = table.get(self._row_of(node), "parent")
        self.stats.table_lookups += 1
        return (path[:-1], parent_pre)

    def attribute(self, node: Handle, name: str) -> str | None:
        path, pre = node
        if name not in self._attr_map.get(path, ()):
            return None
        table = self.catalog.table(_attr_table_name(path, name))
        self.stats.index_lookups += 1
        rows = table.lookup("parent", pre)
        if not rows:
            return None
        self.stats.table_lookups += 1
        return table.get(rows[0], "value")

    def attributes(self, node: Handle) -> dict[str, str]:
        path, _ = node
        result: dict[str, str] = {}
        for name in self._attr_map.get(path, ()):
            value = self.attribute(node, name)
            if value is not None:
                result[name] = value
        return result

    def child_texts(self, node: Handle) -> list[str]:
        path, pre = node
        if path not in self._text_paths:
            return []
        table = self.catalog.table(_text_table_name(path))
        self.stats.index_lookups += 1
        rows = table.lookup("parent", pre)
        self.stats.table_lookups += len(rows)
        values = table.column("value")
        return [values[row] for row in rows]

    def string_value(self, node: Handle) -> str:
        if self._mutated:
            parts: list[str] = []
            stack: list = [node]
            while stack:
                current = stack.pop()
                if isinstance(current, str):
                    parts.append(current)
                else:
                    stack.extend(reversed(self.content(current)))
            return "".join(parts)
        path, pre = node
        post = self._post_of(node)
        collected: list[tuple[int, str]] = []
        # The text tables below a path never change after load; the mapping is
        # precomputed at load time (a real system would have this in its
        # compiled plan), so this read path mutates no shared state.
        text_tables = self._text_tables_below.get(path, ())
        for name in text_tables:
            table = self.catalog.table(name)
            pres = table.column("pre")
            values = table.column("value")
            start = bisect_left(pres, pre)
            stop = bisect_right(pres, post)
            self.stats.table_lookups += stop - start
            collected.extend((pres[row], values[row]) for row in range(start, stop))
        collected.sort(key=lambda pair: pair[0])
        return "".join(value for _, value in collected)

    def content(self, node: Handle) -> list:
        path, pre = node
        merged: list[tuple[int, object]] = [
            (self._pos_of(child), child) for child in self.children(node)
        ]
        if path in self._text_paths:
            table = self.catalog.table(_text_table_name(path))
            self.stats.index_lookups += 1
            rows = table.lookup("parent", pre)
            poss = table.column("pos")
            values = table.column("value")
            merged.extend((poss[row], values[row]) for row in rows)
        merged.sort(key=lambda pair: pair[0])
        return [part for _, part in merged]

    def _pos_of(self, node: Handle) -> int:
        table = self.catalog.table(_table_name(node[0]))
        return table.get(self._row_of(node), "pos")

    sibling_position = _pos_of

    def doc_position(self, node: Handle) -> int:
        if not self._mutated:
            return node[1]
        if self._order is None:
            self._order = rank_by_walk(self)
        return self._order[node]

    # -- capabilities ------------------------------------------------------------------

    def lookup_id(self, value: str) -> Handle | None:
        self.stats.index_lookups += 1
        return self._id_index.get(value)

    def has_id_index(self) -> bool:
        return True

    def nodes_at_path(self, path: Path) -> list[Handle] | None:
        """A path extent is exactly one table scan in this mapping."""
        name = _table_name(path)
        if not self.catalog.has_table(name):
            return []
        table = self.catalog.table(name)
        pres = table.column("pre")
        self.stats.table_lookups += len(pres)
        handles = [(path, pres[row]) for row in table.live_rows()]
        if self._mutated:
            handles.sort(key=self.doc_position)
        return handles

    def known_tags(self) -> frozenset[str]:
        return frozenset(self._paths_by_tag)

    # -- mutation: tuple inserts/deletes across the per-path relations ------------------

    def _note_mutation(self) -> None:
        self._mutated = True
        self._order = None

    def _ensure_elem_table(self, path: Path, parent_path: Path):
        name = _table_name(path)
        if not self.catalog.has_table(name):
            self.catalog.ensure_table(name, _ELEM_COLUMNS)
            self._register_path(path, parent_path)
            self._text_tables_below.setdefault(path, [])
        return self.catalog.table(name)

    def _ensure_text_table(self, path: Path):
        name = _text_table_name(path)
        if not self.catalog.has_table(name):
            self.catalog.ensure_table(name, _TEXT_COLUMNS)
            self._text_paths.add(path)
            for depth in range(1, len(path) + 1):
                prefix = path[:depth]
                tables = self._text_tables_below.setdefault(prefix, [])
                if name not in tables:
                    tables.append(name)
                    tables.sort()
        return self.catalog.table(name)

    def _ensure_attr_table(self, path: Path, attr: str):
        name = _attr_table_name(path, attr)
        if not self.catalog.has_table(name):
            self.catalog.ensure_table(name, _ATTR_COLUMNS)
        if attr not in self._attr_map.setdefault(path, []):
            self._attr_map[path].append(attr)
        return self.catalog.table(name)

    def _content_pos(self, node: Handle, index: int | None) -> int:
        """The pos value for a new child at element ``index``, shifting the
        pos of every following sibling tuple across all child relations.

        Past the last child (``index`` None or out of range) it is one
        past the highest pos in the parent-index rows of ``node`` in each
        child relation, the text relation included: no handle is built,
        nothing is sorted and no tuple is fetched by ``pre``.
        """
        path, pre = node
        children = self.children(node) if index is not None else ()
        if index is None or index >= len(children):
            names = [_table_name(path + (tag,))
                     for tag in self._children_map.get(path, ())]
            if path in self._text_paths:
                names.append(_text_table_name(path))
            highest = -1
            for name in names:
                table = self.catalog.table(name)
                rows = table.lookup("parent", pre)
                self.stats.index_lookups += 1
                if rows:
                    poss = table.column("pos")
                    highest = max(highest, max(poss[row] for row in rows))
            return highest + 1
        target = self._pos_of(children[index])
        names = [_table_name(path + (tag,)) for tag in self._children_map.get(path, ())]
        if path in self._text_paths:
            names.append(_text_table_name(path))
        for name in names:
            table = self.catalog.table(name)
            for row in table.lookup("parent", pre):
                pos = table.get(row, "pos")
                if pos >= target:
                    table.set(row, "pos", pos + 1)
        return target

    def insert_child(self, parent: Handle, element: Element,
                     index: int | None = None) -> Handle:
        self.require_loaded()
        pos = self._content_pos(parent, index)
        handle = self._insert_subtree(element, parent[0], parent[1], pos)
        self._note_mutation()
        return handle

    def _insert_subtree(self, element: Element, parent_path: Path,
                        parent_pre: int | None, pos: int) -> Handle:
        path = parent_path + (element.tag,)
        table = self._ensure_elem_table(path, parent_path)
        pre = self._next_pre
        self._next_pre += 1
        table.append(pre=pre, post=pre, parent=parent_pre, pos=pos)
        for name, value in element.attributes.items():
            self._ensure_attr_table(path, name).append(parent=pre, value=value)
            if name == "id":
                self._id_index[value] = (path, pre)
        slot = 0
        for child in element.children:
            if isinstance(child, Text):
                text_table = self._ensure_text_table(path)
                text_pre = self._next_pre
                self._next_pre += 1
                text_table.append(pre=text_pre, parent=pre, pos=slot,
                                  value=child.value)
            else:
                self._insert_subtree(child, path, pre, slot)
            slot += 1
        return (path, pre)

    def remove_node(self, node: Handle) -> None:
        self.require_loaded()
        if len(node[0]) <= 1:
            raise StorageError("cannot remove the document root")
        if self.catalog.table(_table_name(node[0])).row_of(node[1]) is None:
            raise StorageError(f"node {node!r} was already removed")
        parent, removed_pos = self.parent(node), self._pos_of(node)
        doomed = [node]
        stack = list(self.children(node))
        while stack:
            current = stack.pop()
            doomed.append(current)
            stack.extend(self.children(current))
        for path, pre in doomed:
            table = self.catalog.table(_table_name(path))
            table.delete(table.row_of(pre))
            for attr in self._attr_map.get(path, ()):
                attr_table = self.catalog.table(_attr_table_name(path, attr))
                for attr_row in list(attr_table.lookup("parent", pre)):
                    value = attr_table.get(attr_row, "value")
                    if attr == "id" and self._id_index.get(value) == (path, pre):
                        del self._id_index[value]
                    attr_table.delete(attr_row)
            if path in self._text_paths:
                text_table = self.catalog.table(_text_table_name(path))
                for text_row in list(text_table.lookup("parent", pre)):
                    text_table.delete(text_row)
        self._merge_runs_around(parent, removed_pos)
        self._note_mutation()

    def _merge_runs_around(self, parent: Handle, removed_pos: int) -> None:
        """Merge the two text runs of ``parent`` that the removal of its
        child at ``removed_pos`` left side by side."""
        path, pre = parent
        if path not in self._text_paths:
            return
        table = self.catalog.table(_text_table_name(path))
        poss = table.column("pos")
        merge = runs_made_adjacent(
            [(poss[row], row) for row in table.lookup("parent", pre)],
            (self._pos_of(child) for child in self.children(parent)), removed_pos)
        if merge is not None:
            before, after = merge
            table.set(before, "value", table.get(before, "value") + table.get(after, "value"))
            table.delete(after)

    def set_text(self, node: Handle, text: str) -> None:
        self.require_loaded()
        path, pre = node
        if path in self._text_paths:
            table = self.catalog.table(_text_table_name(path))
            rows = sorted(table.lookup("parent", pre), key=table.column("pos").__getitem__)
        else:
            rows = []
        if rows:
            if text:
                table.set(rows[0], "value", text)
                extra = rows[1:]
            else:
                extra = rows
            for row in extra:
                table.delete(row)
        elif text:
            pos = self._content_pos(node, None)
            table = self._ensure_text_table(path)
            text_pre = self._next_pre
            self._next_pre += 1
            table.append(pre=text_pre, parent=pre, pos=pos, value=text)
        self._note_mutation()

    def set_attribute(self, node: Handle, name: str, value: str) -> None:
        self.require_loaded()
        path, pre = node
        table = self._ensure_attr_table(path, name)
        rows, old = table.lookup("parent", pre), None
        if rows:
            old = table.get(rows[0], "value")
            table.set(rows[0], "value", value)
        else:
            table.append(parent=pre, value=value)
        if name == "id":
            rekey_id(self._id_index, old, value, (path, pre))
        self._note_mutation()
