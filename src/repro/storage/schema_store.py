"""System C analogue: DTD-derived inlined relational schema.

The paper's System C "reads in a DTD and lets the user generate an optimized
database schema ... this additional information helps to get favorable
performance", and it uses "a data mapping in the spirit of [23] that results
in comparatively simple and efficient execution plans and thus outperforms
all other systems for Q2 and Q3".

The mapping itself lives in :mod:`repro.storage.schema_spec`; this store
interprets it twice — once to shred the parsed document into typed relations,
and once to answer the navigation API by reading columns instead of walking
trees.  Document-centric subtrees are CLOB fragments parsed on demand
(with a buffer-pool-like cache) plus an extracted text column so full-text
predicates (Q14) avoid the parse.
"""

from __future__ import annotations

import sys
import threading

from repro.errors import RelationalError, StorageError
from repro.relational.catalog import Catalog
from repro.relational.table import Column, ColumnType
from repro.storage.interface import Store, rekey_id
from repro.storage.schema_spec import (
    CONTAINER_CONTENTS, ENTITY_SPECS, TABLE_OF_TAG,
    ChildSpec, EntitySpec, FragLeaf, Leaf, Nested, RefLeaf, Struct, Wrapper,
)
from repro.xmlio.dom import Element, Text
from repro.xmlio.escape import escape_attribute, escape_text
from repro.xmlio.parser import END, START, parse, tokens
from repro.xmlio.serialize import serialize

_INT = ColumnType.INT
_STR = ColumnType.STR

#: Tags that only occur inside CLOB fragments.
FRAGMENT_TAGS = frozenset(("text", "parlist", "listitem", "bold", "keyword", "emph"))

_SITE_CHILDREN = ("regions", "categories", "catgraph", "people",
                  "open_auctions", "closed_auctions")
_REGION_TAGS = ("africa", "asia", "australia", "europe", "namerica", "samerica")


def _spec_at(spec: EntitySpec, idx_path: tuple[int, ...]) -> ChildSpec:
    """Resolve a child spec by its index path within an entity spec."""
    children = spec.children
    node: ChildSpec | None = None
    for index in idx_path:
        node = children[index]
        children = node.children if isinstance(node, Struct) else ()
    if node is None:
        raise StorageError(f"empty idx_path into spec {spec.tag!r}")
    return node


def _holder(entity: tuple, kind: str, idx_path: tuple[int, ...]) -> tuple:
    """The handle of the struct (``"s"``) or wrapper (``"w"``) at
    ``idx_path`` inside ``entity``, or ``entity`` itself for an empty path."""
    return (kind, entity[1], entity[2], idx_path) if idx_path else entity


#: (parent tag, tag) of every element the schema stores as a CLOB.
_FRAGMENT_ROOTS = frozenset(
    (holder.tag, child.tag)
    for spec in ENTITY_SPECS.values()
    for holder in (spec, *(child for child in spec.children if isinstance(child, Struct)))
    for child in holder.children if isinstance(child, FragLeaf))


class _Clob(Element):
    """A CLOB fragment root as the load reads it: its markup and string
    value, captured from the token stream, and no subtree."""

    __slots__ = ("xml", "text")


def _open_tag(name: str, attributes: tuple[tuple[str, str], ...]) -> str:
    return "<" + name + "".join(
        f' {key}="{escape_attribute(value)}"' for key, value in attributes)


def _parse_capturing_clobs(text: str) -> Element:
    """Parse ``text`` into a DOM whose CLOB fragment roots are :class:`_Clob`
    leaves.  A fragment's markup is what ``serialize`` gives for its
    subtree and its text what ``text_content`` gives, but the subtree is
    never built nor walked twice."""
    top = Element("")               # the root's parent: every START has one
    open_elements = [top]
    clob = None
    for kind, value, attributes in tokens(text):
        if clob is not None:
            # Inside a fragment: ``unclosed`` is the last open tag still
            # lacking its ">", ``depth`` the fragment's open elements.
            if kind == END:
                markup.append("/>" if unclosed else f"</{value}>")
                unclosed, depth = False, depth - 1
                if not depth:
                    clob.xml, clob.text = "".join(markup), "".join(string)
                    clob = None
                continue
            if unclosed:
                markup.append(">")
            unclosed = kind == START
            if unclosed:
                markup.append(_open_tag(value, attributes))
                depth += 1
            else:
                markup.append(escape_text(value))
                string.append(value)
        elif kind == START:
            parent = open_elements[-1]
            if (parent.tag, value) in _FRAGMENT_ROOTS:
                clob = parent.append(_Clob(value, dict(attributes)))
                markup, string = [_open_tag(value, attributes)], []
                unclosed, depth = True, 1
            else:
                open_elements.append(parent.append(Element(value, dict(attributes))))
        elif kind == END:
            open_elements.pop()
        else:
            open_elements[-1].append_text(value)
    return top.children[0]


class _Fragment:
    """One parsed CLOB fragment: pre-order node list for stable handles."""

    __slots__ = ("root", "nodes", "index_of")

    def __init__(self, root: Element) -> None:
        self.root = root
        self.nodes: list[Element] = list(root.iter())
        self.index_of = {id(node): i for i, node in enumerate(self.nodes)}


class SchemaStore(Store):
    """DTD-derived inlined schema (System C)."""

    architecture = "relational, DTD-derived inlined schema + CLOB fragments (System C)"

    def __init__(self, fragment_cache_size: int = 4096) -> None:
        super().__init__()
        self.catalog = Catalog()
        self._frag_xml: list[str] = []
        self._frag_text: list[str] = []
        self._frag_tag: list[str] = []
        self._frag_owner: list[tuple] = []      # owner base position + idx path
        self._frag_cache: dict[int, _Fragment] = {}
        self._frag_cache_size = fragment_cache_size
        self._frag_cache_lock = threading.Lock()
        self._container_ord: dict[str, int] = {}
        self._id_index: dict[str, tuple] = {}
        self._nested_spec_idx: dict[tuple[str, str], int] = {}
        #: Nested table -> (handle kind, index path) of what holds its rows
        #: inside the owner: ("s", ()) is the owner entity itself.
        self._nested_holder: dict[str, tuple[str, tuple[int, ...]]] = {}
        self._reachable: dict[str, frozenset[str]] = {}
        # Direct table handles for navigation: the catalog (with its counted
        # metadata accesses) is the *compile-time* surface; at run time the
        # executor works from resolved plans, like a real DBMS.
        self._tables: dict[str, object] = {}
        self._locations: dict[str, list[tuple]] = {}
        self._child_maps: dict[tuple, dict] = {}
        self._next_ord = 0                      # ord allocator for inserted entities

    # ------------------------------------------------------------------ load --

    def load(self, text: str) -> None:
        root = _parse_capturing_clobs(text)
        if root.tag != "site":
            raise StorageError("schema store requires an auction 'site' document")
        self.catalog = Catalog()
        self._frag_xml, self._frag_text = [], []
        self._frag_tag, self._frag_owner = [], []
        self._frag_cache = {}
        self._container_ord = {}
        self._id_index = {}
        self._make_tables()
        self._compute_reachability()
        bulk: dict[str, list[tuple[str, list]]] = {}
        for spec in ENTITY_SPECS.values():
            table = self.catalog.table(spec.table)
            bulk[spec.table] = list(zip(
                [column.name for column in table.columns], table.buffers()))

        counter = 0

        def next_ord() -> int:
            nonlocal counter
            counter += 1
            return counter

        self._container_ord["site"] = next_ord()
        regions = root.find("regions")
        self._container_ord["regions"] = next_ord()
        for region_tag in _REGION_TAGS:
            region = regions.find(region_tag) if regions else None
            self._container_ord[region_tag] = next_ord()
            if region is None:
                continue
            for item in region.find_all("item"):
                self._shred_entity(item, ENTITY_SPECS["item"], next_ord,
                                   extra={"region": region_tag}, bulk=bulk)
        for container, entity_tag in (
            ("categories", "category"), ("catgraph", "edge"), ("people", "person"),
            ("open_auctions", "open_auction"), ("closed_auctions", "closed_auction"),
        ):
            holder = root.find(container)
            self._container_ord[container] = next_ord()
            if holder is None:
                continue
            for element in holder.find_all(entity_tag):
                self._shred_entity(element, ENTITY_SPECS[entity_tag], next_ord, bulk=bulk)

        self.catalog.seal()
        self._tables = {spec.table: self.catalog.table(spec.table)
                        for spec in ENTITY_SPECS.values()}
        self._compute_locations()
        self._next_ord = counter
        self.mark_loaded(text)

    def _compute_locations(self) -> None:
        """For every tag, where it lives: (table, kind, data) triples.

        kind is "row" (the table's own entity tag), "spec" (a leaf/struct/
        wrapper at an idx_path) or "frag" (a CLOB column).  This is the
        schema knowledge a DTD-derived mapping navigates by.
        """
        self._locations = {}

        def note(tag: str, entry: tuple) -> None:
            self._locations.setdefault(tag, []).append(entry)

        for spec in ENTITY_SPECS.values():
            note(spec.tag, (spec.table, "row", None))

            def visit(children: tuple, base: tuple[int, ...]) -> None:
                for index, child in enumerate(children):
                    path = base + (index,)
                    if isinstance(child, (Leaf, RefLeaf)):
                        note(child.tag, (spec.table, "spec", path))
                    elif isinstance(child, FragLeaf):
                        note(child.tag, (spec.table, "frag", child.column))
                    elif isinstance(child, Struct):
                        note(child.tag, (spec.table, "spec", path))
                        visit(child.children, path)
                    elif isinstance(child, Wrapper):
                        note(child.tag, (spec.table, "spec", path))

            visit(spec.children, ())

    def _make_tables(self) -> None:
        for spec in ENTITY_SPECS.values():
            columns = [Column("ord", _INT, nullable=False, key=True)]
            if spec.table in self._nested_tables():
                columns.append(Column("parent", _INT, nullable=False, indexed=True))
                columns.append(Column("pos", _INT, nullable=False))
            for name in spec.iter_columns():
                if name.endswith("_present"):
                    columns.append(Column(name, _INT))
                else:
                    columns.append(Column(name, _STR))
            self.catalog.create_table(spec.table, columns)

    @staticmethod
    def _nested_tables() -> frozenset[str]:
        return frozenset(("incategory", "mail", "interest", "watch", "bidder"))

    def _compute_reachability(self) -> None:
        """Tag sets reachable below each entity table (fragments included)."""
        self._nested_spec_idx.clear()
        self._nested_holder.clear()

        def reach(spec: EntitySpec) -> frozenset[str]:
            tags: set[str] = set()

            def visit(children: tuple, base: tuple[int, ...]) -> None:
                for index, child in enumerate(children):
                    path = base + (index,)
                    if isinstance(child, Leaf):
                        tags.add(child.tag)
                    elif isinstance(child, RefLeaf):
                        tags.add(child.tag)
                    elif isinstance(child, FragLeaf):
                        tags.add(child.tag)
                        tags.update(FRAGMENT_TAGS)
                    elif isinstance(child, Struct):
                        tags.add(child.tag)
                        visit(child.children, path)
                    elif isinstance(child, Nested):
                        self._nested_spec_idx[(spec.table, child.table)] = index
                        self._nested_holder[child.table] = ("s", base)
                        nested = ENTITY_SPECS[child.table]
                        tags.add(nested.tag)
                        tags.update(reach_cache(nested))
                    elif isinstance(child, Wrapper):
                        tags.add(child.tag)
                        self._nested_spec_idx[(spec.table, child.nested.table)] = index
                        self._nested_holder[child.nested.table] = ("w", path)
                        nested = ENTITY_SPECS[child.nested.table]
                        tags.add(nested.tag)
                        tags.update(reach_cache(nested))

            visit(spec.children, ())
            return frozenset(tags)

        cache: dict[str, frozenset[str]] = {}

        def reach_cache(spec: EntitySpec) -> frozenset[str]:
            if spec.table not in cache:
                cache[spec.table] = frozenset()  # break cycles (none expected)
                cache[spec.table] = reach(spec)
            return cache[spec.table]

        for spec in ENTITY_SPECS.values():
            self._reachable[spec.table] = reach_cache(spec)

    # -- shredding -----------------------------------------------------------------

    def _shred_entity(self, element: Element, spec: EntitySpec, next_ord,
                      extra: dict | None = None,
                      parent_ord: int | None = None, pos: int | None = None,
                      bulk: dict[str, list[tuple[str, list]]] | None = None) -> int:
        """Shred one entity and its nested sets; return its ord.  With
        ``bulk`` (table name -> (column, buffer) pairs, the bulkload) each
        row goes to the column buffers; without it, through
        :meth:`Table.append`.  Either way its ID is indexed by row."""
        ord_value = next_ord()
        values: dict = {"ord": ord_value}
        if parent_ord is not None:
            values["parent"] = parent_ord
            values["pos"] = pos
        if extra:
            values.update(extra)
        for attr, column in spec.attr_columns:
            values[column] = element.attributes.get(attr)

        base_position = (ord_value,) if parent_ord is None else None
        # Nested children are shredded after the owner row exists, so collect.
        pending_nested: list[tuple[Nested, Element]] = []

        def walk(children: tuple, holder: Element, idx_base: tuple[int, ...]) -> None:
            for index, child in enumerate(children):
                if isinstance(child, Leaf):
                    node = holder.find(child.tag)
                    values[child.column] = node.immediate_text() if node is not None else None
                elif isinstance(child, RefLeaf):
                    node = holder.find(child.tag)
                    for attr, column in child.attr_columns:
                        values[column] = node.attributes.get(attr) if node is not None else None
                elif isinstance(child, FragLeaf):
                    node = holder.find(child.tag)
                    if node is None:
                        values[child.column] = None
                    else:
                        frag_id = self._store_fragment(node, ord_value, idx_base + (index,))
                        values[child.column] = str(frag_id)
                elif isinstance(child, Struct):
                    node = holder.find(child.tag)
                    values[child.presence_column] = 1 if node is not None else 0
                    for attr, column in child.attr_columns:
                        values[column] = node.attributes.get(attr) if node is not None else None
                    if node is not None:
                        walk(child.children, node, idx_base + (index,))
                    else:
                        for column in _columns_below(child):
                            values.setdefault(column, None)
                elif isinstance(child, Nested):
                    for occurrence in holder.find_all(child.tag):
                        pending_nested.append((child, occurrence))
                elif isinstance(child, Wrapper):
                    node = holder.find(child.tag)
                    if child.presence_column:
                        values[child.presence_column] = 1 if node is not None else 0
                    if node is not None:
                        for occurrence in node.find_all(child.nested.tag):
                            pending_nested.append((child.nested, occurrence))

        walk(spec.children, element, ())
        if bulk is None:
            row = self.catalog.table(spec.table).append(**values)
        else:
            columns = bulk[spec.table]
            row = len(columns[0][1])
            for column, buffer in columns:
                buffer.append(values.get(column))
        for attr, column in spec.attr_columns:
            if attr == "id" and values[column] is not None:
                self._id_index[values[column]] = ("e", spec.table, row)
        for slot, (nested, occurrence) in enumerate(pending_nested):
            self._shred_entity(occurrence, ENTITY_SPECS[nested.table], next_ord,
                               parent_ord=ord_value, pos=slot, bulk=bulk)
        return ord_value

    def _store_fragment(self, node: Element, owner_ord: int,
                        idx_path: tuple[int, ...]) -> int:
        frag_id = len(self._frag_xml)
        if isinstance(node, _Clob):
            self._frag_xml.append(node.xml)
            self._frag_text.append(node.text)
        else:
            self._frag_xml.append(serialize(node))
            self._frag_text.append(node.text_content())
        self._frag_tag.append(node.tag)
        self._frag_owner.append((owner_ord,) + idx_path)
        return frag_id

    def size_bytes(self) -> int:
        self.require_loaded()
        total = self.catalog.estimated_bytes()
        total += sum(sys.getsizeof(x) for x in self._frag_xml)
        total += sum(sys.getsizeof(x) for x in self._frag_text)
        return total

    # -- fragment access ------------------------------------------------------------

    def _fragment(self, frag_id: int) -> _Fragment:
        cached = self._frag_cache.get(frag_id)
        if cached is None:
            self.stats.fragments_parsed += 1
            cached = _Fragment(parse(self._frag_xml[frag_id]).root)
            # Concurrent readers share the buffer pool; evict under a lock so
            # two simultaneous misses cannot race the same victim out twice.
            with self._frag_cache_lock:
                if len(self._frag_cache) >= self._frag_cache_size:
                    self._frag_cache.pop(next(iter(self._frag_cache)), None)
                self._frag_cache[frag_id] = cached
        return cached

    # -- navigation -------------------------------------------------------------------

    def root(self):
        self.require_loaded()
        return ("t", "site")

    def tag(self, node) -> str:
        kind = node[0]
        if kind == "t":
            return node[1]
        if kind == "e":
            return ENTITY_SPECS[node[1]].tag
        if kind in ("s", "w", "l"):
            spec = _spec_at(ENTITY_SPECS[node[1]], node[3])
            return spec.tag
        if kind == "fn":
            if node[2] == 0:
                # Fragment roots answer from the extracted tag column: the
                # index builder (and any tag probe) must not force a CLOB
                # parse just to learn the root's name.
                return self._frag_tag[node[1]]
            return self._fragment(node[1]).nodes[node[2]].tag
        raise StorageError(f"bad handle {node!r}")

    def _table_rows(self, table_name: str, region: str | None) -> list[int]:
        table = self._tables[table_name]
        self.stats.table_lookups += len(table)
        if region is None:
            return list(table.live_rows())
        regions = table.column("region")
        return [row for row in table.live_rows() if regions[row] == region]

    def _nested_rows(self, table_name: str, owner_ord: int) -> list[int]:
        self.stats.index_lookups += 1
        rows = self._tables[table_name].lookup("parent", owner_ord)
        self.stats.table_lookups += len(rows)
        return list(rows)

    def children(self, node) -> list:
        kind = node[0]
        self.stats.nodes_visited += 1
        if kind == "t":
            container = node[1]
            if container == "site":
                return [("t", tag) for tag in _SITE_CHILDREN]
            if container == "regions":
                return [("t", tag) for tag in _REGION_TAGS]
            table_name, filter_column = CONTAINER_CONTENTS[container]
            region = container if filter_column else None
            return [("e", table_name, row)
                    for row in self._table_rows(table_name, region)]
        if kind == "e":
            return self._spec_children(node[1], node[2], ENTITY_SPECS[node[1]].children, ())
        if kind == "s":
            spec = _spec_at(ENTITY_SPECS[node[1]], node[3])
            return self._spec_children(node[1], node[2], spec.children, node[3])
        if kind == "w":
            spec = _spec_at(ENTITY_SPECS[node[1]], node[3])
            owner_ord = self._ord_of(node[1], node[2])
            return [("e", spec.nested.table, row)
                    for row in self._nested_rows(spec.nested.table, owner_ord)]
        if kind == "l":
            return []
        if kind == "fn":
            fragment = self._fragment(node[1])
            element = fragment.nodes[node[2]]
            return [("fn", node[1], fragment.index_of[id(child)])
                    for child in element.child_elements()]
        raise StorageError(f"bad handle {node!r}")

    def _spec_children(self, table: str, row: int, children: tuple,
                       idx_base: tuple[int, ...]) -> list:
        table_obj = self._tables[table]
        self.stats.table_lookups += 1
        result: list = []
        for index, child in enumerate(children):
            path = idx_base + (index,)
            if isinstance(child, Leaf):
                if table_obj.get(row, child.column) is not None:
                    result.append(("l", table, row, path))
            elif isinstance(child, RefLeaf):
                if table_obj.get(row, child.presence_column) is not None:
                    result.append(("l", table, row, path))
            elif isinstance(child, FragLeaf):
                if table_obj.get(row, child.column) is not None:
                    result.append(("fn", int(table_obj.get(row, child.column)), 0))
            elif isinstance(child, Struct):
                if table_obj.get(row, child.presence_column):
                    result.append(("s", table, row, path))
            elif isinstance(child, Nested):
                owner_ord = self._ord_of(table, row)
                result.extend(("e", child.table, nested_row)
                              for nested_row in self._nested_rows(child.table, owner_ord))
            elif isinstance(child, Wrapper):
                present = True
                if child.presence_column:
                    present = bool(table_obj.get(row, child.presence_column))
                if present:
                    result.append(("w", table, row, path))
        return result

    def _ord_of(self, table: str, row: int) -> int:
        return self._tables[table].get(row, "ord")

    def children_by_tag(self, node, tag: str) -> list:
        """Direct tag resolution against the derived schema.

        An inlined mapping never scans siblings: the (table, tag) pair
        names the column / nested relation outright — the paper's "simple
        and efficient execution plans" of System C.
        """
        kind = node[0]
        if kind == "e" or kind == "s":
            table, row = node[1], node[2]
            idx_base = node[3] if kind == "s" else ()
            entry = self._child_map(table, idx_base).get(tag)
            if entry is None:
                return []
            index, child = entry
            return self._materialize_child(table, row, idx_base + (index,), child)
        if kind == "w":
            spec = _spec_at(ENTITY_SPECS[node[1]], node[3])
            if ENTITY_SPECS[spec.nested.table].tag != tag:
                return []
            owner_ord = self._ord_of(node[1], node[2])
            return [("e", spec.nested.table, r)
                    for r in self._nested_rows(spec.nested.table, owner_ord)]
        return [child for child in self.children(node) if self.tag(child) == tag]

    def _child_map(self, table: str, idx_base: tuple[int, ...]):
        # Built purely from the static entity specs, so a concurrent rebuild
        # produces an identical dict and the single reference store is benign.
        key = (table, idx_base)
        cached = self._child_maps.get(key)
        if cached is None:
            spec = ENTITY_SPECS[table] if not idx_base else _spec_at(
                ENTITY_SPECS[table], idx_base)
            children = spec.children
            cached = {}
            for index, child in enumerate(children):
                if isinstance(child, Nested):
                    cached[ENTITY_SPECS[child.table].tag] = (index, child)
                else:
                    cached[child.tag] = (index, child)
            self._child_maps[key] = cached
        return cached

    def _materialize_child(self, table: str, row: int, path: tuple[int, ...],
                           child) -> list:
        table_obj = self._tables[table]
        self.stats.table_lookups += 1
        if isinstance(child, Leaf):
            if table_obj.get(row, child.column) is not None:
                return [("l", table, row, path)]
            return []
        if isinstance(child, RefLeaf):
            if table_obj.get(row, child.presence_column) is not None:
                return [("l", table, row, path)]
            return []
        if isinstance(child, FragLeaf):
            value = table_obj.get(row, child.column)
            return [("fn", int(value), 0)] if value is not None else []
        if isinstance(child, Struct):
            if table_obj.get(row, child.presence_column):
                return [("s", table, row, path)]
            return []
        if isinstance(child, Nested):
            owner_ord = table_obj.get(row, "ord")
            return [("e", child.table, r)
                    for r in self._nested_rows(child.table, owner_ord)]
        if isinstance(child, Wrapper):
            present = True
            if child.presence_column:
                present = bool(table_obj.get(row, child.presence_column))
            return [("w", table, row, path)] if present else []
        return []

    def descendants_by_tag(self, node, tag: str) -> list:
        """Schema-aware descent.

        From a container handle, the derived schema knows *exactly* which
        relations and columns can hold ``tag``, so the extent is read
        directly from tables — no tree walk (this is C's DTD advantage on
        the regular-path queries).  Entity-rooted descents fall back to a
        reachability-pruned walk.
        """
        if node[0] == "t":
            direct = self._container_descendants(node[1], tag)
            if direct is not None:
                return direct
        result: list = []
        stack = [child for child in reversed(self.children(node))
                 if self._may_contain(child, tag)]
        while stack:
            current = stack.pop()
            if self.tag(current) == tag:
                result.append(current)
            stack.extend(child for child in reversed(self.children(current))
                         if self._may_contain(child, tag))
        return result

    _CONTAINER_TABLES = {
        "site": tuple(ENTITY_SPECS),
        "regions": ("item", "incategory", "mail"),
        "africa": ("item",), "asia": ("item",), "australia": ("item",),
        "europe": ("item",), "namerica": ("item",), "samerica": ("item",),
        "categories": ("category",),
        "catgraph": ("edge",),
        "people": ("person", "interest", "watch"),
        "open_auctions": ("open_auction", "bidder"),
        "closed_auctions": ("closed_auction",),
    }

    def _container_descendants(self, container: str, tag: str) -> list | None:
        """Read a tag's extent straight from the derived relations.

        Returns None when the extent cannot be computed from columns alone
        (region-scoped non-item tags), signalling the generic walk.
        """
        tables = self._CONTAINER_TABLES.get(container)
        if tables is None:
            return None
        region = container if container in _REGION_TAGS else None
        locations = self._locations.get(tag)
        if locations is None:
            return None  # container tags etc.: generic walk
        handles: list = []
        for table_name, kind, data in locations:
            if table_name not in tables:
                continue
            if region is not None and not (kind == "row" and table_name == "item"):
                return None
            table = self._tables[table_name]
            rows = table.live_rows()
            self.stats.table_lookups += len(table)
            if region is not None:
                regions = table.column("region")
                rows = (row for row in rows if regions[row] == region)
            if kind == "row":
                handles.extend(("e", table_name, row) for row in rows)
            elif kind == "frag":
                column = table.column(data)
                handles.extend(("fn", int(column[row]), 0)
                               for row in rows if column[row] is not None)
            else:  # "spec": leaf / struct / wrapper at an idx_path
                spec = _spec_at(ENTITY_SPECS[table_name], data)
                present = self._presence_rows(table, spec, rows)
                if isinstance(spec, Struct):
                    handles.extend(("s", table_name, row, data) for row in present)
                elif isinstance(spec, Wrapper):
                    handles.extend(("w", table_name, row, data) for row in present)
                else:
                    handles.extend(("l", table_name, row, data) for row in present)
        if len(locations) > 1:
            handles.sort(key=self.doc_position)
        return handles

    def _presence_rows(self, table, spec, rows):
        if isinstance(spec, Leaf):
            column = table.column(spec.column)
            return [row for row in rows if column[row] is not None]
        if isinstance(spec, RefLeaf):
            column = table.column(spec.presence_column)
            return [row for row in rows if column[row] is not None]
        if isinstance(spec, Struct):
            column = table.column(spec.presence_column)
            return [row for row in rows if column[row]]
        if isinstance(spec, Wrapper):
            if spec.presence_column is None:
                return list(rows)
            column = table.column(spec.presence_column)
            return [row for row in rows if column[row]]
        return []

    def _may_contain(self, node, tag: str) -> bool:
        if self.tag(node) == tag:
            return True
        kind = node[0]
        if kind == "t":
            container = node[1]
            if container == "site":
                return True
            if container == "regions":
                return tag == "item" or tag in self._reachable["item"]
            table_name, _ = CONTAINER_CONTENTS[container]
            spec = ENTITY_SPECS[table_name]
            return tag == spec.tag or tag in self._reachable[table_name]
        if kind == "e":
            return tag in self._reachable[node[1]]
        if kind in ("s", "w"):
            spec = _spec_at(ENTITY_SPECS[node[1]], node[3])
            tags: set[str] = set()
            _collect_spec_tags(spec, tags)
            return tag in tags
        if kind == "l":
            return False
        if kind == "fn":
            return tag in FRAGMENT_TAGS
        return False

    def parent(self, node):
        kind = node[0]
        if kind == "t":
            if node[1] == "site":
                return None
            if node[1] in _REGION_TAGS:
                return ("t", "regions")
            return ("t", "site")
        if kind == "e":
            table = node[1]
            table_obj = self._tables[table]
            if table_obj.has_column("parent"):
                owner = self._entity_by_ord(table_obj.get(node[2], "parent"))
                return _holder(owner, *self._nested_holder[table])
            spec = ENTITY_SPECS[table]
            if spec.table == "item":
                region = table_obj.get(node[2], "region")
                return ("t", region)
            for container, (held, _) in CONTAINER_CONTENTS.items():
                if held == table and container not in _REGION_TAGS:
                    return ("t", container)
            return None
        if kind in ("s", "w", "l"):
            if len(node[3]) == 1:
                return ("e", node[1], node[2])
            return ("s", node[1], node[2], node[3][:-1])
        if kind == "fn":
            fragment = self._fragment(node[1])
            element = fragment.nodes[node[2]]
            if element.parent is None:
                owner = self._frag_owner[node[1]]
                return _holder(self._entity_by_ord(owner[0]), "s", owner[1:-1])
            return ("fn", node[1], fragment.index_of[id(element.parent)])
        raise StorageError(f"bad handle {node!r}")

    def _entity_by_ord(self, ord_value: int):
        for name, table in self._tables.items():
            row = table.row_of(ord_value)
            if row is not None:
                return ("e", name, row)
        return None

    def attribute(self, node, name: str) -> str | None:
        kind = node[0]
        if kind == "e":
            spec = ENTITY_SPECS[node[1]]
            for attr, column in spec.attr_columns:
                if attr == name:
                    self.stats.table_lookups += 1
                    return self._tables[node[1]].get(node[2], column)
            return None
        if kind in ("s", "l"):
            spec = _spec_at(ENTITY_SPECS[node[1]], node[3])
            attr_columns = getattr(spec, "attr_columns", ())
            for attr, column in attr_columns:
                if attr == name:
                    self.stats.table_lookups += 1
                    return self._tables[node[1]].get(node[2], column)
            return None
        if kind == "fn":
            return self._fragment(node[1]).nodes[node[2]].attributes.get(name)
        return None

    def attributes(self, node) -> dict[str, str]:
        kind = node[0]
        if kind == "e":
            spec = ENTITY_SPECS[node[1]]
            table = self._tables[node[1]]
            self.stats.table_lookups += 1
            return {attr: table.get(node[2], column)
                    for attr, column in spec.attr_columns
                    if table.get(node[2], column) is not None}
        if kind in ("s", "l"):
            spec = _spec_at(ENTITY_SPECS[node[1]], node[3])
            attr_columns = getattr(spec, "attr_columns", ())
            table = self._tables[node[1]]
            self.stats.table_lookups += 1
            return {attr: table.get(node[2], column)
                    for attr, column in attr_columns
                    if table.get(node[2], column) is not None}
        if kind == "fn":
            return dict(self._fragment(node[1]).nodes[node[2]].attributes)
        return {}

    def child_texts(self, node) -> list[str]:
        kind = node[0]
        if kind == "l":
            spec = _spec_at(ENTITY_SPECS[node[1]], node[3])
            if isinstance(spec, Leaf):
                self.stats.table_lookups += 1
                value = self._tables[node[1]].get(node[2], spec.column)
                return [value] if value is not None else []
            return []
        if kind == "fn":
            element = self._fragment(node[1]).nodes[node[2]]
            return [child.value for child in element.children if isinstance(child, Text)]
        return []

    def string_value(self, node) -> str:
        kind = node[0]
        if kind == "fn":
            if node[2] == 0:
                return self._frag_text[node[1]]  # extracted text column
            return self._fragment(node[1]).nodes[node[2]].text_content()
        if kind == "l":
            texts = self.child_texts(node)
            return texts[0] if texts else ""
        parts: list[str] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current[0] in ("l", "fn"):
                parts.append(self.string_value(current))
            else:
                stack.extend(reversed(self.children(current)))
        return "".join(parts)

    def content(self, node) -> list:
        kind = node[0]
        if kind == "l":
            return list(self.child_texts(node))
        if kind == "fn":
            fragment = self._fragment(node[1])
            element = fragment.nodes[node[2]]
            return [
                child.value if isinstance(child, Text)
                else ("fn", node[1], fragment.index_of[id(child)])
                for child in element.children
            ]
        return list(self.children(node))

    #: Container holding each top-level entity table (items carry a region).
    _TABLE_CONTAINER = {
        "category": "categories", "edge": "catgraph", "person": "people",
        "open_auction": "open_auctions", "closed_auction": "closed_auctions",
    }

    def _rank_of(self, table: str, row: int) -> int:
        """The containing top-level container's ord — the leading component
        of every entity's document position.  Ords allocated for inserted
        entities exceed every load-time ord, so prefixing the (fixed)
        container rank keeps cross-container document order correct while
        appends within a container sort by ord as before."""
        table_obj = self._tables[table]
        if table_obj.has_column("parent"):
            owner = self._entity_by_ord(table_obj.get(row, "parent"))
            return self._rank_of(owner[1], owner[2])
        if table == "item":
            return self._container_ord[table_obj.get(row, "region")]
        return self._container_ord[self._TABLE_CONTAINER[table]]

    def doc_position(self, node):
        kind = node[0]
        if kind == "t":
            return (self._container_ord.get(node[1], 0),)
        if kind == "e":
            table = self._tables[node[1]]
            rank = self._rank_of(node[1], node[2])
            if table.has_column("parent"):
                owner_ord = table.get(node[2], "parent")
                owner_table = self._owner_table(node[1])
                spec_idx = self._nested_spec_idx[(owner_table, node[1])]
                return (rank, owner_ord, spec_idx, table.get(node[2], "pos"))
            return (rank, table.get(node[2], "ord"))
        if kind in ("s", "w", "l"):
            base = self.doc_position(("e", node[1], node[2]))
            return base + node[3]
        if kind == "fn":
            owner = self._frag_owner[node[1]]
            entity = self._entity_by_ord(owner[0])
            rank = self._rank_of(entity[1], entity[2]) if entity is not None else 0
            return (rank,) + owner + (node[2],)
        raise StorageError(f"bad handle {node!r}")

    def order_key(self, node, keys=None):
        """Ord-based positions are cheap here — no relabeling to avoid."""
        return self.doc_position(node)

    def _owner_table(self, nested_table: str) -> str:
        for (owner, nested), _ in self._nested_spec_idx.items():
            if nested == nested_table:
                return owner
        raise StorageError(f"no owner for nested table {nested_table!r}")

    # -- capabilities ------------------------------------------------------------------

    def lookup_id(self, value: str):
        self.stats.index_lookups += 1
        return self._id_index.get(value)

    def has_id_index(self) -> bool:
        return True

    def known_tags(self) -> frozenset[str]:
        tags: set[str] = set(_SITE_CHILDREN) | {"site"} | set(_REGION_TAGS)
        for table, reachable in self._reachable.items():
            tags.add(ENTITY_SPECS[table].tag)
            tags.update(reachable)
        return frozenset(tags)

    def table(self, name: str):
        """Direct typed-relation access (used by the relational fast paths)."""
        return self.catalog.table(name)

    def entity_handle(self, table: str, row: int):
        return ("e", table, row)

    # -- mutation: schema-directed shredding and cascaded tuple deletes -------------
    #
    # A DTD-derived mapping can only take writes the derived schema has a
    # place for: whole entities (person, bidder, closed_auction, ...) are
    # shredded into their relations exactly like at bulkload — appended at
    # their set's end, which is the only position the schema can express —
    # and scalar writes update inlined columns.  Anything else (a new
    # element kind, a mid-set insert) raises, which is the honest behaviour
    # of a schema-bound store.

    def _allocate_ord(self) -> int:
        self._next_ord += 1
        return self._next_ord

    def insert_child(self, parent, element, index: int | None = None):
        self.require_loaded()
        kind = parent[0]
        if kind == "t":
            entry = CONTAINER_CONTENTS.get(parent[1])
            if entry is None or TABLE_OF_TAG.get(element.tag) != entry[0]:
                raise StorageError(
                    f"the derived schema has no place for <{element.tag}> "
                    f"under <{parent[1]}>")
            table_name = entry[0]
            extra = {"region": parent[1]} if entry[1] else None
            ord_value = self._shred_entity(element, ENTITY_SPECS[table_name],
                                           self._allocate_ord, extra=extra)
        elif kind in ("e", "w"):
            if kind == "w":
                spec = _spec_at(ENTITY_SPECS[parent[1]], parent[3])
                nested = spec.nested
            else:
                entry = self._child_map(parent[1], ()).get(element.tag)
                if entry is None or not isinstance(entry[1], Nested):
                    raise StorageError(
                        f"the derived schema has no set-valued place for "
                        f"<{element.tag}> under <{self.tag(parent)}>")
                nested = entry[1]
            if ENTITY_SPECS[nested.table].tag != element.tag:
                raise StorageError(
                    f"<{element.tag}> does not match the nested set "
                    f"<{ENTITY_SPECS[nested.table].tag}>")
            owner_ord = self._ord_of(parent[1], parent[2])
            existing = self._nested_rows(nested.table, owner_ord)
            table_name = nested.table
            table = self._tables[table_name]
            next_pos = (max(table.get(row, "pos") for row in existing) + 1
                        if existing else 0)
            ord_value = self._shred_entity(element, ENTITY_SPECS[table_name],
                                           self._allocate_ord,
                                           parent_ord=owner_ord, pos=next_pos)
        else:
            raise StorageError(
                f"the inlined schema cannot insert under handle {parent!r}")
        return ("e", table_name, self._tables[table_name].row_of(ord_value))

    def _nested_tables_of(self, table_name: str) -> list[str]:
        return [nested for owner, nested in self._nested_spec_idx
                if owner == table_name]

    def remove_node(self, node) -> None:
        self.require_loaded()
        if node[0] != "e":
            raise StorageError(
                f"the inlined schema only removes whole entities, not {node!r}")
        doomed: list[tuple[str, int]] = []
        stack = [(node[1], node[2])]
        while stack:
            table_name, row = stack.pop()
            doomed.append((table_name, row))
            owner_ord = self._ord_of(table_name, row)
            for nested in self._nested_tables_of(table_name):
                stack.extend((nested, nested_row)
                             for nested_row in self._nested_rows(nested, owner_ord))
        for table_name, row in doomed:
            table = self._tables[table_name]
            try:
                table.delete(row)
            except RelationalError as exc:
                raise StorageError(f"node {node!r} was already removed") from exc
            for attr, column in ENTITY_SPECS[table_name].attr_columns:
                if attr == "id":
                    value = table.get(row, column)
                    if value is not None and \
                            self._id_index.get(value) == ("e", table_name, row):
                        del self._id_index[value]

    def set_text(self, node, text: str) -> None:
        self.require_loaded()
        if node[0] != "l":
            raise StorageError(
                f"the inlined schema only retexts leaf columns, not {node!r}")
        spec = _spec_at(ENTITY_SPECS[node[1]], node[3])
        if not isinstance(spec, Leaf):
            raise StorageError(f"handle {node!r} is not an inlined PCDATA leaf")
        self._tables[node[1]].set(node[2], spec.column, text)

    def set_attribute(self, node, name: str, value: str) -> None:
        self.require_loaded()
        kind = node[0]
        if kind == "e":
            attr_columns = ENTITY_SPECS[node[1]].attr_columns
        elif kind in ("s", "l"):
            attr_columns = getattr(
                _spec_at(ENTITY_SPECS[node[1]], node[3]), "attr_columns", ())
        else:
            raise StorageError(
                f"the inlined schema cannot set attributes on {node!r}")
        for attr, column in attr_columns:
            if attr == name:
                table = self._tables[node[1]]
                old = table.get(node[2], column)
                table.set(node[2], column, value)
                if kind == "e" and attr == "id":
                    rekey_id(self._id_index, old, value, ("e", node[1], node[2]))
                return
        raise StorageError(
            f"the derived schema has no column for @{name} on {self.tag(node)!r}")


def _columns_below(struct: Struct):
    for child in struct.children:
        if isinstance(child, Leaf):
            yield child.column
        elif isinstance(child, RefLeaf):
            for _, column in child.attr_columns:
                yield column
        elif isinstance(child, FragLeaf):
            yield child.column
        elif isinstance(child, Struct):
            yield child.presence_column
            for _, column in child.attr_columns:
                yield column
            yield from _columns_below(child)


def _collect_spec_tags(spec: ChildSpec, into: set[str]) -> None:
    if isinstance(spec, Leaf) or isinstance(spec, RefLeaf):
        into.add(spec.tag)
    elif isinstance(spec, FragLeaf):
        into.add(spec.tag)
        into.update(FRAGMENT_TAGS)
    elif isinstance(spec, Struct):
        into.add(spec.tag)
        for child in spec.children:
            _collect_spec_tags(child, into)
    elif isinstance(spec, Nested):
        into.add(spec.tag)
        nested = ENTITY_SPECS[spec.table]
        for child in nested.children:
            _collect_spec_tags(child, into)
    elif isinstance(spec, Wrapper):
        into.add(spec.tag)
        _collect_spec_tags(spec.nested, into)
