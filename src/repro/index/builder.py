"""One-pass index construction through the store navigation API.

The builder walks the document pre-order using only ``children()`` /
``tag()`` / ``children_by_tag()`` / ``attribute()`` / ``child_texts()`` —
the same surface the evaluator navigates — so the identical
:class:`~repro.index.spec.IndexSpec` produces equivalent extents on every
store architecture, and a probe answered from an index is guaranteed to
name the same nodes a scan of that store would.

Subtrees rooted at a spec ``stop_tag`` are recorded (the root node itself
appears in the path index and can carry field values) but never descended
into; on System C's schema store this keeps the CLOB fragments unparsed.
"""

from __future__ import annotations

import time

from repro.errors import StorageError
from repro.index.indexes import PathIndex, SortedNumericIndex, ValueIndex
from repro.index.spec import SORTED, VALUE, FieldSpec, IndexSpec

FieldKey = tuple[tuple[str, ...], tuple[str, ...]]


def extract_values(store, node, accessor: tuple[str, ...]) -> list[str]:
    """The raw key values of ``node`` under ``accessor``.

    Mirrors the evaluator's step semantics exactly: attribute steps yield
    the value when present (empty strings included), ``text()`` steps yield
    the non-empty direct text runs, child steps fan out over all matching
    children.  The result order is document order.
    """
    nodes = [node]
    for position, step in enumerate(accessor):
        terminal = position == len(accessor) - 1
        if step.startswith("@"):
            if not terminal:
                raise StorageError(f"attribute step {step!r} must be terminal")
            name = step[1:]
            values = [store.attribute(n, name) for n in nodes]
            return [value for value in values if value is not None]
        if step == "text()":
            if not terminal:
                raise StorageError("text() step must be terminal")
            return [text for n in nodes for text in store.child_texts(n) if text]
        nodes = [child for n in nodes for child in store.children_by_tag(n, step)]
    # Element-valued accessor (no terminal @attr/text()): the string values.
    return [store.string_value(n) for n in nodes]


class IndexSet:
    """Every secondary index built for one loaded document on one store."""

    __slots__ = ("spec", "fields_at", "values", "sorteds", "paths",
                 "build_seconds", "nodes_walked", "next_seq", "deltas_applied",
                 "maintenance_seconds")

    def __init__(self, spec: IndexSpec) -> None:
        self.spec = spec
        #: The spec's fields by extent path (the spec is frozen): what the
        #: build walk and every maintenance walk look up per node.
        self.fields_at: dict[tuple[str, ...], list[FieldSpec]] = {}
        for field in spec.fields:
            self.fields_at.setdefault(field.path, []).append(field)
        self.values: dict[FieldKey, ValueIndex] = {}
        self.sorteds: dict[FieldKey, SortedNumericIndex] = {}
        self.paths: PathIndex | None = PathIndex() if spec.build_path_index else None
        self.build_seconds = 0.0
        self.nodes_walked = 0
        # Incremental-maintenance state: the build walk's seq counter keeps
        # running so per-node deltas get fresh, monotone document-order-
        # consistent sequence numbers (see repro.index.maintenance).
        self.next_seq = 0
        self.deltas_applied = 0
        self.maintenance_seconds = 0.0

    # -- lookup ------------------------------------------------------------------

    def value_field(self, path: tuple[str, ...],
                    accessor: tuple[str, ...]) -> ValueIndex | None:
        return self.values.get((path, accessor))

    def sorted_field(self, path: tuple[str, ...],
                     accessor: tuple[str, ...]) -> SortedNumericIndex | None:
        return self.sorteds.get((path, accessor))

    def covers_path(self, path: tuple[str, ...]) -> bool:
        """Whether the path index is authoritative for ``path``.

        False everywhere on a set built without one (a store whose
        ``nodes_at_path`` serves every path natively, which the planner
        asks first).  Paths running *through* a stop tag were never
        walked: for those the index cannot distinguish "empty extent"
        from "not indexed", so the planner must fall back to navigation.
        """
        if self.paths is None:
            return False
        return not any(tag in self.spec.stop_tags for tag in path[:-1])

    def path_extent(self, path: tuple[str, ...]) -> list | None:
        """The document-ordered extent of ``path``, or None when uncovered."""
        if not self.covers_path(path):
            return None
        return self.paths.nodes(path)

    # -- reporting ---------------------------------------------------------------

    def size_bytes(self) -> int:
        total = sum(index.size_bytes() for index in self.values.values())
        total += sum(index.size_bytes() for index in self.sorteds.values())
        if self.paths is not None:
            total += self.paths.size_bytes()
        return total

    def summary(self) -> dict:
        return {
            "build_ms": round(self.build_seconds * 1000.0, 3),
            "nodes_walked": self.nodes_walked,
            "deltas_applied": self.deltas_applied,
            "maintenance_ms": round(self.maintenance_seconds * 1000.0, 3),
            "size_bytes": self.size_bytes(),
            "value": [self.values[key].summary() for key in sorted(self.values)],
            "sorted": [self.sorteds[key].summary() for key in sorted(self.sorteds)],
            "paths": self.paths.summary() if self.paths is not None else None,
        }


def build_index_set(store, spec: IndexSpec) -> IndexSet:
    """Build every index of ``spec`` in one document-order walk of ``store``."""
    started = time.perf_counter()
    index_set = IndexSet(spec)
    fields_at = index_set.fields_at
    for field in spec.fields:
        if field.kind == VALUE:
            index_set.values[field.key] = ValueIndex(field)
        elif field.kind == SORTED:
            index_set.sorteds[field.key] = SortedNumericIndex(field)
        else:
            raise StorageError(f"unknown index kind {field.kind!r}")

    paths = index_set.paths
    stop_tags = spec.stop_tags
    root = store.root()
    stack: list[tuple[object, tuple[str, ...]]] = [(root, (store.tag(root),))]
    seq = 0
    while stack:
        node, path = stack.pop()
        if paths is not None:
            paths.add(path, node)
        for field in fields_at.get(path, ()):
            target = (index_set.values[field.key] if field.kind == VALUE
                      else index_set.sorteds[field.key])
            target.extent_size += 1
            raws = extract_values(store, node, field.accessor)
            # Raw-cardinality counters: the planner may only strip an
            # exactly-one()/zero-or-one() wrapper (or fold an arithmetic
            # scale) when the document proves the wrapper could never
            # raise — i.e. when these stay zero.
            if not raws:
                target.nodes_empty += 1
            elif len(raws) > 1:
                target.nodes_multi += 1
            for raw in raws:
                target.add(raw, seq, node)
        seq += 1
        if path[-1] not in stop_tags:
            for child in reversed(store.children(node)):
                stack.append((child, path + (store.tag(child),)))

    for index in index_set.sorteds.values():
        index.freeze()
    index_set.nodes_walked = seq
    index_set.next_seq = seq
    index_set.build_seconds = time.perf_counter() - started
    return index_set
