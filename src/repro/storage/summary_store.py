"""System D analogue: compact main-memory store with a structural summary.

System D is the paper's overall winner: main-memory resident, the *smallest*
database (142 MB for the 100 MB document — its mapping is more compact than
the raw text plus DOM overhead), the fastest bulkload, and near-instant
regular-path queries thanks to its "detailed structural summary".

Compactness here is real, not claimed: relative to :class:`TreeStore` this
store drops the redundant child lists, interns tags, and freezes content
lists into tuples; the structural summary and ID index it adds are smaller
than what was removed.

Document order is the order label :class:`TreeStore` keeps valid under
writes: a descendant step is two bisects on the label per matching
summary extent, before and after updates alike.

Concurrency: every read path (navigation, summary probes, ID lookups)
only reads — writes, which the service runs with every reader drained,
are the only thing that changes the arrays, the labels or the extents —
and keeps no shared mutable scratch, so the query service may execute
plans against one loaded instance from many threads.  The ``stats``
counters are the only shared writes; under races they can undercount
but never affect results.
"""

from __future__ import annotations

import sys
from array import array

from repro.storage.interface import splice_subtree
from repro.storage.structural_summary import StructuralSummary
from repro.storage.tree_store import TreeStore


class SummaryStore(TreeStore):
    """Main-memory store with DataGuide summary and ID index (System D)."""

    architecture = "main memory + structural summary (DataGuide) + ID index (System D)"

    def __init__(self) -> None:
        super().__init__()
        self._summary: StructuralSummary | None = None
        self._id_index: dict[str, int] = {}

    def load(self, text: str) -> None:
        super().load(text)
        # Compact representation: no redundant child lists, frozen content,
        # packed 64-bit arrays for the structural columns, trimmed to size.
        self._children = []
        self._content = [tuple(parts) for parts in self._content]
        self._summary = StructuralSummary.build(self._tags, self._parents)
        self._summary.compact()
        self._parents = array("q", self._parents)
        self._posts = array("q", self._posts)
        self._id_index = {}
        for node, attrs in enumerate(self._attrs):
            if attrs:
                identifier = attrs.get("id")
                if identifier is not None:
                    self._id_index[identifier] = node

    @property
    def summary(self) -> StructuralSummary:
        self.require_loaded()
        assert self._summary is not None
        return self._summary

    # -- navigation (children derived from content; no redundant lists) ---------

    def children(self, node: int) -> list[int]:
        self.stats.nodes_visited += 1
        return [part for part in self._content[node] if isinstance(part, int)]

    def children_by_tag(self, node: int, tag: str) -> list[int]:
        self.stats.nodes_visited += 1
        tags = self._tags
        return [
            part for part in self._content[node]
            if isinstance(part, int) and tags[part] == tag
        ]

    def children_by_path(self, node: int, names: tuple[str, ...]) -> list[int]:
        """The whole run of child steps as one scan of content tuples per
        step, counting a visit per (step, node) as the per-step loop does."""
        tags, content = self._tags, self._content
        found, visited = [node], 0
        for name in names:
            visited += len(found)
            found = [part for parent in found for part in content[parent]
                     if part.__class__ is int and tags[part] == name]
        self.stats.nodes_visited += visited
        return found

    def size_bytes(self) -> int:
        self.require_loaded()
        # _parents/_posts are packed arrays: getsizeof covers their payload.
        total = sum(
            sys.getsizeof(lst)
            for lst in (self._tags, self._parents, self._posts, self._attrs, self._content)
        )
        total += self._payload_bytes()
        total += self.summary.size_bytes()
        total += sys.getsizeof(self._id_index) + 16 * len(self._id_index)
        return total

    # -- summary-powered capabilities ---------------------------------------------

    def descendants_by_tag(self, node: int, tag: str) -> list[int]:
        """Resolve via the summary: only matching path extents are touched,
        each with two bisects on the order label."""
        self.stats.index_lookups += 1
        entries = self.summary.paths_through(self._path_of(node), tag)
        found: list[int] = []
        for entry in entries:
            found += self._window(entry.nodes, node)
        if len(entries) > 1:
            found = self._in_document_order(found)
        self.stats.nodes_visited += len(found)
        return found

    def count_path(self, path: tuple[str, ...]) -> int | None:
        self.stats.index_lookups += 1
        return self.summary.count(path)

    def nodes_at_path(self, path: tuple[str, ...]) -> list[int] | None:
        self.stats.index_lookups += 1
        return list(self.summary.nodes(path))

    def known_tags(self) -> frozenset[str]:
        return self.summary.tags()

    def lookup_id(self, value: str) -> int | None:
        self.stats.index_lookups += 1
        return self._id_index.get(value)

    def has_id_index(self) -> bool:
        return True

    # -- mutation hooks: summary extents and the ID index take deltas ------------

    _maintains_child_lists = False      # children derive from content

    def _seal_content(self, parts: list) -> tuple:
        return tuple(parts)

    def _splice_content(self, parent: int, slot: int, node_id: int) -> None:
        parts = list(self._content[parent])
        parts.insert(slot, node_id)
        self._content[parent] = tuple(parts)

    def _unsplice_content(self, parent: int, node_id: int) -> None:
        parts = list(self._content[parent])
        parts.remove(node_id)
        self._content[parent] = tuple(parts)

    def _after_insert(self, new_ids: list[int]) -> None:
        anchor = self._parents[new_ids[0]]
        paths = {anchor: self._path_of(anchor)}
        subtree = []
        for node in new_ids:                # pre-order: parents come first
            path = paths[node] = paths[self._parents[node]] + (self._tags[node],)
            subtree.append((node, path))
            attrs = self._attrs[node]
            if attrs:
                identifier = attrs.get("id")
                if identifier is not None:
                    self._id_index[identifier] = node
        splice_subtree(self, subtree, self._summary.extent)

    def _after_remove(self, removed: list[tuple[int, tuple[str, ...]]]) -> None:
        root = removed[0][0]
        for path in {path for _node, path in removed}:
            self._drop_window(self._summary.extent(path), root)
        for node, _path in removed:
            attrs = self._attrs[node]
            if attrs:
                identifier = attrs.get("id")
                if identifier is not None and self._id_index.get(identifier) == node:
                    del self._id_index[identifier]

    def _after_set_attribute(self, node: int, name: str, value: str) -> None:
        if name == "id":
            self._id_index[value] = node
