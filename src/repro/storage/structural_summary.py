"""Structural summary (DataGuide) for System D.

The paper: "System D keeps a detailed structural summary of the database and
can exploit it to optimize traversal-intensive queries; this actually makes
Q6 and Q7 surprisingly fast" — counts are answered from the summary without
touching the document, and non-existing paths (Q7 looks for paths that do
not exist everywhere) are recognised immediately.

The summary maps every distinct root-to-element path to its *extent*: the
document-ordered list of nodes with that path.  It doubles as the catalogue
behind the Section 7 suggestion of warning about path expressions that
contain non-existing tags.

:meth:`SummaryStore.load` builds it in its own token pass, registering
each path at its first node; writes register new paths through
:meth:`StructuralSummary.extent`.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass


@dataclass(slots=True)
class PathEntry:
    """One distinct path: its extent and pre-computed cardinality."""

    path: tuple[str, ...]
    nodes: list[int] | array     # a write's list, or a compacted array

    @property
    def count(self) -> int:
        return len(self.nodes)


class StructuralSummary:
    """DataGuide over a tree store's node arrays."""

    __slots__ = ("_entries", "_by_tag", "_tags", "_through")

    def __init__(self) -> None:
        self._entries: dict[tuple[str, ...], PathEntry] = {}
        self._by_tag: dict[str, list[PathEntry]] = {}
        self._tags: set[str] = set()
        # paths_through's answers, dropped whenever a path is registered
        self._through: dict[tuple[tuple[str, ...], str], list[PathEntry]] = {}

    def register(self, path: tuple[str, ...], nodes: list[int] | array) -> PathEntry:
        """Enter ``path``, not yet in the summary, with the extent ``nodes``.

        Entries keep the order they were registered in: a load registers
        each path at its first node in pre-order."""
        entry = PathEntry(path, nodes)
        self._entries[path] = entry
        self._by_tag.setdefault(path[-1], []).append(entry)
        self._tags.add(path[-1])
        self._through.clear()
        return entry

    def extent(self, path: tuple[str, ...]) -> list[int]:
        """The live extent of ``path`` as a list a write may edit: the
        entry is registered when the path is new, a compacted extent is
        thawed on its first write."""
        entry = self._entries.get(path)
        if entry is None:
            entry = self.register(path, [])
        elif not isinstance(entry.nodes, list):
            entry.nodes = list(entry.nodes)
        return entry.nodes

    # -- queries --------------------------------------------------------------

    def entry(self, path: tuple[str, ...]) -> PathEntry | None:
        return self._entries.get(path)

    def count(self, path: tuple[str, ...]) -> int:
        """Extent cardinality; 0 for paths that do not exist (Q7's trick)."""
        entry = self._entries.get(path)
        return entry.count if entry else 0

    def nodes(self, path: tuple[str, ...]) -> list[int]:
        entry = self._entries.get(path)
        return entry.nodes if entry else []

    def paths_through(self, prefix: tuple[str, ...], tag: str) -> list[PathEntry]:
        """Entries ending in ``tag`` that strictly extend ``prefix`` —
        resolves a descendant step without touching the document.

        The answer is kept until a path is registered, and the same list
        is returned on every call: a caller must not change it."""
        key = (prefix, tag)
        found = self._through.get(key)
        if found is None:
            depth = len(prefix)
            found = self._through[key] = [
                entry for entry in self._by_tag.get(tag, ())
                if len(entry.path) > depth and entry.path[:depth] == prefix]
        return found

    def paths_ending_in(self, tag: str) -> list[PathEntry]:
        return list(self._by_tag.get(tag, ()))

    def has_tag(self, tag: str) -> bool:
        return tag in self._tags

    def tags(self) -> frozenset[str]:
        return frozenset(self._tags)

    def path_count(self) -> int:
        """Number of distinct paths (the summary's size in 'schema' terms)."""
        return len(self._entries)

    def compact(self) -> None:
        """Freeze extents into packed 64-bit arrays.

        This is System D's compactness story made real: after bulkload the
        extents are immutable, so a packed array (8 bytes/node, no per-item
        object overhead) replaces the build-time extent; a copy, so an
        array the load grew by appending is exactly sized.
        """
        for entry in self._entries.values():
            entry.nodes = array("q", entry.nodes)

    def size_bytes(self) -> int:
        total = sys.getsizeof(self._entries)
        for entry in self._entries.values():
            total += sys.getsizeof(entry.nodes)
            if isinstance(entry.nodes, list):
                total += 8 * len(entry.nodes)
            total += sum(sys.getsizeof(part) for part in entry.path)
        return total
