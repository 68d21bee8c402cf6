"""Equality indexes over table columns."""

from __future__ import annotations

from repro.relational.table import Table


class HashIndex:
    """Equality index: column value -> list of row ids."""

    __slots__ = ("table", "column_name", "_buckets")

    def __init__(self, table: Table, column_name: str) -> None:
        self.table = table
        self.column_name = column_name
        # Built from the column in one pass.  A new bucket is a one-item
        # list literal: most keys (pre, an attribute's parent) occur once,
        # and an appended-to empty list would reserve room for four.
        buckets: dict = {}
        for row_id, value in enumerate(table.column(column_name)):
            bucket = buckets.get(value)
            if bucket is None:
                buckets[value] = [row_id]
            else:
                bucket.append(row_id)
        self._buckets = buckets

    def insert(self, value, row_id: int) -> None:
        """Add one entry (incremental maintenance after a tuple insert)."""
        bucket = self._buckets.get(value)
        if bucket is None:
            self._buckets[value] = [row_id]
        else:
            bucket.append(row_id)

    def remove(self, value, row_id: int) -> None:
        """Drop one entry (incremental maintenance after a tuple delete).

        Missing entries are ignored: a deleted row may never have been
        indexed (NULL-keyed rows are still bucketed under None here, but a
        caller reconstructing the key from a tombstoned row must not fail).
        """
        bucket = self._buckets.get(value)
        if bucket is None:
            return
        try:
            bucket.remove(row_id)
        except ValueError:
            return
        if not bucket:
            del self._buckets[value]

    def lookup(self, value) -> list[int]:
        """Row ids whose column equals ``value`` (empty list if none)."""
        return self._buckets.get(value, [])

    def unique(self, value) -> int | None:
        """The single row id for ``value`` or None (first wins on duplicates)."""
        bucket = self._buckets.get(value)
        return bucket[0] if bucket else None

    def __len__(self) -> int:
        return len(self._buckets)
