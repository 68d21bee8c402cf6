"""Columnar tables with typed columns.

A non-null INT column is an ``array('q')``: eight bytes a cell, and a value
outside 64 bits has no place in it.  STR columns and nullable INT columns
are lists (a nullable cell reads back as None).

A bulk load appends raw values to the column buffers of :meth:`Table.buffers`
and calls :meth:`Table.seal` once: no kwargs dict per row and no coercion per
cell.  The seal checks and coerces each column in one pass — building the
array is the INT check — and only a column that fails the check is coerced a
cell at a time, so a bad value still raises the typed
:class:`~repro.errors.RelationalError`.  :meth:`Table.append` and
:meth:`Table.set` (the write path after the load) coerce every value and
write into the same arrays.

A table owns its row indexes.  A column declared ``indexed`` keeps a hash
index (value -> the live row ids holding it, ascending); :meth:`Table.seal`
builds it from the column in one pass and :meth:`Table.append` and
:meth:`Table.delete` keep it current.  A column declared ``key`` is
allocated from a monotone counter, so it is strictly ascending in row
order and is its own clustered index: :meth:`Table.row_of` bisects it.
A deleted row keeps its cells and its row id (row ids are join keys and
handles) but leaves every index and :meth:`Table.live_rows`.
"""

from __future__ import annotations

import enum
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import lt

from repro.errors import RelationalError

_INT_MIN, _INT_MAX = -(1 << 63), (1 << 63) - 1


class ColumnType(enum.Enum):
    """Supported column types; XML string data coerces into these at load."""

    INT = "int"
    STR = "str"

    def coerce(self, value):
        """Coerce a raw (string) value into this type; None passes through.

        An INT must fit in 64 signed bits, the width of an array column.
        """
        if value is None:
            return None
        try:
            if self is ColumnType.INT:
                result = int(value)
                if not _INT_MIN <= result <= _INT_MAX:
                    raise RelationalError(f"{value!r} does not fit a 64-bit int column")
                return result
            return str(value)
        except (TypeError, ValueError) as exc:
            raise RelationalError(f"cannot coerce {value!r} to {self.value}") from exc


@dataclass(frozen=True, slots=True)
class Column:
    """A column definition.

    ``indexed`` keeps a hash index on the column; ``key`` marks the one
    column of a table whose values a monotone counter allocates (a
    non-null INT, strictly ascending in row order).
    """

    name: str
    type: ColumnType = ColumnType.STR
    nullable: bool = True
    indexed: bool = False
    key: bool = False

    @property
    def is_array(self) -> bool:
        """Stored as ``array('q')`` (a non-null INT column) rather than a list."""
        return self.type is ColumnType.INT and not self.nullable


class Table:
    """A named, columnar, append-only table.

    Row ids are dense integers (the append order), used as join keys and
    index payloads.
    """

    __slots__ = ("name", "columns", "_data", "_column_index", "_staged",
                 "_indexes", "_key", "_dead")

    def __init__(self, name: str, columns: list[Column]) -> None:
        if not columns:
            raise RelationalError(f"table {name!r} needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise RelationalError(f"table {name!r} has duplicate column names")
        keys = [column for column in columns if column.key]
        if len(keys) > 1 or any(not column.is_array for column in keys):
            raise RelationalError(
                f"table {name!r}: a key is one non-null INT column")
        self.name = name
        self.columns = list(columns)
        self._data: dict[str, array | list] = {
            column.name: array("q") if column.is_array else [] for column in columns}
        self._column_index = {column.name: i for i, column in enumerate(columns)}
        self._staged: list[list] | None = None
        self._indexes: dict[str, dict] = {
            column.name: {} for column in columns if column.indexed}
        self._key = keys[0].name if keys else None
        self._dead: set[int] = set()

    def __len__(self) -> int:
        return len(self._data[self.columns[0].name])

    def has_column(self, name: str) -> bool:
        return name in self._column_index

    def column(self, name: str) -> array | list:
        """Direct (read) access to a column's values."""
        try:
            return self._data[name]
        except KeyError:
            raise RelationalError(f"table {self.name!r} has no column {name!r}") from None

    # -- bulk load ------------------------------------------------------------------

    def buffers(self) -> list[list]:
        """Raw column buffers for a bulk load, one list per column in column
        order: append one value to each per row, then :meth:`seal`.

        Staged rows are invisible (and :meth:`append` and :meth:`set` are
        refused) until the seal.  The buffers belong to the table after it.
        """
        if self._staged is None:
            self._staged = [[] for _ in self.columns]
        return self._staged

    def seal(self) -> None:
        """Check and coerce each staged column once and append it to the table.

        All or nothing: a column that fails its check raises
        :class:`RelationalError` and leaves the table as it was before the
        load.
        """
        staged, self._staged = self._staged, None
        if staged is None:
            return
        lengths = {len(values) for values in staged}
        if len(lengths) != 1:
            raise RelationalError(
                f"table {self.name!r}: staged columns differ in length {sorted(lengths)}")
        for index, column in enumerate(self.columns):
            # In place, so each raw buffer is freed as soon as it is typed.
            staged[index] = self._checked(column, staged[index])
            if column.key:
                self._check_ascending(staged[index])
        first = len(self)
        for column, values in zip(self.columns, staged):
            stored = self._data[column.name]
            if stored:
                stored.extend(values)
            else:
                self._data[column.name] = values
        for name, index in self._indexes.items():
            self._index_rows(index, self._data[name], first)

    def _check_ascending(self, values: array) -> None:
        """A key column's new values must continue its strict ascent."""
        stored = self._data[self._key]
        if values and stored and values[0] <= stored[-1] \
                or not all(map(lt, values, islice(values, 1, None))):
            raise RelationalError(
                f"table {self.name!r}: key column {self._key!r} must ascend")

    @staticmethod
    def _index_rows(index: dict, values, first: int) -> None:
        """Add the rows from ``first`` on to ``index``.  A new bucket is a
        one-item list literal: most keys (an attribute's parent) occur once,
        and an appended-to empty list would reserve room for four."""
        get = index.get
        for row_id in range(first, len(values)):
            value = values[row_id]
            bucket = get(value)
            if bucket is None:
                index[value] = [row_id]
            else:
                bucket.append(row_id)

    def _checked(self, column: Column, values: list) -> array | list:
        """One staged column in its stored form: one pass when every value
        already has the column's type, a coercion per cell when not."""
        try:
            if column.is_array:
                try:
                    return array("q", values)
                except TypeError:
                    return array("q", [self._coerced(column, value) for value in values])
            exact = {int} if column.type is ColumnType.INT else {str}
            if column.nullable:
                exact.add(type(None))
            if not set(map(type, values)) <= exact:
                return [self._coerced(column, value) for value in values]
            if column.type is ColumnType.INT:
                array("q", filter(None, values))        # the 64-bit check
            return values
        except OverflowError as exc:
            raise RelationalError(
                f"table {self.name!r}: column {column.name!r} holds an int "
                f"outside 64 bits") from exc

    def _coerced(self, column: Column, value):
        coerced = column.type.coerce(value)
        if coerced is None and not column.nullable:
            raise RelationalError(
                f"table {self.name!r}: column {column.name!r} is not nullable")
        return coerced

    # -- tuple writes -----------------------------------------------------------------

    def _loading(self) -> RelationalError:
        return RelationalError(f"table {self.name!r} is loading; seal() it first")

    def append(self, **values) -> int:
        """Append one row; unspecified nullable columns become None.

        A bad value leaves the table as it was: the columns already grown
        for this row are cut back before the error propagates."""
        if self._staged is not None:
            raise self._loading()
        row_id = len(self)
        data = self._data
        try:
            for column in self.columns:
                name = column.name
                if name in values:
                    value = self._coerced(column, values.pop(name))
                elif column.nullable:
                    value = None
                else:
                    raise RelationalError(
                        f"table {self.name!r}: missing value for non-null column {name!r}")
                if column.key and row_id and value <= data[name][-1]:
                    raise RelationalError(
                        f"table {self.name!r}: key column {name!r} must ascend")
                data[name].append(value)
            if values:
                raise RelationalError(
                    f"table {self.name!r}: unknown columns {sorted(values)}")
        except RelationalError:
            for stored in data.values():
                del stored[row_id:]
            raise
        for name, index in self._indexes.items():
            self._index_rows(index, data[name], row_id)
        return row_id

    def delete(self, row_id: int) -> None:
        """Delete one row: it leaves every index and :meth:`live_rows`.

        Its cells stay readable by row id; deleting a row twice raises."""
        if not 0 <= row_id < len(self) or row_id in self._dead:
            raise RelationalError(
                f"table {self.name!r}: no live row {row_id!r} (already deleted?)")
        self._dead.add(row_id)
        for name, index in self._indexes.items():
            value = self._data[name][row_id]
            bucket = index[value]
            bucket.remove(row_id)
            if not bucket:
                del index[value]

    def get(self, row_id: int, column: str):
        """One cell."""
        return self.column(column)[row_id]

    def set(self, row_id: int, column_name: str, value) -> None:
        """Update one cell in place (a tuple update; coerced like append).

        An indexed or key column is written once, by the append."""
        if self._staged is not None:
            raise self._loading()
        index = self._column_index.get(column_name)
        if index is None:
            raise RelationalError(f"table {self.name!r} has no column {column_name!r}")
        column = self.columns[index]
        if column.indexed or column.key:
            raise RelationalError(
                f"table {self.name!r}: column {column_name!r} is indexed; it is not set")
        self._data[column_name][row_id] = self._coerced(column, value)

    def rows(self, columns: list[str] | None = None):
        """Iterate rows as tuples (a full scan)."""
        names = columns or [column.name for column in self.columns]
        streams = [self._data[name] for name in names]
        return zip(*streams) if streams else iter(())

    # -- indexes and tombstones ---------------------------------------------------------

    def index(self, column_name: str) -> dict:
        """The hash index of an ``indexed`` column: value -> live row ids,
        ascending.  Read it; only the table writes it."""
        try:
            return self._indexes[column_name]
        except KeyError:
            raise RelationalError(
                f"table {self.name!r} has no index on {column_name!r}") from None

    def lookup(self, column_name: str, value) -> list[int]:
        """The live row ids whose indexed column equals ``value``, ascending
        (an empty list if none).  The list is the index's own bucket: copy
        it before deleting rows while walking it."""
        return self.index(column_name).get(value, [])

    def row_of(self, key: int) -> int | None:
        """The live row whose key column holds ``key``, or None: a bisect
        of the ascending key column."""
        if self._key is None:
            raise RelationalError(f"table {self.name!r} has no key column")
        values = self._data[self._key]
        row_id = bisect_left(values, key)
        if row_id < len(values) and values[row_id] == key and row_id not in self._dead:
            return row_id
        return None

    def live_rows(self):
        """The row ids not deleted, ascending."""
        dead = self._dead
        if not dead:
            return range(len(self))
        return (row_id for row_id in range(len(self)) if row_id not in dead)

    def estimated_bytes(self) -> int:
        """Rough in-memory footprint (used for the Table 1 size report): an
        array column is one object, a list column one more per non-null cell,
        and each hash index 16 bytes a row."""
        getsizeof = sys.getsizeof
        total = 0
        for values in self._data.values():
            total += getsizeof(values)
            if isinstance(values, list):
                total += sum(map(getsizeof, values)) - values.count(None) * getsizeof(None)
        return total + len(self._indexes) * len(self) * 16
