"""Columnar tables with typed columns."""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass

from repro.errors import RelationalError


class ColumnType(enum.Enum):
    """Supported column types; XML string data coerces into these at load."""

    INT = "int"
    STR = "str"

    def coerce(self, value):
        """Coerce a raw (string) value into this type; None passes through."""
        if value is None:
            return None
        try:
            if self is ColumnType.INT:
                return int(value)
            return str(value)
        except (TypeError, ValueError) as exc:
            raise RelationalError(f"cannot coerce {value!r} to {self.value}") from exc


@dataclass(frozen=True, slots=True)
class Column:
    """A column definition."""

    name: str
    type: ColumnType = ColumnType.STR
    nullable: bool = True


class Table:
    """A named, columnar, append-only table.

    Storage is one Python list per column — the closest honest analogue of a
    column-oriented relational heap in pure Python.  Row ids are dense
    integers (the append order), used as join keys and index payloads.
    """

    __slots__ = ("name", "columns", "_data", "_column_index")

    def __init__(self, name: str, columns: list[Column]) -> None:
        if not columns:
            raise RelationalError(f"table {name!r} needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise RelationalError(f"table {name!r} has duplicate column names")
        self.name = name
        self.columns = list(columns)
        self._data: dict[str, list] = {column.name: [] for column in columns}
        self._column_index = {column.name: i for i, column in enumerate(columns)}

    def __len__(self) -> int:
        return len(self._data[self.columns[0].name])

    def has_column(self, name: str) -> bool:
        return name in self._column_index

    def column(self, name: str) -> list:
        """Direct (read) access to a column's value list."""
        try:
            return self._data[name]
        except KeyError:
            raise RelationalError(f"table {self.name!r} has no column {name!r}") from None

    def append(self, **values) -> int:
        """Append one row; unspecified nullable columns become None."""
        row_id = len(self)
        for column in self.columns:
            if column.name in values:
                value = column.type.coerce(values.pop(column.name))
            elif column.nullable:
                value = None
            else:
                raise RelationalError(
                    f"table {self.name!r}: missing value for non-null column {column.name!r}"
                )
            self._data[column.name].append(value)
        if values:
            raise RelationalError(
                f"table {self.name!r}: unknown columns {sorted(values)}"
            )
        return row_id

    def get(self, row_id: int, column: str):
        """One cell."""
        return self.column(column)[row_id]

    def set(self, row_id: int, column_name: str, value) -> None:
        """Update one cell in place (a tuple update; coerced like append)."""
        for column in self.columns:
            if column.name == column_name:
                coerced = column.type.coerce(value)
                if coerced is None and not column.nullable:
                    raise RelationalError(
                        f"table {self.name!r}: column {column_name!r} is not nullable")
                self._data[column_name][row_id] = coerced
                return
        raise RelationalError(f"table {self.name!r} has no column {column_name!r}")

    def rows(self, columns: list[str] | None = None):
        """Iterate rows as tuples (a full scan)."""
        names = columns or [column.name for column in self.columns]
        streams = [self._data[name] for name in names]
        return zip(*streams) if streams else iter(())

    def scan_column(self, column: str):
        """Iterate (row_id, value) for one column."""
        return enumerate(self.column(column))

    def estimated_bytes(self) -> int:
        """Rough in-memory footprint (used for the Table 1 size report)."""
        total = 0
        for values in self._data.values():
            total += sys.getsizeof(values)
            for value in values:
                if value is not None:
                    total += sys.getsizeof(value)
        return total
