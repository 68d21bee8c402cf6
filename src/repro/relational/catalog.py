"""A catalog of tables, with counted metadata accesses.

Table 2 of the paper traces compile-time cost back to metadata volume:
System A (one big heap) touches little metadata per query, System B (a table
per path) touches a lot.  To reproduce that *measurably*, every catalog
lookup increments :attr:`metadata_accesses`, and the per-system planners go
through the catalog for each path step they resolve.
"""

from __future__ import annotations

from repro.errors import RelationalError
from repro.relational.table import Column, Table


class Catalog:
    """Named tables (each keeps its own indexes)."""

    __slots__ = ("_tables", "metadata_accesses")

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self.metadata_accesses = 0

    # -- definition ------------------------------------------------------------

    def create_table(self, name: str, columns: list[Column]) -> Table:
        if name in self._tables:
            raise RelationalError(f"table {name!r} already exists")
        table = Table(name, columns)
        self._tables[name] = table
        return table

    def ensure_table(self, name: str, columns: list[Column]) -> Table:
        """Create on first use — the fragmenting mapping discovers its schema
        while loading."""
        existing = self._tables.get(name)
        if existing is not None:
            return existing
        return self.create_table(name, columns)

    def seal(self) -> None:
        """End a bulk load: seal every table (see :meth:`Table.seal`)."""
        for table in self._tables.values():
            table.seal()

    # -- lookup (counted: this is "metadata access") -----------------------------

    def table(self, name: str) -> Table:
        self.metadata_accesses += 1
        try:
            return self._tables[name]
        except KeyError:
            raise RelationalError(f"no such table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        self.metadata_accesses += 1
        return name in self._tables

    def table_names(self) -> list[str]:
        self.metadata_accesses += 1
        return sorted(self._tables)

    def match_table_names(self, predicate) -> list[str]:
        """All table names satisfying ``predicate`` — a catalog scan.

        Deliberately costed as one metadata access *per table*: resolving a
        ``//`` step on the fragmenting mapping inspects the whole catalog,
        which is exactly the compile-time weight the paper reports for
        System B.
        """
        names = []
        for name in self._tables:
            self.metadata_accesses += 1
            if predicate(name):
                names.append(name)
        return sorted(names)

    # -- reporting ----------------------------------------------------------------

    def table_count(self) -> int:
        return len(self._tables)

    def estimated_bytes(self) -> int:
        return sum(table.estimated_bytes() for table in self._tables.values())
