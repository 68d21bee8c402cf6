"""Tests for the relational substrate: tables, hash indexes, catalog."""

import pytest

from repro.errors import RelationalError
from repro.relational.catalog import Catalog
from repro.relational.index import HashIndex
from repro.relational.table import Column, ColumnType, Table


def make_people() -> Table:
    table = Table("people", [
        Column("id", ColumnType.INT, nullable=False),
        Column("name", ColumnType.STR, nullable=False),
        Column("age", ColumnType.INT),
    ])
    table.append(id=1, name="ann", age=30)
    table.append(id=2, name="bob", age=None)
    table.append(id=3, name="cid", age=25)
    return table


class TestTable:
    def test_append_and_get(self):
        table = make_people()
        assert len(table) == 3
        assert table.get(0, "name") == "ann"
        assert table.get(1, "age") is None
        assert [table.get(2, c) for c in ("id", "name", "age")] == [3, "cid", 25]

    def test_coercion(self):
        table = make_people()
        row = table.append(id="4", name="dee", age="40")
        assert table.get(row, "id") == 4
        assert table.get(row, "age") == 40

    def test_coercion_failure(self):
        table = make_people()
        with pytest.raises(RelationalError):
            table.append(id="not-a-number", name="x")

    def test_missing_non_null_column(self):
        table = make_people()
        with pytest.raises(RelationalError):
            table.append(id=9)

    def test_unknown_column_rejected(self):
        table = make_people()
        with pytest.raises(RelationalError):
            table.append(id=9, name="x", bogus=1)

    def test_rows_projection(self):
        table = make_people()
        assert list(table.rows(["name"])) == [("ann",), ("bob",), ("cid",)]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(RelationalError):
            Table("t", [Column("a"), Column("a")])

    def test_no_columns_rejected(self):
        with pytest.raises(RelationalError):
            Table("t", [])

    def test_estimated_bytes_positive(self):
        assert make_people().estimated_bytes() > 0

    def test_set_coerces_in_place(self):
        table = make_people()
        table.set(1, "age", "41")
        assert table.get(1, "age") == 41
        table.set(0, "age", None)
        assert table.get(0, "age") is None
        assert len(table) == 3

    def test_set_refuses_null_in_non_null_column(self):
        table = make_people()
        with pytest.raises(RelationalError):
            table.set(0, "name", None)
        assert table.get(0, "name") == "ann"

    def test_set_unknown_column_rejected(self):
        with pytest.raises(RelationalError):
            make_people().set(0, "bogus", 1)

    def test_column_access(self):
        table = make_people()
        assert table.has_column("age") and not table.has_column("bogus")
        assert table.column("id") == [1, 2, 3]
        with pytest.raises(RelationalError):
            table.column("bogus")

    def test_scan_column_pairs_row_ids(self):
        assert list(make_people().scan_column("age")) == [
            (0, 30), (1, None), (2, 25)]


class TestIndexes:
    def test_hash_lookup(self):
        table = make_people()
        index = HashIndex(table, "name")
        assert index.lookup("bob") == [1]
        assert index.lookup("zzz") == []
        assert index.unique("ann") == 0
        assert index.unique("zzz") is None

    def test_hash_maintenance(self):
        table = make_people()
        index = HashIndex(table, "name")
        row = table.append(id=4, name="bob", age=1)
        index.insert("bob", row)
        assert index.lookup("bob") == [1, 3]
        index.remove("bob", 1)
        index.remove("bob", 1)             # a missing entry is ignored
        assert index.lookup("bob") == [3]

    def test_hash_buckets_nulls_and_counts_keys(self):
        table = make_people()
        table.append(id=4, name="dee", age=30)
        index = HashIndex(table, "age")
        assert len(index) == 3             # 30, None, 25
        assert index.lookup(30) == [0, 3]
        assert index.lookup(None) == [1]
        index.remove(None, 1)
        assert len(index) == 2


class TestCatalog:
    def test_create_and_lookup_counted(self):
        catalog = Catalog()
        catalog.create_table("t", [Column("a")])
        before = catalog.metadata_accesses
        catalog.table("t")
        catalog.has_table("nope")
        assert catalog.metadata_accesses == before + 2

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", [Column("a")])
        with pytest.raises(RelationalError):
            catalog.create_table("t", [Column("a")])

    def test_ensure_table_idempotent(self):
        catalog = Catalog()
        first = catalog.ensure_table("t", [Column("a")])
        second = catalog.ensure_table("t", [Column("a")])
        assert first is second

    def test_match_table_names_costs_per_table(self):
        catalog = Catalog()
        for name in ("x/a", "x/b", "y/c"):
            catalog.create_table(name, [Column("v")])
        before = catalog.metadata_accesses
        names = catalog.match_table_names(lambda n: n.startswith("x/"))
        assert names == ["x/a", "x/b"]
        assert catalog.metadata_accesses - before == 3

    def test_indexes_via_catalog(self):
        catalog = Catalog()
        table = catalog.create_table("t", [Column("a", ColumnType.INT)])
        table.append(a=5)
        hash_ix = catalog.create_hash_index("t", "a")
        assert catalog.hash_index("t", "a") is hash_ix
        assert catalog.hash_index("t", "zz") is None
        assert hash_ix.lookup(5) == [0]

    def test_create_hash_index_is_idempotent(self):
        catalog = Catalog()
        catalog.create_table("t", [Column("a")])
        assert catalog.create_hash_index("t", "a") is \
            catalog.create_hash_index("t", "a")

    def test_table_names_is_one_counted_access(self):
        catalog = Catalog()
        for name in ("b", "a"):
            catalog.create_table(name, [Column("v")])
        before = catalog.metadata_accesses
        assert catalog.table_names() == ["a", "b"]
        assert catalog.table_count() == 2
        assert catalog.metadata_accesses == before + 1

    def test_estimated_bytes_counts_hash_indexes(self):
        catalog = Catalog()
        table = catalog.create_table("t", [Column("a", ColumnType.INT)])
        for value in range(10):
            table.append(a=value)
        bare = catalog.estimated_bytes()
        assert bare == table.estimated_bytes()
        catalog.create_hash_index("t", "a")
        assert catalog.estimated_bytes() == bare + 10 * 16

    def test_missing_table_raises(self):
        with pytest.raises(RelationalError):
            Catalog().table("ghost")
