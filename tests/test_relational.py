"""Tests for the relational substrate: tables (with their hash indexes, key
column and deleted rows) and the catalog."""

import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RelationalError
from repro.relational.catalog import Catalog
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
        assert table.column("id") == array("q", [1, 2, 3])
        assert table.column("age") == [30, None, 25]
        with pytest.raises(RelationalError):
            table.column("bogus")

    def test_scan_column_pairs_row_ids(self):
        assert list(enumerate(make_people().column("age"))) == [
            (0, 30), (1, None), (2, 25)]


def bulk_people(rows) -> Table:
    """``make_people``'s schema, loaded through the buffers and one seal."""
    table = Table("people", make_people().columns)
    for buffer, values in zip(table.buffers(), zip(*rows)):
        buffer.extend(values)
    table.seal()
    return table


class TestBulkLoad:
    def test_seal_stores_non_null_ints_as_arrays(self):
        table = bulk_people([(1, "ann", 30), (2, "bob", None)])
        assert len(table) == 2
        assert table.column("id") == array("q", [1, 2])
        assert table.column("age") == [30, None]          # nullable: a list
        assert table.column("name") == ["ann", "bob"]

    def test_seal_coerces_a_column_that_fails_the_check(self):
        table = bulk_people([("7", "ann", "30"), (8, 9, None)])
        assert list(table.rows()) == [(7, "ann", 30), (8, "9", None)]
        assert isinstance(table.column("id"), array)

    @pytest.mark.parametrize("rows", [
        [(1, "ann", 30), ("x", "bob", 1)],                # not an int
        [(1, "ann", 30), (None, "bob", 1)],               # null in non-null
        [(1, None, 30)],                                  # null in non-null STR
        [(1 << 63, "ann", 30)],                           # outside 64 bits
        [(1, "ann", -(1 << 63) - 1)],                     # nullable, too
    ])
    def test_seal_refuses_bad_columns_all_or_nothing(self, rows):
        table = make_people()
        for buffer, values in zip(table.buffers(), zip(*rows)):
            buffer.extend(values)
        with pytest.raises(RelationalError):
            table.seal()
        assert list(table.rows()) == list(make_people().rows())
        table.append(id=4, name="dee")                    # sealed again

    def test_seal_refuses_ragged_buffers(self):
        table = Table("t", [Column("a", ColumnType.INT, nullable=False), Column("b")])
        table.buffers()[0].append(1)
        with pytest.raises(RelationalError):
            table.seal()
        assert len(table) == 0

    def test_writes_refused_while_loading(self):
        table = make_people()
        table.buffers()
        with pytest.raises(RelationalError):
            table.append(id=4, name="dee")
        with pytest.raises(RelationalError):
            table.set(0, "name", "eve")
        table.seal()
        assert table.append(id=4, name="dee") == 3

    def test_seal_appends_after_existing_rows(self):
        table = make_people()
        table.buffers()[0].append(4)
        table.buffers()[1].append("dee")
        table.buffers()[2].append(None)
        table.seal()
        assert table.column("id") == array("q", [1, 2, 3, 4])

    def test_array_column_costs_one_object(self):
        table = Table("t", [Column("a", ColumnType.INT, nullable=False)])
        table.buffers()[0].extend(range(1000))
        table.seal()
        assert table.estimated_bytes() == sys.getsizeof(table.column("a"))


class TestTypedErrors:
    """The array columns raise the table's own error, never a leaked
    TypeError or OverflowError."""

    def test_set_non_int_on_sealed_array_column(self):
        table = bulk_people([(1, "ann", 30)])
        with pytest.raises(RelationalError):
            table.set(0, "id", "x")
        assert table.get(0, "id") == 1

    def test_append_null_into_non_null_int(self):
        table = make_people()
        with pytest.raises(RelationalError):
            table.append(id=None, name="x")
        assert len(table) == 3

    def test_failed_append_leaves_no_ragged_columns(self):
        table = make_people()
        for bad in ({"id": 4, "name": None}, {"id": 4, "name": "x", "age": "y"},
                    {"id": 4, "name": "x", "bogus": 1}):
            with pytest.raises(RelationalError):
                table.append(**bad)
        assert [len(table.column(c.name)) for c in table.columns] == [3, 3, 3]
        assert table.append(id=4, name="dee") == 3

    @pytest.mark.parametrize("value", [1 << 63, -(1 << 63) - 1, str(1 << 64)])
    def test_int_outside_64_bits_refused(self, value):
        table = make_people()
        with pytest.raises(RelationalError):
            table.append(id=value, name="x")
        with pytest.raises(RelationalError):
            table.set(0, "id", value)
        with pytest.raises(RelationalError):
            table.set(0, "age", value)                    # a nullable list column
        assert list(table.rows()) == list(make_people().rows())

    def test_64_bit_bounds_are_stored(self):
        table = make_people()
        row = table.append(id=(1 << 63) - 1, name="x", age=-(1 << 63))
        assert table.get(row, "id") == (1 << 63) - 1
        assert table.get(row, "age") == -(1 << 63)


_MODEL_COLUMNS = [
    Column("pre", ColumnType.INT, nullable=False),
    Column("parent", ColumnType.INT),
    Column("tag", ColumnType.STR, nullable=False),
    Column("note", ColumnType.STR),
]
_int64 = st.integers(-(1 << 63), (1 << 63) - 1)


def _cell(column: Column):
    """(raw value, the value the table must hold) for one column."""
    if column.type is ColumnType.INT:
        value = st.one_of(_int64.map(lambda v: (v, v)),
                          _int64.map(lambda v: (str(v), v)))
    else:
        value = st.text(max_size=4).map(lambda v: (v, v))
    return st.one_of(st.just((None, None)), value) if column.nullable else value


_model_rows = st.fixed_dictionaries({c.name: _cell(c) for c in _MODEL_COLUMNS})


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_bulk_seal_then_writes_match_a_row_model(data):
    """Random bulk rows, one seal, then random appends and sets: the table
    reads back as a list-of-dicts model, and every non-null INT column is
    still an ``array('q')``."""
    table = Table("t", _MODEL_COLUMNS)
    model: list[dict] = []
    buffers = table.buffers()
    for row in data.draw(st.lists(_model_rows, max_size=12)):
        for column, buffer in zip(_MODEL_COLUMNS, buffers):
            buffer.append(row[column.name][0])
        model.append({name: cell[1] for name, cell in row.items()})
    table.seal()
    for _ in range(data.draw(st.integers(0, 12))):
        if model and data.draw(st.booleans()):
            row_id = data.draw(st.integers(0, len(model) - 1))
            column = data.draw(st.sampled_from(_MODEL_COLUMNS))
            raw, held = data.draw(_cell(column))
            table.set(row_id, column.name, raw)
            model[row_id][column.name] = held
        else:
            row = data.draw(_model_rows)
            assert table.append(**{name: cell[0] for name, cell in row.items()}) == len(model)
            model.append({name: cell[1] for name, cell in row.items()})
    names = [column.name for column in _MODEL_COLUMNS]
    assert [dict(zip(names, row)) for row in table.rows()] == model
    for column in _MODEL_COLUMNS:
        stored = table.column(column.name)
        if column.type is ColumnType.INT and not column.nullable:
            assert isinstance(stored, array) and stored.typecode == "q"
        else:
            assert isinstance(stored, list)


def make_indexed_people() -> Table:
    """:func:`make_people` with ``id`` as the key and ``name`` and ``age``
    indexed."""
    table = Table("people", [
        Column("id", ColumnType.INT, nullable=False, key=True),
        Column("name", ColumnType.STR, nullable=False, indexed=True),
        Column("age", ColumnType.INT, indexed=True),
    ])
    table.append(id=1, name="ann", age=30)
    table.append(id=2, name="bob", age=None)
    table.append(id=3, name="cid", age=25)
    return table


def rebuilt_index(table: Table, column: str) -> dict:
    """The index ``column`` would have if built from the live rows alone."""
    values = table.column(column)
    index: dict = {}
    for row in table.live_rows():
        index.setdefault(values[row], []).append(row)
    return index


class TestIndexes:
    def test_hash_lookup(self):
        table = make_indexed_people()
        assert table.lookup("name", "bob") == [1]
        assert table.lookup("name", "zzz") == []
        assert table.row_of(1) == 0
        assert table.row_of(99) is None
        with pytest.raises(RelationalError):
            table.lookup("id", 1)              # the key is bisected, not hashed

    def test_hash_maintenance(self):
        table = make_indexed_people()
        row = table.append(id=4, name="bob", age=1)
        assert table.lookup("name", "bob") == [1, row]
        table.delete(1)
        assert table.lookup("name", "bob") == [3]
        with pytest.raises(RelationalError, match="already deleted"):
            table.delete(1)                    # a dead row is refused
        assert table.lookup("name", "bob") == [3]

    def test_hash_buckets_nulls_and_counts_keys(self):
        table = make_indexed_people()
        table.append(id=4, name="dee", age=30)
        index = table.index("age")
        assert len(index) == 3                 # 30, None, 25
        assert table.lookup("age", 30) == [0, 3]
        assert table.lookup("age", None) == [1]
        table.delete(1)
        assert len(index) == 2
        assert table.lookup("age", None) == []

    def test_seal_builds_each_index_in_one_pass(self):
        table = Table("t", [Column("k", ColumnType.INT, nullable=False, key=True),
                            Column("g", ColumnType.INT, nullable=False, indexed=True)])
        keys, groups = table.buffers()
        for k in range(10):
            keys.append(k * 2)
            groups.append(k % 3)
        table.seal()
        assert table.lookup("g", 0) == [0, 3, 6, 9]
        assert table.index("g") == rebuilt_index(table, "g")
        assert [table.row_of(k) for k in (0, 1, 18, 19)] == [0, None, 9, None]
        keys, groups = table.buffers()
        keys.append(20)
        groups.append(0)
        table.seal()                           # a second load indexes its rows only
        assert table.lookup("g", 0) == [0, 3, 6, 9, 10]
        assert table.row_of(20) == 10

    def test_indexed_and_key_columns_are_not_set(self):
        table = make_indexed_people()
        for column, value in (("id", 7), ("name", "eve"), ("age", 1)):
            with pytest.raises(RelationalError, match="indexed"):
                table.set(0, column, value)
        assert table.get(0, "name") == "ann"


class TestKeyAndTombstones:
    def test_a_dead_key_is_absent(self):
        table = make_indexed_people()
        table.delete(1)
        assert table.row_of(2) is None
        assert table.get(1, "name") == "bob"   # cells stay readable by row id
        assert list(table.live_rows()) == [0, 2]
        assert len(table) == 3

    def test_append_refuses_a_key_that_does_not_ascend(self):
        table = make_indexed_people()
        for key in (3, 1):
            with pytest.raises(RelationalError, match="ascend"):
                table.append(id=key, name="dup", age=1)
        assert len(table) == 3
        assert table.lookup("name", "dup") == []
        assert table.append(id=10, name="dup", age=1) == 3

    @pytest.mark.parametrize("keys", [[1, 1], [2, 1], [5]])
    def test_seal_refuses_a_key_that_does_not_ascend(self, keys):
        table = Table("t", [Column("k", ColumnType.INT, nullable=False, key=True),
                            Column("v", ColumnType.STR, indexed=True)])
        table.append(k=5, v="x")
        staged_keys, values = table.buffers()
        for key in keys:
            staged_keys.append(key)
            values.append("y")
        with pytest.raises(RelationalError, match="ascend"):
            table.seal()
        assert list(table.column("k")) == [5]
        assert table.lookup("v", "y") == []

    @pytest.mark.parametrize("columns", [
        [Column("k", ColumnType.STR, key=True)],
        [Column("k", ColumnType.INT, key=True)],
        [Column("a", ColumnType.INT, nullable=False, key=True),
         Column("b", ColumnType.INT, nullable=False, key=True)],
    ])
    def test_a_key_is_one_non_null_int_column(self, columns):
        with pytest.raises(RelationalError, match="key"):
            Table("t", columns)

    def test_row_of_needs_a_key(self):
        with pytest.raises(RelationalError, match="no key"):
            make_people().row_of(1)

    def test_delete_out_of_range_refused(self):
        table = make_indexed_people()
        for row in (-1, 3):
            with pytest.raises(RelationalError):
                table.delete(row)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_indexes_and_keys_track_appends_and_deletes(data):
    """Random appends and deletes: every index equals one rebuilt from the
    live rows, and ``row_of`` finds exactly the live keys."""
    table = Table("t", [Column("k", ColumnType.INT, nullable=False, key=True),
                        Column("g", ColumnType.INT, indexed=True),
                        Column("s", ColumnType.STR, nullable=False, indexed=True)])
    key = 0
    for _ in range(data.draw(st.integers(0, 30))):
        live = list(table.live_rows())
        if live and data.draw(st.booleans()):
            table.delete(data.draw(st.sampled_from(live)))
        else:
            key += data.draw(st.integers(1, 3))
            table.append(k=key, g=data.draw(st.one_of(st.none(), st.integers(0, 3))),
                         s=data.draw(st.sampled_from("xyz")))
        for column in ("g", "s"):
            assert table.index(column) == rebuilt_index(table, column)
    keys = table.column("k")
    live = set(table.live_rows())
    for row, value in enumerate(keys):
        assert table.row_of(value) == (row if row in live else None)
    assert table.row_of(key + 1) is None


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
        table = catalog.create_table("t", [Column("a", ColumnType.INT, indexed=True)])
        table.append(a=5)
        assert catalog.table("t").index("a") is table.index("a")
        with pytest.raises(RelationalError):
            table.index("zz")
        assert catalog.table("t").lookup("a", 5) == [0]

    def test_an_index_is_declared_once(self):
        catalog = Catalog()
        table = catalog.ensure_table("t", [Column("a", indexed=True)])
        index = table.index("a")
        assert catalog.ensure_table("t", [Column("a")]).index("a") is index
        table.buffers()[0].extend(["x", "y", "x"])
        catalog.seal()
        assert table.index("a") is index
        assert index == {"x": [0, 2], "y": [1]}

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
        bare = catalog.create_table("bare", [Column("a", ColumnType.INT)])
        indexed = catalog.create_table("indexed", [Column("a", ColumnType.INT, indexed=True)])
        for value in range(10):
            bare.append(a=value)
            indexed.append(a=value)
        assert indexed.estimated_bytes() == bare.estimated_bytes() + 10 * 16
        assert catalog.estimated_bytes() == \
            bare.estimated_bytes() + indexed.estimated_bytes()

    def test_missing_table_raises(self):
        with pytest.raises(RelationalError):
            Catalog().table("ghost")
