"""Architecture-specific behaviour of each store."""

import gc
import re
import sys
import tracemalloc
from array import array
from bisect import bisect_left
from collections import Counter
from hashlib import sha256

import pytest

from repro.benchmark.queries import QUERIES, query_text
from repro.benchmark.systems import get_profile, make_store
from repro.errors import StorageError
from repro.relational.table import Column, ColumnType
from repro.storage.bulkload import bulkload, scan_baseline
from repro.storage.dom_store import DomStore
from repro.storage.fragment_store import FragmentStore
from repro.storage.heap_store import HeapStore
from repro.storage.interface import DIGEST_SLICE, document_digest
from repro.storage.schema_store import _FRAGMENT_ROOTS, SchemaStore
from repro.storage.shred import shred_to_files
from repro.storage.structural_summary import StructuralSummary
from repro.storage.summary_store import SummaryStore
from repro.storage.tree_store import IndexedTreeStore, TreeStore
from repro.update import UpdateStream, apply_update
from repro.xmlgen.generator import generate_string
from repro.xmlio.parser import parse
from repro.xmlio.serialize import serialize
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import compile_query


class TestHeapStore:
    def test_single_relation_architecture(self, loaded_stores):
        store = loaded_stores["A"]
        assert store.catalog.table_count() == 3  # nodes, texts, attrs

    def test_pre_post_containment(self, loaded_stores):
        store = loaded_stores["A"]
        nodes = store.catalog.table("nodes")
        pres = nodes.column("pre")
        posts = nodes.column("post")
        parents = nodes.column("parent")
        for row in range(1, min(2000, len(nodes))):
            parent = parents[row]
            if parent is None:
                continue
            parent_row = next(r for r in range(len(nodes)) if pres[r] == parent)
            assert pres[parent_row] < pres[row] <= posts[parent_row]

    def test_tag_extent_access(self, loaded_stores):
        store = loaded_stores["A"]
        extent = store.all_with_tag("person")
        assert extent == sorted(extent)
        assert len(extent) > 10


class TestFragmentStore:
    def test_many_tables(self, loaded_stores):
        store = loaded_stores["B"]
        # "Highly fragmenting": far more relations than System A's three.
        assert store.table_count > 100

    def test_paths_extending(self, loaded_stores):
        store = loaded_stores["B"]
        paths = store.paths_extending(("site",), "item")
        assert ("site", "regions", "europe", "item") in paths
        assert len(paths) == 6  # one per region

    def test_child_path_exists(self, loaded_stores):
        store = loaded_stores["B"]
        assert store.child_path_exists(("site",), "people")
        assert not store.child_path_exists(("site",), "nonsense")

    def test_nodes_at_path_is_extent(self, loaded_stores, small_document):
        store = loaded_stores["B"]
        extent = store.nodes_at_path(("site", "people", "person"))
        assert len(extent) == len(small_document.root.find("people").find_all("person"))

    def test_metadata_counted_on_navigation(self, loaded_stores):
        store = loaded_stores["B"]
        before = store.catalog.metadata_accesses
        store.children_by_tag(store.root(), "people")
        assert store.catalog.metadata_accesses > before


class TestSchemaStore:
    def test_typed_tables_exist(self, loaded_stores):
        store = loaded_stores["C"]
        for table in ("person", "item", "open_auction", "closed_auction",
                      "category", "edge", "bidder", "mail", "interest",
                      "watch", "incategory"):
            assert store.table(table) is not None

    def test_person_row_inlines_scalars(self, loaded_stores, small_document):
        store = loaded_stores["C"]
        person_table = store.table("person")
        oracle = small_document.root.find("people").find("person")
        assert person_table.get(0, "name") == oracle.find("name").immediate_text()
        assert person_table.get(0, "id") == oracle.get("id")

    def test_optional_struct_presence_column(self, loaded_stores, small_document):
        store = loaded_stores["C"]
        person_table = store.table("person")
        presences = person_table.column("profile_present")
        oracle_persons = small_document.root.find("people").find_all("person")
        for row in range(min(50, len(oracle_persons))):
            assert bool(presences[row]) == (oracle_persons[row].find("profile") is not None)

    def test_bidder_positions(self, loaded_stores, small_document):
        store = loaded_stores["C"]
        bidder_table = store.table("bidder")
        oracle_bidders = sum(
            len(a.find_all("bidder"))
            for a in small_document.root.find("open_auctions").find_all("open_auction")
        )
        assert len(bidder_table) == oracle_bidders

    def test_fragments_parsed_lazily(self, small_text):
        store = SchemaStore()
        store.load(small_text)
        assert store.stats.fragments_parsed == 0
        regions = store.children_by_tag(store.root(), "regions")[0]
        item = store.descendants_by_tag(regions, "item")[0]
        description = store.children_by_tag(item, "description")[0]
        store.children(description)  # forces a CLOB parse
        assert store.stats.fragments_parsed >= 1

    def test_clobs_read_at_load_are_the_serialized_subtrees(self, small_text):
        # The load captures each CLOB from the token stream; it must be the
        # markup and string value the parsed subtree serializes to, with
        # references, an empty CDATA section, attributes and empty elements.
        odd = ('<description lang="a&amp;b"><![CDATA[]]><text>x &lt; y &amp; z'
               '<bold/><emph></emph> &#65;</text><parlist/></description>')
        text = re.sub("<description>.*?</description>", odd, small_text,
                      count=1, flags=re.S)
        store = SchemaStore()
        store.load(text)
        roots = [node for parent in parse(text).root.iter() for node in parent.children
                 if (parent.tag, node.tag) in _FRAGMENT_ROOTS]
        assert ('<description lang="a&amp;b"><text>x &lt; y &amp; z<bold/><emph/> A'
                '</text><parlist/></description>') in store._frag_xml
        assert Counter(zip(store._frag_xml, store._frag_text)) == Counter(
            (serialize(node), node.text_content()) for node in roots)

    def test_rejects_non_auction_document(self):
        store = SchemaStore()
        with pytest.raises(StorageError):
            store.load("<other/>")

    def test_container_descendant_fast_path(self, loaded_stores, small_document):
        store = loaded_stores["C"]
        descriptions = store.descendants_by_tag(store.root(), "description")
        expected = sum(1 for _ in small_document.root.iter("description"))
        assert len(descriptions) == expected


# -- A-C after update histories: the tables' own indexes and tombstones ----------

RELATIONAL = ("A", "B", "C")


@pytest.fixture(scope="module", params=(1, 2, 3), ids=lambda seed: f"seed{seed}")
def relational_history(request, small_text):
    """D, A, B and C over the f=0.002 document after one 300-operation
    :class:`UpdateStream` history."""
    reference = make_store("D")
    reference.load(small_text)
    operations = UpdateStream(reference, seed=request.param).sequence(300)
    stores = {}
    for system in ("D",) + RELATIONAL:
        store = stores[system] = make_store(system)
        store.load(small_text)
        for op in operations:
            apply_update(store, op)
    return stores


def _tables(store):
    return [store.catalog.table(name) for name in store.catalog.table_names()]


def _walk(store) -> list:
    nodes, stack = [], [store.root()]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(store.children(node))
    return nodes


def _row(system: str, store, node):
    """``(table, row id)`` of an element handle, or None for a handle no
    table row stands for (C's containers, structs, leaves and fragments)."""
    if system == "A":
        table = store.catalog.table("nodes")
        return table, bisect_left(table.column("pre"), node)
    if system == "B":
        table = store.catalog.table("/".join(node[0]))
        return table, bisect_left(table.column("pre"), node[1])
    return (store.catalog.table(node[1]), node[2]) if node[0] == "e" else None


@pytest.mark.parametrize("system", RELATIONAL)
class TestRelationalHistories:
    def test_every_key_column_ascends(self, relational_history, system):
        for table in _tables(relational_history[system]):
            for column in table.columns:
                if column.key:
                    values = table.column(column.name)
                    assert all(a < b for a, b in zip(values, values[1:])), table.name

    def test_every_index_equals_a_rebuild_from_the_live_rows(
            self, relational_history, system):
        indexed = 0
        for table in _tables(relational_history[system]):
            for column in table.columns:
                if column.indexed:
                    values = table.column(column.name)
                    rebuilt: dict = {}
                    for row in table.live_rows():
                        rebuilt.setdefault(values[row], []).append(row)
                    assert table.index(column.name) == rebuilt, table.name
                    indexed += 1
        assert indexed

    def test_no_dead_row_is_reachable(self, relational_history, system):
        store = relational_history[system]
        rows = [_row(system, store, node) for node in _walk(store)]
        rows = [row for row in rows if row is not None]
        live = {table.name: set(table.live_rows()) for table in _tables(store)}
        assert all(row in live[table.name] for table, row in rows)
        # ... and every live row is reached: the walk and the tables agree.
        element_tables = [table for table in _tables(store)
                          if "#" not in table.name and "@" not in table.name
                          and table.name not in ("texts", "attrs")]
        assert len(rows) == sum(len(list(table.live_rows())) for table in element_tables)
        assert len(rows) < sum(map(len, element_tables))    # the history deleted
        for table in element_tables if system == "B" else ():
            path = tuple(table.name.split("/"))
            for handle in store.nodes_at_path(path):
                assert table.row_of(handle[1]) is not None

    def test_queries_match_d(self, relational_history, system):
        store, reference = relational_history[system], relational_history["D"]
        for number in sorted(QUERIES):
            answer = evaluate(compile_query(query_text(number), store, get_profile(system)))
            expected = evaluate(compile_query(query_text(number), reference,
                                              get_profile("D")))
            assert answer.canonical() == expected.canonical(), f"Q{number}"


class TestSummaryStore:
    def test_summary_counts_match_document(self, loaded_stores, small_document):
        store = loaded_stores["D"]
        assert store.count_path(("site", "people", "person")) == len(
            small_document.root.find("people").find_all("person"))
        assert store.count_path(("site", "no", "such", "path")) == 0

    def test_nodes_at_path(self, loaded_stores):
        store = loaded_stores["D"]
        nodes = store.nodes_at_path(("site", "people", "person"))
        assert all(store.tag(n) == "person" for n in nodes[:5])

    def test_known_tags(self, loaded_stores):
        tags = loaded_stores["D"].known_tags()
        assert "person" in tags and "keyword" in tags
        assert "bogus" not in tags

    def test_summary_paths_through(self, loaded_stores):
        summary = loaded_stores["D"].summary
        entries = summary.paths_through(("site",), "item")
        assert len(entries) == 6
        assert all(entry.path[-1] == "item" for entry in entries)

    def test_compactness_vs_tree_store(self, loaded_stores):
        # Table 1: System D's database is smaller than E's and F's.
        assert loaded_stores["D"].size_bytes() < loaded_stores["F"].size_bytes()
        assert loaded_stores["D"].size_bytes() < loaded_stores["E"].size_bytes()


def _two_pass_summary(tags, parents) -> StructuralSummary:
    """The summary as D's load once built it, in a second pass over its
    arrays: one path tuple per node, list extents, then ``compact()``."""
    summary = StructuralSummary()
    paths: list[tuple[str, ...]] = [()] * len(tags)
    for node, tag in enumerate(tags):
        parent = parents[node]
        path = paths[node] = (paths[parent] + (tag,)) if parent >= 0 else (tag,)
        summary.extent(path).append(node)
    summary.compact()
    return summary


def _summary_state(summary: StructuralSummary):
    """Every entry's path and extent in registration order, the entries
    ending in each tag in ``_by_tag`` order, and the path count."""
    entries = [(entry.path, list(entry.nodes))
               for entry in summary._entries.values()]
    by_tag = [(tag, [entry.path for entry in found])
              for tag, found in summary._by_tag.items()]
    return entries, by_tag, summary.path_count()


@pytest.fixture(scope="module")
def medium_text() -> str:
    return generate_string(0.005)


class TestStructuralSummary:
    def test_load_builds_the_summary(self):
        store = SummaryStore()
        store.load("<a><b><c/></b><b/></a>")
        summary = store.summary
        assert summary.count(("a",)) == 1
        assert summary.count(("a", "b")) == 2
        assert summary.count(("a", "b", "c")) == 1
        assert list(summary.nodes(("a", "b"))) == [1, 3]
        assert summary.path_count() == 3
        assert summary.has_tag("c") and not summary.has_tag("z")
        # Compacted: packed and exactly sized, as a fresh copy is.
        extent = summary.nodes(("a", "b"))
        assert isinstance(extent, array)
        assert sys.getsizeof(extent) == sys.getsizeof(array("q", extent))

    def test_load_equals_the_two_pass_build(self, medium_text):
        store = SummaryStore()
        store.load(medium_text)
        reference = _two_pass_summary(store._tags, store._parents)
        assert _summary_state(store.summary) == _summary_state(reference)
        assert store.summary.size_bytes() == reference.size_bytes()

    def test_load_equals_the_two_pass_build_after_a_history(self, medium_text):
        store, reference = SummaryStore(), SummaryStore()
        store.load(medium_text)
        reference.load(medium_text)
        reference._summary = _two_pass_summary(reference._tags, reference._parents)
        operations = UpdateStream(store, seed=7).sequence(300)
        for op in operations:
            apply_update(store, op)
            apply_update(reference, op)
        assert _summary_state(store.summary) == _summary_state(reference.summary)

    def test_paths_through_is_dropped_when_a_path_is_registered(self):
        summary = StructuralSummary()
        summary.extent(("a", "b")).append(1)
        first = summary.paths_through(("a",), "b")
        assert [entry.path for entry in first] == [("a", "b")]
        assert summary.paths_through(("a",), "b") is first
        summary.extent(("a", "b")).append(2)          # no new path: kept
        assert summary.paths_through(("a",), "b") is first
        summary.extent(("a", "c", "b")).append(3)
        assert [entry.path for entry in summary.paths_through(("a",), "b")] == [
            ("a", "b"), ("a", "c", "b")]


class TestLoadMemory:
    def test_summary_store_load_keeps_what_it_stores(self):
        """D's load needs little more memory than it keeps: no chunk list
        beside the heap, no per-node path tuples, no encoded copy of the
        document for its digest.  What it keeps is no more than with the
        summary built in a second pass over the arrays."""
        text = generate_string(0.05)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            store = SummaryStore()
            store.load(text)
            gc.collect()
            loaded, peak = tracemalloc.get_traced_memory()
            store._summary = _two_pass_summary(store._tags, store._parents)
            gc.collect()
            reference = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        retained = loaded - start
        assert peak - start <= 1.3 * retained, (peak - start, retained)
        assert retained <= 1.01 * (reference - start), (retained, reference - start)


class TestDocumentDigest:
    @pytest.mark.parametrize("text", [
        "",
        "<a>short, under one slice: \u00e9\u20ac\U0001F600</a>",
        "x" * (DIGEST_SLICE - 1) + "\u00e9" + "y" * 5,
        "x" * (DIGEST_SLICE - 1) + "\U0001F600\u20ac" + "y" * DIGEST_SLICE,
        "\u20ac" * (2 * DIGEST_SLICE + 3),
    ], ids=["empty", "short", "two-byte-at-boundary", "four-byte-at-boundary",
            "three-byte-slices"])
    def test_sliced_digest_is_the_whole_text_digest(self, text):
        assert document_digest(text) == sha256(text.encode()).hexdigest()[:16]

    def test_ascii_document(self, small_text):
        assert small_text.isascii()
        assert document_digest(small_text) == sha256(
            small_text.encode()).hexdigest()[:16]


class TestTreeStores:
    def test_tag_index_equals_scan(self, loaded_stores):
        indexed = loaded_stores["E"]
        plain = loaded_stores["F"]
        for tag in ("item", "keyword", "person"):
            via_index = indexed.descendants_by_tag(indexed.root(), tag)
            via_scan = plain.descendants_by_tag(plain.root(), tag)
            assert len(via_index) == len(via_scan)

    def test_all_with_tag_document_order(self, loaded_stores):
        extent = loaded_stores["E"].all_with_tag("person")
        assert extent == sorted(extent)

    def test_f_larger_than_e_minus_index(self, loaded_stores):
        # F materialises child lists; E derives children but adds a tag index.
        assert loaded_stores["F"].node_count() == loaded_stores["E"].node_count()

    def test_no_id_index(self, loaded_stores):
        assert not loaded_stores["F"].has_id_index()
        assert loaded_stores["F"].lookup_id("person0") is None


class TestDomStore:
    def test_document_limit_enforced(self):
        store = DomStore(document_limit=100)
        with pytest.raises(StorageError) as excinfo:
            store.load("<site>" + "x" * 200 + "</site>")
        assert "System G" in str(excinfo.value)

    def test_requires_load_before_navigation(self):
        store = DomStore()
        with pytest.raises(StorageError):
            store.root()


class TestBulkload:
    def test_report_fields(self, small_text):
        report = bulkload(TreeStore(), small_text, "F")
        assert report.store_name == "F"
        assert report.seconds > 0
        assert report.database_bytes > 0
        assert report.document_bytes == len(small_text)
        assert report.size_ratio > 1.0

    def test_scan_baseline_faster_than_any_load(self, small_text):
        scans = [scan_baseline(small_text) for _ in range(3)]
        load = min(bulkload(IndexedTreeStore(), small_text).seconds
                   for _ in range(3))
        assert min(scan.seconds for scan in scans) < load
        assert scans[0].events > 1000

    def test_fragmenting_mapping_loads_slowest_of_relational(self, small_text):
        # Table 1 shape: B's bulkload exceeds A's (many-table mapping).
        time_a = min(bulkload(HeapStore(), small_text).seconds for _ in range(2))
        time_b = min(bulkload(FragmentStore(), small_text).seconds for _ in range(2))
        assert time_b > time_a

    def test_summary_store_loads_faster_than_relational(self, small_text):
        time_d = min(bulkload(SummaryStore(), small_text).seconds for _ in range(2))
        time_b = min(bulkload(FragmentStore(), small_text).seconds for _ in range(2))
        assert time_d < time_b


_ESCAPES = {"\\\\": "\\", "\\t": "\t", "\\n": "\n"}


def _read_cell(column: Column, field: str):
    """One .tbl field as the table holds it: ``\\N`` is None, an INT column
    reads as a plain decimal int, anything else unescapes to a str."""
    if field == "\\N":
        return None
    if column.type is ColumnType.INT:
        assert re.fullmatch(r"-?[0-9]+", field), field
        return int(field)
    return re.sub(r"\\.", lambda match: _ESCAPES[match.group()], field)


class TestShred:
    @pytest.mark.parametrize("mapping,min_files", [
        ("edge", 3), ("path", 50), ("schema", 11),
    ])
    def test_shred_file_counts(self, tiny_text, tmp_path, mapping, min_files):
        files = shred_to_files(tiny_text, str(tmp_path / mapping), mapping)
        assert len(files) >= min_files
        header = open(files[0], encoding="ascii").readline()
        assert header.startswith("# ")

    def test_shred_rejects_unknown_mapping(self, tiny_text, tmp_path):
        with pytest.raises(StorageError):
            shred_to_files(tiny_text, str(tmp_path), "bogus")

    @pytest.mark.parametrize("mapping,store_class", [
        ("edge", HeapStore), ("path", FragmentStore), ("schema", SchemaStore),
    ])
    def test_tbl_files_read_back_as_the_tables(self, tiny_text, tmp_path,
                                               mapping, store_class):
        # The paper's section 7 flat-file format: a "# col..." header, then
        # one tab-separated line per row, \N for NULL, backslash escapes.
        files = shred_to_files(tiny_text, str(tmp_path / mapping), mapping)
        store = store_class()
        store.load(tiny_text)
        names = store.catalog.table_names()
        assert len(files) == len(names)
        for name, path in zip(names, files):
            table = store.catalog.table(name)
            with open(path, encoding="ascii") as handle:
                header = handle.readline()
                lines = handle.read().split("\n")[:-1]
            assert header == "# " + "\t".join(c.name for c in table.columns) + "\n"
            rows = [tuple(_read_cell(column, field)
                          for column, field in zip(table.columns, line.split("\t")))
                    for line in lines]
            assert rows == list(table.rows()), name

    def test_edge_shred_row_count(self, tiny_text, tmp_path, tiny_document):
        files = shred_to_files(tiny_text, str(tmp_path / "edge"), "edge")
        nodes_file = next(f for f in files if f.endswith("nodes.tbl"))
        rows = sum(1 for line in open(nodes_file, encoding="ascii")) - 1
        assert rows == sum(1 for _ in tiny_document.root.iter())
