"""Cross-store conformance: every system must agree with the DOM oracle.

The paper's entire methodology rests on seven architectures answering the
same queries identically; these tests pin the navigation API of every store
to the parsed DOM as ground truth.
"""

import pytest

from repro.benchmark.systems import SYSTEMS, make_store
from repro.shard import ShardedStore
from repro.update import UpdateStream, apply_update
from repro.xmlio.canonical import canonicalize
from repro.xmlio.serialize import serialize


def _oracle_person(document, index=0):
    return document.root.find("people").find_all("person")[index]


class TestFullRoundtrip:
    def test_whole_document_reconstruction(self, any_store, small_document):
        """build_dom over the navigation API must reproduce the document."""
        rebuilt = any_store.build_dom(any_store.root())
        assert canonicalize(rebuilt, strip_whitespace=False) == canonicalize(
            small_document, strip_whitespace=False
        )


class TestNavigation:
    def test_root_tag(self, any_store):
        assert any_store.tag(any_store.root()) == "site"

    def test_top_level_children_order(self, any_store):
        tags = [any_store.tag(c) for c in any_store.children(any_store.root())]
        assert tags == ["regions", "categories", "catgraph", "people",
                        "open_auctions", "closed_auctions"]

    def test_children_by_tag_matches_oracle(self, any_store, small_document):
        store = any_store
        people = store.children_by_tag(store.root(), "people")[0]
        persons = store.children_by_tag(people, "person")
        oracle = small_document.root.find("people").find_all("person")
        assert len(persons) == len(oracle)
        assert store.attribute(persons[0], "id") == oracle[0].get("id")
        assert store.attribute(persons[-1], "id") == oracle[-1].get("id")

    def test_descendants_by_tag_count(self, any_store, small_document):
        store = any_store
        expected = sum(1 for _ in small_document.root.iter("item"))
        found = store.descendants_by_tag(store.root(), "item")
        assert len(found) == expected

    def test_descendants_in_document_order(self, any_store):
        store = any_store
        items = store.descendants_by_tag(store.root(), "item")
        positions = [store.doc_position(i) for i in items]
        assert positions == sorted(positions)

    def test_descendants_scoped_to_subtree(self, any_store, small_document):
        store = any_store
        regions = store.children_by_tag(store.root(), "regions")[0]
        europe = store.children_by_tag(regions, "europe")[0]
        expected = len(small_document.root.find("regions").find("europe").find_all("item"))
        assert len(store.descendants_by_tag(europe, "item")) == expected

    def test_descendants_nonexistent_tag_empty(self, any_store):
        store = any_store
        assert store.descendants_by_tag(store.root(), "nonexistent_tag") == []

    def test_attributes_match_oracle(self, any_store, small_document):
        store = any_store
        people = store.children_by_tag(store.root(), "people")[0]
        person = store.children_by_tag(people, "person")[0]
        oracle = _oracle_person(small_document)
        assert store.attributes(person) == dict(oracle.attributes)
        assert store.attribute(person, "id") == oracle.get("id")
        assert store.attribute(person, "missing") is None

    def test_child_texts_match_oracle(self, any_store, small_document):
        store = any_store
        people = store.children_by_tag(store.root(), "people")[0]
        person = store.children_by_tag(people, "person")[0]
        name = store.children_by_tag(person, "name")[0]
        assert "".join(store.child_texts(name)) == _oracle_person(
            small_document).find("name").immediate_text()

    def test_string_value_of_description(self, any_store, small_document):
        store = any_store
        regions = store.children_by_tag(store.root(), "regions")[0]
        items = store.descendants_by_tag(regions, "item")
        oracle_items = list(small_document.root.find("regions").iter("item"))
        for index in (0, len(items) // 2, len(items) - 1):
            ours = store.string_value(
                store.children_by_tag(items[index], "description")[0])
            theirs = oracle_items[index].find("description").text_content()
            assert ours == theirs

    def test_content_interleaving(self, any_store, small_document):
        """Mixed-content reconstruction must preserve text/element order."""
        store = any_store
        regions = store.children_by_tag(store.root(), "regions")[0]
        item = store.descendants_by_tag(regions, "item")[0]
        description = store.children_by_tag(item, "description")[0]
        rebuilt = store.build_dom(description)
        oracle = list(small_document.root.find("regions").iter("item"))[0].find("description")
        assert serialize(rebuilt) == serialize(oracle)

    def test_parent_of_person(self, any_store):
        store = any_store
        people = store.children_by_tag(store.root(), "people")[0]
        person = store.children_by_tag(people, "person")[0]
        parent = store.parent(person)
        assert parent is not None
        assert store.tag(parent) == "people"

    def test_parent_of_root_is_none_or_site_container(self, any_store):
        store = any_store
        assert store.parent(store.root()) is None

    def test_doc_position_orders_bidders(self, any_store, small_document):
        """Q4's << operator depends on bidder order within an auction."""
        store = any_store
        auctions = store.children_by_tag(store.root(), "open_auctions")[0]
        for auction in store.children_by_tag(auctions, "open_auction"):
            bidders = store.children_by_tag(auction, "bidder")
            positions = [store.doc_position(b) for b in bidders]
            assert positions == sorted(positions)
            if len(bidders) >= 2:
                return
        pytest.skip("no auction with two bidders at this scale")

    def test_size_bytes_positive(self, any_store):
        assert any_store.size_bytes() > 0


class TestIdLookup:
    def test_id_index_when_supported(self, any_store, small_document):
        store = any_store
        if not store.has_id_index():
            assert store.lookup_id("person0") is None
            return
        handle = store.lookup_id("person0")
        assert handle is not None
        assert store.tag(handle) == "person"
        assert store.attribute(handle, "id") == "person0"
        assert store.lookup_id("person-that-does-not-exist") is None

    def test_item_lookup(self, any_store):
        store = any_store
        if not store.has_id_index():
            # stores without an ID index must still answer (with a miss),
            # not crash — lookup_id is part of the Store contract
            assert store.lookup_id("item0") is None
            return
        handle = store.lookup_id("item0")
        assert store.tag(handle) == "item"


# -- the rendering and path surface: markup, children_by_path ---------------------------

#: Seven stores plus a mixed-backend sharded store at 2 and 6 shards.
SURFACE_STORES = tuple(sorted(SYSTEMS)) + ("S2", "S6")
SHARD_BACKENDS = ("D", "G", "B", "F", "C", "E", "A")
#: Every operation kind, applied through the engine: D's appended nodes
#: leave its arrays non-sequential.
HISTORY = ("register_person", "place_bid", "close_auction", "delete_item",
           "place_bid", "register_person")


def _store(name: str):
    if name.startswith("S"):
        return ShardedStore(int(name[1:]), SHARD_BACKENDS)
    return make_store(name)


@pytest.fixture(scope="module")
def surface_stores(tiny_text):
    """``(name, state) -> store`` over the tiny document, as loaded and
    after :data:`HISTORY`."""
    reference = make_store("D")
    reference.load(tiny_text)
    stream, history = UpdateStream(reference), []
    for kind in HISTORY:
        op = stream.next_op(kind)
        stream.note_applied(op)
        history.append(op)
    stores = {}
    for name in SURFACE_STORES:
        for state in ("loaded", "updated"):
            store = stores[name, state] = _store(name)
            store.load(tiny_text)
            if state == "updated":
                for op in history:
                    apply_update(store, op)
    return stores


def _every_node(store) -> list:
    nodes, stack = [], [store.root()]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(reversed(store.children(node)))
    return nodes


def _visited(store) -> int:
    """Navigation work on the store and, for a sharded one, its shards."""
    shards = [store.shard_store(rank) for rank in range(store.shard_count)] \
        if isinstance(store, ShardedStore) else []
    return sum(each.stats.nodes_visited for each in [store, *shards])


def _paths(store, node) -> list[tuple[str, ...]]:
    """Names to walk from ``node``: down its first children (up to three
    steps), onto its last child's tag and then a miss, and a miss alone."""
    first, current = [], node
    while len(first) < 3 and (children := store.children(current)):
        current = children[0]
        first.append(store.tag(current))
    paths = [("no-such-tag",)]
    if first:
        paths += [tuple(first), (store.tag(store.children(node)[-1]), "no-such-tag")]
    return paths


@pytest.mark.parametrize("state", ["loaded", "updated"])
@pytest.mark.parametrize("name", SURFACE_STORES)
class TestRenderingSurface:
    def test_markup_is_serialized_build_dom(self, surface_stores, name, state):
        store = surface_stores[name, state]
        nodes = _every_node(store)
        assert len(nodes) > 100
        for node in nodes:
            assert store.markup(node) == serialize(store.build_dom(node))

    def test_children_by_path_is_chained_children_by_tag(self, surface_stores,
                                                          name, state):
        store = surface_stores[name, state]
        for node in _every_node(store):
            for names in _paths(store, node):
                before = _visited(store)
                found = store.children_by_path(node, names)
                between = _visited(store)
                chained = [node]
                for tag in names:
                    chained = [child for parent in chained
                               for child in store.children_by_tag(parent, tag)]
                assert found == chained
                assert between - before == _visited(store) - between
