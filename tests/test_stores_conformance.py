"""Cross-store conformance: every system must agree with the DOM oracle.

The paper's entire methodology rests on seven architectures answering the
same queries identically; these tests pin the navigation API of every store
to the parsed DOM as ground truth.
"""

import types

import pytest

from repro.benchmark.systems import SYSTEMS, get_profile, make_store
from repro.errors import StorageError
from repro.shard import ShardedStore
from repro.storage.interface import Store
from repro.update import (
    CloseAuction, DeleteItem, PlaceBid, RegisterPerson, UpdateStream,
    apply_update,
)
from repro.xmlio.canonical import canonicalize
from repro.xmlio.dom import Element
from repro.xmlio.serialize import serialize
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import compile_query


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

    def test_parent_inverts_children(self, any_store):
        """Including System C's nested rows and fragments below a struct or
        wrapper (``profile/interest``, ``watches/watch``,
        ``annotation/description``): their parent is that struct or
        wrapper, not the entity that owns the row."""
        store = any_store
        stack = [store.root()]
        while stack:
            node = stack.pop()
            for child in store.children(node):
                assert store.parent(child) == node, (node, child)
                stack.append(child)

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


#: The systems whose stores keep an ID index, and a sharded store, whose
#: routing map is one.
ID_INDEXED = tuple(name for name in sorted(SYSTEMS)
                   if make_store(name).has_id_index()) + ("S2",)


@pytest.mark.parametrize("system", ID_INDEXED)
def test_lookup_id_follows_an_id_change(tiny_text, system):
    """A changed ``@id`` moves the node's ID index entry: the new value
    finds the node and the old one finds nothing."""
    store = _store(system)
    store.load(tiny_text)
    handle = store.lookup_id("person0")
    store.set_attribute(handle, "id", "personX")
    assert store.lookup_id("person0") is None
    assert store.lookup_id("personX") == handle
    assert store.attribute(handle, "id") == "personX"


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_an_id_lookup_follows_an_id_change(tiny_text, system):
    """Q1's shape after ``person0`` is renamed: the old id finds nothing
    and the new one finds the person, whether the plan probes the ID
    index (A–D) or scans.  A bare store write maintains the store's own
    ID index but not the secondary indexes (the update engine does
    that), so those are dropped first."""
    store = make_store(system)
    store.load(tiny_text)
    store.drop_indexes()
    people = store.children_by_tag(store.root(), "people")[0]
    person = store.children_by_tag(people, "person")[0]
    name = store.child_texts(store.children_by_tag(person, "name")[0])
    store.set_attribute(person, "id", "personX")
    answers = [evaluate(compile_query(
        'for $b in document("auction.xml")/site/people/person'
        f'[@id = "{value}"] return $b/name/text()',
        store, get_profile(system))).serialize() for value in ("person0", "personX")]
    assert answers == ["", "".join(name)]


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_removing_a_node_twice_is_refused(tiny_text, system):
    """Every store refuses a second ``remove_node`` of the same node with a
    ``StorageError`` saying so, and the document is left as the first
    removal left it."""
    store = make_store(system)
    store.load(tiny_text)
    people = store.children_by_tag(store.root(), "people")[0]
    person = store.children_by_tag(people, "person")[0]
    store.remove_node(person)
    after_first = serialize(store.build_dom(store.root()))
    with pytest.raises(StorageError, match="already removed"):
        store.remove_node(person)
    assert serialize(store.build_dom(store.root())) == after_first
    with pytest.raises(StorageError):
        store.remove_node(store.root())


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


def _loaded_and_updated(text: str, history: list) -> dict:
    """``(name, state) -> store`` of every surface store over ``text``, as
    loaded and after ``history``."""
    stores = {}
    for name in SURFACE_STORES:
        for state in ("loaded", "updated"):
            store = stores[name, state] = _store(name)
            store.load(text)
            if state == "updated":
                for op in history:
                    apply_update(store, op)
    return stores


@pytest.fixture(scope="module")
def surface_stores(tiny_text):
    """The surface stores over the tiny document, as loaded and after
    :data:`HISTORY`."""
    reference = make_store("D")
    reference.load(tiny_text)
    stream, history = UpdateStream(reference), []
    for kind in HISTORY:
        op = stream.next_op(kind)
        stream.note_applied(op)
        history.append(op)
    return _loaded_and_updated(tiny_text, history)


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


#: A hand-written auction document whose content needs every escape the
#: serializer writes: ``& < > "`` in text and in attributes, tab and
#: newline inside attributes, a CDATA section, empty elements and mixed
#: content.  No whitespace between elements, so every architecture keeps
#: every text run.
ESCAPES = "".join((
    '<site><regions><africa>',
    '<item id="item0" featured="a &amp; b &lt; c &gt; d &quot;e&quot;&#9;tab&#10;line">',
    '<location>Tom &amp; Jerry &lt;3 &gt;</location><quantity>1</quantity>',
    '<name>"quoted" name</name><payment>Cash</payment>',
    '<description><parlist><listitem><text>mixed <bold>bold &amp; more</bold>',
    ' tail <emph/> <![CDATA[<raw> & "cdata" ]]>end</text></listitem>',
    '<listitem><text/></listitem></parlist></description>',
    '<shipping>s</shipping><incategory category="category0"/><mailbox/></item>',
    '<item id="item1"><location>X</location><quantity>1</quantity><name>n</name>',
    '<payment>p</payment><description><text>t</text></description>',
    '<shipping>s</shipping><incategory category="category0"/><mailbox><mail>',
    '<from>a &lt;a@x&gt;</from><to>b</to><date>01/01/2000</date>',
    '<text>hi &amp; bye</text></mail></mailbox></item>',
    '</africa><asia/><australia/><europe/><namerica/><samerica/></regions>',
    '<categories><category id="category0"><name>c &amp; c</name>',
    '<description><text>cat</text></description></category></categories>',
    '<catgraph><edge from="category0" to="category0"/></catgraph><people>',
    '<person id="person0"><name>A &amp; B</name><emailaddress>mailto:a@b</emailaddress>',
    '<profile income="1&lt;2&#9;&#10;"><interest category="category0"/>',
    '<business>Yes</business></profile>',
    '<watches><watch open_auction="open_auction0"/></watches></person>',
    '<person id="person1"><name>C</name><emailaddress>mailto:c@d</emailaddress></person>',
    '</people><open_auctions><open_auction id="open_auction0"><initial>1.00</initial>',
    '<bidder><date>01/01/2000</date><time>00:00:00</time>',
    '<personref person="person1"/><increase>1.00</increase></bidder>',
    '<current>2.00</current><itemref item="item0"/><seller person="person0"/>',
    '<annotation><author person="person0"/>',
    '<description><text>&lt;note&gt; &amp; "x"</text></description>',
    '<happiness>1</happiness></annotation><quantity>1</quantity><type>Regular</type>',
    '<interval><start>01/01/2000</start><end>01/01/2001</end></interval>',
    '</open_auction></open_auctions><closed_auctions><closed_auction>',
    '<seller person="person1"/><buyer person="person0"/><itemref item="item1"/>',
    '<price>3.00</price><date>01/01/2000</date><quantity>1</quantity><type>Featured</type>',
    '<annotation><author person="person1"/>',
    '<description><text>done &gt; open</text></description>',
    '<happiness>2</happiness></annotation></closed_auction></closed_auctions></site>',
))


def _escaping_person() -> RegisterPerson:
    person = Element("person", {"id": "person2"})
    person.append(Element("name")).append_text('Q & <A> "B"')
    person.append(Element("emailaddress")).append_text("mailto:q@a")
    return RegisterPerson(person)


@pytest.fixture(scope="module")
def escape_stores():
    """The surface stores over :data:`ESCAPES`, as loaded and after a bid,
    a new person whose name needs escaping, a closing (cascading over a
    watch) and a deletion (cascading over a closed auction)."""
    return _loaded_and_updated(ESCAPES, [
        PlaceBid("open_auction0", "person0", 1.5, "02/01/2000", "01:02:03"),
        _escaping_person(),
        CloseAuction("open_auction0", "03/01/2000"),
        DeleteItem("item1"),
    ])


@pytest.mark.parametrize("state", ["loaded", "updated"])
class TestRenderingEscapes:
    @pytest.mark.parametrize("name", SURFACE_STORES)
    def test_markup_is_serialized_build_dom(self, escape_stores, name, state):
        store = escape_stores[name, state]
        for node in _every_node(store):
            assert store.markup(node) == serialize(store.build_dom(node))
        text = store.markup(store.root())
        assert text == escape_stores["G", state].markup(
            escape_stores["G", state].root())
        for escaped in ("&amp;", "&lt;", "&gt;", "&quot;", "&#9;", "&#10;",
                        "&lt;raw&gt; &amp; \"cdata\" end", "<emph/>"):
            assert escaped in text, escaped

    @pytest.mark.parametrize("name", ("D", "E", "F"))
    def test_array_markup_visits_like_the_generic_walk(self, escape_stores,
                                                       name, state):
        """D, E and F render off their arrays and count one visit per
        element, as the navigation walk of ``Store.markup`` does."""
        store = escape_stores[name, state]
        stats = store.stats
        for node in _every_node(store):
            before = stats.nodes_visited
            own = store.markup(node)
            own_visits = stats.nodes_visited - before
            # An instance attribute shadows the override, so the generic
            # walk's recursion stays generic too.
            store.markup = types.MethodType(Store.markup, store)
            try:
                before = stats.nodes_visited
                generic = store.markup(node)
                generic_visits = stats.nodes_visited - before
            finally:
                del store.markup
            assert own == generic
            assert own_visits == generic_visits
