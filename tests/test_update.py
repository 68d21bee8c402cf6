"""Differential update conformance across the seven store architectures.

The update subsystem's central promise: applying the same operation
sequence to every store yields the *same document* — byte-identical when
serialized back out — and a store that took updates in place answers
Q1-Q20 exactly like a fresh store bulkloaded from that serialized document
(the scratch-reload oracle), with incremental index maintenance enabled
throughout.  Plus the operation-level contracts: referential cascades keep
the document DTD-valid, digests evolve deterministically along the
operation chain, and invalid operations fail cleanly without corrupting
the store.
"""

from __future__ import annotations

import re

import pytest

from repro.benchmark.queries import QUERIES, query_text
from repro.benchmark.systems import SYSTEMS, get_profile, make_store
from repro.errors import UpdateError
from repro.schema.auction import REFERENCE_TARGETS, auction_dtd
from repro.schema.validator import validate
from repro.shard import ShardedStore
from repro.shard.scatter import SHARDED_PROFILE
from repro.storage.interface import rank_by_walk
from repro.update import (
    CloseAuction, DeleteItem, PlaceBid, RegisterPerson, UpdateStream,
    apply_update, serialize_store,
)
from repro.update.engine import (
    _CLOSED_PATH, _ITEM_PATHS, _ITEMREF, _OPEN_PATH, _PERSON_PATH, _WATCH_PATH,
    _walk_where, _where,
)
from repro.xmlgen.generator import generate_string
from repro.xmlio.dom import Element
from repro.xmlio.parser import parse
from repro.xquery.evaluator import QueryResult, _Runtime, evaluate
from repro.xquery.planner import compile_query
from repro.xquery.sequence import Navigator

ALL_SYSTEMS = tuple(sorted(SYSTEMS))

#: The scripted update mix: every operation kind, interleaved, with enough
#: repetition to hit mid-extent inserts (bids) and cascaded removals.
SCRIPT = ("register_person", "place_bid", "place_bid", "close_auction",
          "delete_item", "register_person", "place_bid", "close_auction")


def build_script(text: str, kinds=SCRIPT) -> list:
    """The operation list, generated once against a reference store."""
    reference = make_store("D")
    reference.load(text)
    stream = UpdateStream(reference)
    operations = []
    for kind in kinds:
        op = stream.next_op(kind)
        stream.note_applied(op)
        operations.append(op)
    return operations


def updated_stores(text: str, operations: list) -> dict:
    """Every system loaded with ``text`` and carried through the script
    under incremental index maintenance."""
    stores = {}
    for system in ALL_SYSTEMS:
        store = make_store(system)
        store.load(text)
        for op in operations:
            changes = apply_update(store, op)
            assert changes.maintenance == "incremental"
        stores[system] = store
    return stores


def run(store, system: str, query: int):
    return evaluate(compile_query(query_text(query), store, get_profile(system)))


@pytest.fixture(scope="module")
def text_005():
    """The f=0.005 document: the smaller ones run out of items to delete."""
    return generate_string(0.005)


@pytest.fixture(scope="module")
def tiny_updated(tiny_text):
    operations = build_script(tiny_text)
    stores = updated_stores(tiny_text, operations)
    oracle_text = serialize_store(stores["D"])
    return {"stores": stores, "oracle_text": oracle_text,
            "operations": operations, "source": tiny_text}


@pytest.fixture(scope="module")
def tiny_oracle_stores(tiny_updated):
    fresh = {}
    for system in ALL_SYSTEMS:
        store = make_store(system)
        store.load(tiny_updated["oracle_text"])
        fresh[system] = store
    return fresh


class TestDifferentialTiny:
    """All twenty queries, all seven systems, on the ~100 kB document."""

    def test_serialized_documents_identical_across_stores(self, tiny_updated):
        texts = {system: serialize_store(store)
                 for system, store in tiny_updated["stores"].items()}
        assert len(set(texts.values())) == 1, sorted(
            system for system, text in texts.items()
            if text != texts["D"])

    def test_post_update_document_is_dtd_valid(self, tiny_updated):
        report = validate(parse(tiny_updated["oracle_text"]), auction_dtd(),
                          REFERENCE_TARGETS)
        assert report.ok, report.violations[:5]

    def test_document_actually_changed(self, tiny_updated):
        assert tiny_updated["oracle_text"] != tiny_updated["source"]

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_queries_match_scratch_reload_and_each_other(
            self, tiny_updated, tiny_oracle_stores, query):
        canonicals = {}
        for system in ALL_SYSTEMS:
            mutated = run(tiny_updated["stores"][system], system, query)
            oracle = run(tiny_oracle_stores[system], system, query)
            assert mutated.canonical() == oracle.canonical(), \
                f"Q{query} on System {system}: updated store diverged " \
                "from the scratch reload of its own serialization"
            canonicals[system] = mutated.canonical()
        assert len(set(canonicals.values())) == 1, \
            f"Q{query}: cross-store disagreement"


class TestDifferentialSmall:
    """The same oracle on the ~200 kB document (one pass, key queries)."""

    QUERIES_SMALL = (1, 2, 4, 5, 6, 7, 13, 14, 15, 17, 19, 20)

    @pytest.fixture(scope="class")
    def small_updated(self, small_text):
        operations = build_script(small_text)
        stores = updated_stores(small_text, operations)
        oracle_text = serialize_store(stores["D"])
        return {"stores": stores, "oracle_text": oracle_text}

    def test_serialized_documents_identical_across_stores(self, small_updated):
        texts = {serialize_store(store)
                 for store in small_updated["stores"].values()}
        assert len(texts) == 1

    @pytest.mark.parametrize("query", QUERIES_SMALL)
    def test_queries_match_scratch_reload_and_each_other(self, small_updated, query):
        canonicals = {}
        for system in ALL_SYSTEMS:
            oracle = make_store(system)
            oracle.load(small_updated["oracle_text"])
            mutated = run(small_updated["stores"][system], system, query)
            expected = run(oracle, system, query)
            assert mutated.canonical() == expected.canonical(), \
                f"Q{query} on System {system}"
            canonicals[system] = mutated.canonical()
        assert len(set(canonicals.values())) == 1, f"Q{query}"


class TestUpdateSemantics:
    """Operation-level contracts, checked on one representative store."""

    @pytest.fixture()
    def store(self, tiny_text):
        store = make_store("D")
        store.load(tiny_text)
        return store

    def test_place_bid_raises_current(self, store):
        stream = UpdateStream(store)
        op = stream.next_op("place_bid")
        auction = store.lookup_id(op.auction_id)
        before = float(store.string_value(
            store.children_by_tag(auction, "current")[0]))
        bidders_before = len(store.children_by_tag(auction, "bidder"))
        apply_update(store, op)
        after = float(store.string_value(
            store.children_by_tag(auction, "current")[0]))
        assert after == pytest.approx(before + op.increase)
        assert len(store.children_by_tag(auction, "bidder")) == bidders_before + 1

    def test_close_auction_moves_and_transforms(self, store):
        stream = UpdateStream(store)
        op = stream.next_op("close_auction")
        auction = store.lookup_id(op.auction_id)
        bidders = store.children_by_tag(auction, "bidder")
        buyer = store.attribute(
            store.children_by_tag(bidders[-1], "personref")[0], "person")
        price = store.string_value(store.children_by_tag(auction, "current")[0])
        root = store.root()
        closed_container = store.children_by_tag(root, "closed_auctions")[0]
        closed_before = len(store.children(closed_container))
        apply_update(store, op)
        assert store.lookup_id(op.auction_id) is None
        closed = store.children(closed_container)
        assert len(closed) == closed_before + 1
        newest = closed[-1]
        assert store.attribute(
            store.children_by_tag(newest, "buyer")[0], "person") == buyer
        assert store.string_value(
            store.children_by_tag(newest, "price")[0]) == price
        # No watch may still reference the closed auction.
        people = store.children_by_tag(root, "people")[0]
        for person in store.children_by_tag(people, "person"):
            for watches in store.children_by_tag(person, "watches"):
                for watch in store.children_by_tag(watches, "watch"):
                    assert store.attribute(watch, "open_auction") != op.auction_id

    def test_delete_item_cascades_over_referencing_auctions(self, store):
        stream = UpdateStream(store)
        op = stream.next_op("delete_item")
        apply_update(store, op)
        root = store.root()
        for container in ("open_auctions", "closed_auctions"):
            holder = store.children_by_tag(root, container)[0]
            for auction in store.children(holder):
                itemref = store.children_by_tag(auction, "itemref")
                assert store.attribute(itemref[0], "item") != op.item_id
        report = validate(parse(serialize_store(store)), auction_dtd(),
                          REFERENCE_TARGETS)
        assert report.ok, report.violations[:5]

    def test_close_auction_without_bidder_raises(self, store):
        root = store.root()
        container = store.children_by_tag(root, "open_auctions")[0]
        bidderless = next(
            (store.attribute(a, "id")
             for a in store.children_by_tag(container, "open_auction")
             if not store.children_by_tag(a, "bidder")), None)
        if bidderless is None:
            pytest.skip("tiny document has no bidderless auction")
        with pytest.raises(UpdateError):
            apply_update(store, CloseAuction(bidderless, "01/01/2001"))

    def test_unknown_targets_raise(self, store):
        with pytest.raises(UpdateError):
            apply_update(store, PlaceBid("open_auction99999", "person0",
                                         1.0, "01/01/2001", "00:00:00"))
        with pytest.raises(UpdateError):
            apply_update(store, CloseAuction("open_auction99999", "01/01/2001"))
        with pytest.raises(UpdateError):
            apply_update(store, DeleteItem("item99999"))

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_duplicate_person_id_raises(self, tiny_text, system):
        """With an ID index (its miss is authoritative) or by the scan."""
        store = make_store(system)
        store.load(tiny_text)
        person = UpdateStream(store).build_person()
        apply_update(store, RegisterPerson(person))
        before = serialize_store(store)
        with pytest.raises(UpdateError, match="already registered"):
            apply_update(store, RegisterPerson(person))
        existing = Element("person", {"id": "person0"})
        existing.append(Element("name")).append_text("Again")
        existing.append(Element("emailaddress")).append_text("mailto:again@example.org")
        with pytest.raises(UpdateError, match="already registered"):
            apply_update(store, RegisterPerson(existing))
        assert serialize_store(store) == before


class TestDigestChain:
    def test_digest_deterministic_across_stores_and_replays(self, tiny_text):
        operations = build_script(tiny_text, SCRIPT[:4])
        digests = []
        for system in ("A", "D", "G"):
            store = make_store(system)
            store.load(tiny_text)
            initial = store.document_digest()
            seen = [initial]
            for op in operations:
                apply_update(store, op)
                seen.append(store.document_digest())
            assert len(set(seen)) == len(seen), "every op must move the digest"
            digests.append(tuple(seen))
        assert len(set(digests)) == 1, \
            "stores sharing a lineage must agree on every digest"

    def test_noop_scalar_write_is_detected(self, tiny_text):
        from repro.update.engine import _Application
        store = make_store("D")
        store.load(tiny_text)
        auction = store.children_by_tag(
            store.children_by_tag(store.root(), "open_auctions")[0],
            "open_auction")[0]
        current = store.children_by_tag(auction, "current")[0]
        value = store.string_value(current)
        app = _Application(store)
        path = ("site", "open_auctions", "open_auction", "current")
        assert app.set_text(current, path, value) is False
        assert app.set_text(current, path, value + "1") is True


class TestMaintenanceModes:
    @pytest.mark.parametrize("system", ("D", "B"))
    def test_single_op_indexes_only_the_touched_subtree(self, tiny_text, system):
        """Incremental maintenance is cheaper than a rebuild by count, not
        by clock: one bid indexes its bidder subtree plus the fields that
        read the rewritten ``current`` — a rebuild walks the document."""
        store = make_store(system)
        store.load(tiny_text)
        op = build_script(tiny_text, ("place_bid",))[0]
        changes = apply_update(store, op)
        subtree = sum(1 for _ in op.bidder_element().iter())
        fields = len(store.indexes.spec.fields)
        assert subtree <= changes.nodes_indexed <= subtree + fields
        assert changes.nodes_indexed * 10 < store.indexes.nodes_walked

    def test_dropped_indexes_skip_maintenance(self, tiny_text):
        store = make_store("D")
        store.load(tiny_text)
        store.drop_indexes()
        operations = build_script(tiny_text, ("place_bid",))
        changes = apply_update(store, operations[0])
        assert changes.maintenance == "none"
        assert changes.index_seconds == 0.0
        assert run(store, "D", 2).canonical()  # still answers correctly


class TestUpdateStream:
    def test_same_seed_same_operations(self, tiny_text):
        first = build_script(tiny_text)
        second = build_script(tiny_text)
        assert [op.token() for op in first] == [op.token() for op in second]

    def test_generated_person_is_dtd_valid_fragment(self, tiny_text):
        store = make_store("D")
        store.load(tiny_text)
        stream = UpdateStream(store)
        person = stream.build_person()
        declared = auction_dtd().element("person")
        tags = [child.tag for child in person.child_elements()]
        assert declared.content.matches(tags), tags

    def test_stream_tracks_applied_state(self, tiny_text):
        store = make_store("D")
        store.load(tiny_text)
        stream = UpdateStream(store)
        op = stream.next_op("close_auction")
        stream.note_applied(op)
        assert op.auction_id not in stream.open_bidders


def watching_person(identifier: str, auctions: list[str]) -> RegisterPerson:
    person = Element("person", {"id": identifier})
    person.append(Element("name")).append_text(f"Watcher {identifier}")
    person.append(Element("emailaddress")).append_text(
        f"mailto:{identifier}@example.org")
    watches = person.append(Element("watches"))
    for auction in auctions:
        watches.append(Element("watch", {"open_auction": auction}))
    return RegisterPerson(person)


def label_paths(store) -> set:
    """Every label path of the store's document, by navigation."""
    root = store.root()
    found, stack = set(), [(root, (store.tag(root),))]
    while stack:
        node, path = stack.pop()
        found.add(path)
        stack.extend((child, path + (store.tag(child),))
                     for child in store.children(node))
    return found


def path_extent(store, path: tuple[str, ...]) -> list:
    """The extent a path plan reads: the store's own where it has one
    (B's tables, D's summary), the secondary path index's elsewhere."""
    if store.native_path_extents:
        return store.nodes_at_path(path)
    return store.indexes.paths.nodes(path)


def ranked_extents(store) -> dict:
    """``(structure, label path) -> pre-order ranks of the extent, in the
    extent's own order`` for the extent a path plan reads and, on D, the
    summary."""
    ranks = rank_by_walk(store)
    walked = (label_paths(store) if store.native_path_extents
              else store.indexes.paths.paths())
    extents = {("paths", path): path_extent(store, path) for path in walked}
    if hasattr(store, "summary"):
        extents.update((("summary", path), entry.nodes)
                       for path, entry in store.summary._entries.items())
    return {key: [ranks[node] for node in nodes]
            for key, nodes in extents.items() if len(nodes)}


class TestExtentOrderOracle:
    """Every ordered extent after a history that exercises each way a
    subtree's run can land equals the extent of a scratch reload."""

    @pytest.fixture(scope="class")
    def history(self, tiny_text):
        # No watches at load: the first watching person creates the extent.
        text = re.sub(r"<watches>.*?</watches>", "", tiny_text)
        reference = make_store("D")
        reference.load(text)
        container = reference.children_by_tag(reference.root(), "open_auctions")[0]
        auctions = reference.children_by_tag(container, "open_auction")
        ids = [reference.attribute(auction, "id") for auction in auctions]
        early, middle, late = ids[1], ids[len(ids) // 2], ids[-2]
        doomed_item = reference.attribute(
            reference.children_by_tag(auctions[len(ids) // 2], "itemref")[0], "item")

        def bid(auction, person):
            return PlaceBid(auction, person, 3.0, "01/02/2001", "10:20:30")

        return text, [
            watching_person("person9001", [late] * 3),     # run of 3, new extent
            bid(late, "person0"), bid(late, "person1"),
            bid(early, "person2"),                          # mid-extent
            CloseAuction(late, "02/02/2001"),               # empties the watch extent
            watching_person("person9002", [early, middle, ids[0]]),  # empty extent
            DeleteItem(doomed_item),                        # cascades over `middle`
            bid(ids[2], "person3"),
            watching_person("person9003", [early, ids[2], ids[3]]),
            CloseAuction(early, "03/02/2001"),
        ]

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_extents_equal_scratch_reload_in_order(self, history, system):
        text, operations = history
        store = make_store(system)
        store.load(text)
        watch = ("site", "people", "person", "watches", "watch")
        assert path_extent(store, watch) == []
        for position, op in enumerate(operations):
            apply_update(store, op)
            if position == 4:
                assert path_extent(store, watch) == []
        reloaded = make_store(system)
        reloaded.load(serialize_store(store))
        expected = ranked_extents(reloaded)
        assert len(expected[("paths", watch)]) == 3     # of nine: cascades took six
        assert all(ranks == sorted(ranks) for ranks in expected.values())
        assert ranked_extents(store) == expected


class TestWriteWorkBound:
    """docs/UPDATES.md invariant 3: what a write lists does not grow with
    the document.  Counted, not timed: ``children`` calls of one appended
    person and one mid-extent bid on a document with ~500 persons and ~240
    open auctions."""

    #: One call per walked node (12 inserted) plus the bid's slot lookups;
    #: listing siblings per order key took over 400.
    BOUND = 32

    @pytest.fixture(scope="class")
    def document(self):
        return generate_string(0.02)

    @pytest.mark.parametrize("system", ("A", "B", "D"))
    def test_children_calls_are_bounded(self, document, system):
        store = make_store(system)
        store.load(document)
        container = store.children_by_tag(store.root(), "open_auctions")[0]
        auctions = store.children_by_tag(container, "open_auction")
        assert len(auctions) > 200
        target = store.attribute(auctions[len(auctions) // 3], "id")
        calls = 0
        listed = store.children

        def counting(node):
            nonlocal calls
            calls += 1
            return listed(node)

        store.children = counting
        apply_update(store, watching_person("person9001", [target] * 3))
        apply_update(store, PlaceBid(target, "person0", 3.0,
                                     "01/02/2001", "10:20:30"))
        del store.children
        assert 0 < calls <= self.BOUND
        # B's extents are its tables: a write splices no ordered extent.
        # A splices its path index, D its summary.
        assert (store.stats.extent_splices == 0) == (system == "B")


class TestCommitCostsTheNextReadNothing:
    """Order labels survive a write: after a seeded 300-op history on D, E
    and F no write had to respace labels, and each descendant step of Q6,
    Q7, Q14 and Q19 visits no more than the same step on a scratch reload
    plus the inserted nodes in its window.  Counted, not timed."""

    #: (child path from the root, descendant tag) of each query's steps.
    STEPS = ((("regions",), "item"),            # Q6, Q19
             ((), "description"),               # Q7
             ((), "annotation"),
             ((), "emailaddress"),
             ((), "item"))                      # Q14

    @pytest.fixture(scope="class")
    def history(self, text_005):
        reference = make_store("D")
        reference.load(text_005)
        return text_005, UpdateStream(reference, seed=23).sequence(300)

    @pytest.mark.parametrize("system", ("D", "E", "F"))
    def test_descendant_steps_after_a_history(self, history, system):
        text, operations = history
        store = make_store(system)
        store.load(text)
        loaded = store.node_count()             # inserted ids come after these
        for op in operations:
            apply_update(store, op)
        assert store.node_count() > loaded and store.stats.relabels == 0
        scratch = make_store(system)
        scratch.load(serialize_store(store))
        for names, tag in self.STEPS:
            node = store.children_by_path(store.root(), names)[0]
            fresh = scratch.children_by_path(scratch.root(), names)[0]
            before = store.stats.nodes_visited
            found = store.descendants_by_tag(node, tag)
            visited = store.stats.nodes_visited - before
            before = scratch.stats.nodes_visited
            expected = scratch.descendants_by_tag(fresh, tag)
            bound = scratch.stats.nodes_visited - before
            assert expected and [store.markup(n) for n in found] == \
                [scratch.markup(n) for n in expected], (names, tag)
            inserted = sum(1 for n in store.descendants(node) if n >= loaded)
            assert visited <= bound + inserted, (names, tag, visited, bound)


#: The value fields the cascades probe: who watches an open auction, and
#: the item and auctions that share an item id.
WATCH_FIELD = (_WATCH_PATH, ("@open_auction",))
ITEM_FIELDS = tuple((path, ("@id",)) for path in _ITEM_PATHS) + (
    (_OPEN_PATH, _ITEMREF), (_CLOSED_PATH, _ITEMREF))
SHARD_BACKENDS = ("D", "G", "B", "F", "C", "E", "A")


def inflated(text: str, copies: int) -> str:
    """``text`` with every person, item and auction repeated ``copies``
    more times under fresh ids, the references inside each copy renamed
    alike: every original entity keeps its content and its referrers, in a
    document ``copies + 1`` times the size."""
    def repeated(match: re.Match) -> str:
        start, body, end = match[1], match[3], match[4]
        return start + body + "".join(
            re.sub(r'="(person|item|open_auction)(\d+)"', rf'="\1\2x{copy}"',
                   body)
            for copy in range(copies)) + end
    return re.sub(r"(<(people|open_auctions|closed_auctions|africa|asia"
                  r"|australia|europe|namerica|samerica)>)(.*?)(</\2>)",
                  repeated, text, flags=re.S)


class TestCascadeTargets:
    """``close_auction`` and ``delete_item`` find the watches, item and
    auctions they take with them by value-index probes
    (``engine._where``), and by walking the extents only on a store whose
    indexes were dropped."""

    @pytest.fixture(scope="class")
    def history(self, tiny_text):
        reference = make_store("D")
        reference.load(tiny_text)
        return UpdateStream(reference, seed=11).sequence(40)

    @pytest.mark.parametrize("name", ALL_SYSTEMS + ("S2", "S6"))
    def test_probes_name_what_the_walk_names(self, tiny_text, history, name):
        """Every system and a mixed-backend sharded store (its global
        IndexSet over wrapped handles), after a history."""
        store = (ShardedStore(int(name[1:]), SHARD_BACKENDS)
                 if name.startswith("S") else make_store(name))
        store.load(tiny_text)
        for op in history:
            apply_update(store, op)
        assert store.indexes is not None
        root = store.root()
        auctions = [store.attribute(auction, "id") for auction in
                    store.children_by_path(root, ("open_auctions", "open_auction"))]
        items = [store.attribute(item, "id") for path in _ITEM_PATHS
                 for item in store.children_by_path(root, path[1:])]
        found = 0
        for (path, accessor), values in ((WATCH_FIELD, auctions),
                                         *((field, items) for field in ITEM_FIELDS)):
            for value in values:
                probed = _where(store, path, accessor, value)
                assert set(probed) == set(_walk_where(store, path, accessor, value)), \
                    (path, value)
                found += len(probed)
        assert found > len(items)       # watches and referring auctions too

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_dropped_indexes_walk_to_the_same_document(self, tiny_text, system):
        reference = make_store("D")
        reference.load(tiny_text)
        root = reference.root()
        watched = {reference.attribute(watch, "open_auction") for watch in
                   reference.children_by_path(root, WATCH_FIELD[0][1:])}
        open_ids = [reference.attribute(auction, "id") for auction in
                    reference.children_by_path(root, _OPEN_PATH[1:])
                    if reference.children_by_tag(auction, "bidder")]
        closing, doomed = [identifier for identifier in open_ids
                           if identifier in watched][:2]

        def item_of(auction) -> str:
            return reference.attribute(
                reference.children_by_tag(auction, "itemref")[0], "item")

        operations = [
            CloseAuction(closing, "05/05/2001"),
            DeleteItem(item_of(reference.lookup_id(doomed))),
            DeleteItem(item_of(reference.children_by_path(root, _CLOSED_PATH[1:])[0])),
        ]
        indexed, walked = make_store(system), make_store(system)
        indexed.load(tiny_text)
        walked.load(tiny_text)
        walked.drop_indexes()
        for op in operations:
            assert apply_update(indexed, op).maintenance == "incremental"
            assert apply_update(walked, op).maintenance == "none"
        text = serialize_store(indexed)
        assert serialize_store(walked) == text
        assert f'open_auction="{closing}"' not in text
        assert f'open_auction="{doomed}"' not in text

    def test_ids_that_read_as_numbers_are_walked(self, tiny_text):
        """``nan``, ``inf`` and ``infinity`` are XML names, but the index
        keys them by the number: ``nan`` not at all, the other two as one."""
        text = (tiny_text.replace('="item0"', '="nan"')
                .replace('="item1"', '="inf"').replace('="item2"', '="infinity"'))
        indexed, walked = make_store("D"), make_store("D")
        indexed.load(text)
        walked.load(text)
        walked.drop_indexes()
        for op in (DeleteItem("nan"), DeleteItem("inf")):
            apply_update(indexed, op)
            apply_update(walked, op)
        text = serialize_store(indexed)
        assert serialize_store(walked) == text
        assert 'id="infinity"' in text and 'id="inf"' not in text

    @pytest.mark.parametrize("system", ("B", "D", "F"))
    def test_cascade_work_does_not_grow_with_the_document(self, text_005, system):
        """Counted, not timed: the largest ``nodes_visited + table_lookups``
        of ten closings and deletions on a document four times the size
        (the size of f=0.02) is within 1.25x of the same operations on the
        f=0.005 one.  The larger document repeats every entity under fresh
        ids, so each operation meets the same targets and cascades in both;
        walking every person and auction made it 3.4x."""
        reference = make_store("D")
        reference.load(text_005)
        stream, operations = UpdateStream(reference, seed=5), []
        for kind in ("close_auction", "delete_item") * 5:
            op = stream.next_op(kind)
            stream.note_applied(op)
            operations.append(op)
        largest = {}
        for copies in (0, 3):
            store = make_store(system)
            store.load(inflated(text_005, copies))
            stats, work = store.stats, []
            for op in operations:
                before = stats.nodes_visited + stats.table_lookups
                apply_update(store, op)
                work.append(stats.nodes_visited + stats.table_lookups - before)
            largest[copies] = max(work)
        assert largest[3] <= 1.25 * largest[0], largest


#: Q10's join field: the distinct interest categories of a person.
CATEGORY_FIELD = (_PERSON_PATH, ("profile", "interest", "@category"))


def interested_person(identifier: str, categories: list[str]) -> RegisterPerson:
    """A person whose profile names ``categories``, repeats included."""
    person = Element("person", {"id": identifier})
    person.append(Element("name")).append_text(f"Reader {identifier}")
    person.append(Element("emailaddress")).append_text(
        f"mailto:{identifier}@example.org")
    profile = person.append(Element("profile", {"income": "50000.00"}))
    for category in categories:
        profile.append(Element("interest", {"category": category}))
    profile.append(Element("business")).append_text("No")
    return RegisterPerson(person)


class TestCategoryField:
    """The category field stays true through a seeded history that
    registers a person whose interests repeat a category."""

    @pytest.fixture(scope="class")
    def history(self, tiny_text):
        reference = make_store("D")
        reference.load(tiny_text)
        stream = UpdateStream(reference, seed=3)
        operations = stream.sequence(20)
        first, second = stream.category_ids[:2]
        operations.insert(10, interested_person("person90001", [first, second, first]))
        return operations

    @staticmethod
    def updated(name: str, text: str, history: list):
        store = (ShardedStore(int(name[1:]), SHARD_BACKENDS)
                 if name.startswith("S") else make_store(name))
        store.load(text)
        for op in history:
            apply_update(store, op)
        return store

    @pytest.mark.parametrize("name", ("A", "B", "C", "D", "E", "S2", "S6"))
    def test_probe_names_each_person_once(self, tiny_text, history, name):
        store = self.updated(name, tiny_text, history)
        categories = [store.attribute(category, "id") for category in
                      store.children_by_path(store.root(), ("categories", "category"))]
        path, accessor = CATEGORY_FIELD
        (reader,) = _walk_where(store, _PERSON_PATH, ("@id",), "person90001")
        pairs = 0
        for category in categories:
            probed = _where(store, path, accessor, category)
            assert set(probed) == set(_walk_where(store, path, accessor, category))
            assert len(probed) == len(set(probed)), category
            assert (reader in probed) == (category in categories[:2]), category
            pairs += len(probed)
        assert pairs > len(categories)

    @pytest.mark.parametrize("name", ("A", "B", "C", "D", "E", "S2", "S6"))
    def test_q10_answers_as_g(self, tiny_text, history, name):
        expected = run(self.updated("G", tiny_text, history), "G", 10).serialize()
        store = self.updated(name, tiny_text, history)
        profile = SHARDED_PROFILE if name.startswith("S") else get_profile(name)
        compiled = compile_query(query_text(10), store, profile)
        assert [plan.index_kind for plan in compiled.join_plans.values()] == ["value"]
        assert evaluate(compiled).serialize() == expected

    def test_dropped_index_twin_degrades_to_the_same_answer(self, tiny_text, history):
        indexed, twin = (self.updated("D", tiny_text, history) for _ in range(2))
        expected = run(indexed, "D", 10).serialize()
        compiled = compile_query(query_text(10), twin, get_profile("D"))
        twin.drop_indexes()
        rt = _Runtime(compiled.frame_size)
        assert QueryResult(compiled.run(rt), Navigator(twin)).serialize() == expected
        assert rt.join_builds == 1 and rt.index_degrades > 0
