"""The sharded document subsystem.

Three layers under test:

* the partitioner — placement rules, co-location, loadable fragments;
* the ShardedStore compatibility path — bit-identical serialization,
  Q1-Q20 answers, and update replay against a single-store oracle
  (deterministic cases plus a hypothesis property over op sequences,
  shard counts and mixed backend architectures);
* the scatter-gather executor — distributed plan selection, result
  equality per plan kind, and shard-selective partial caching.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmark.queries import QUERIES, query_text
from repro.benchmark.systems import get_profile, make_store
from repro.errors import ShardError, StorageError
from repro.schema.auction import REGIONS
from repro.shard.partition import (
    DocumentPartitioner, EXTENT_SPECS, shard_of_key,
)
from repro.shard.scatter import SHARDED_PROFILE, ScatterGatherExecutor
from repro.shard.store import ShardedStore
from repro.storage.interface import store_document_text
from repro.update.engine import apply_update
from repro.update.stream import UpdateStream
from repro.xmlio.dom import Element
from repro.xmlio.parser import parse
from repro.xmlio.serialize import serialize
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import compile_query


def run_store(store, profile, number: int) -> str:
    return evaluate(compile_query(query_text(number), store, profile)).serialize()


@pytest.fixture(scope="module")
def oracle_store(tiny_text):
    store = make_store("F")
    store.load(tiny_text)
    return store


@pytest.fixture(scope="module")
def sharded_three(tiny_text):
    store = ShardedStore(3, ("F", "G", "E"))
    store.load(tiny_text)
    return store


class TestPartitioner:
    def test_every_entity_lands_on_exactly_one_shard(self, tiny_text):
        partition = DocumentPartitioner(3).partition(tiny_text)
        source = parse(tiny_text).root
        for spec in EXTENT_SPECS:
            container = source
            for tag in spec.path[1:]:
                container = container.find(tag)
            total = len(list(container.child_elements()))
            assignment = partition.extents[spec.path]
            seqs = [seq for shard in assignment.seqs for seq in shard]
            assert sorted(seqs) == list(range(total))

    def test_placement_rules(self, tiny_text):
        partition = DocumentPartitioner(3).partition(tiny_text)
        fragments = [parse(text).root for text in partition.shard_texts]
        for rank, site in enumerate(fragments):
            people = site.find("people")
            for person in people.child_elements():
                identifier = person.attributes["id"]
                assert shard_of_key(identifier, 3) == rank
                assert partition.id_map[identifier][0] == rank
            regions = site.find("regions")
            for position, region in enumerate(regions.child_elements()):
                assert region.tag == REGIONS[position]
                if list(region.child_elements()):
                    assert position % 3 == rank
            for container in ("open_auctions", "closed_auctions"):
                for auction in site.find(container).child_elements():
                    item = auction.find("itemref").attributes["item"]
                    assert shard_of_key(item, 3) == rank

    def test_auctions_referencing_one_item_are_co_located(self, tiny_text):
        partition = DocumentPartitioner(6).partition(tiny_text)
        item_shard: dict[str, set[int]] = {}
        for rank, text in enumerate(partition.shard_texts):
            site = parse(text).root
            for container in ("open_auctions", "closed_auctions"):
                for auction in site.find(container).child_elements():
                    item = auction.find("itemref").attributes["item"]
                    item_shard.setdefault(item, set()).add(rank)
        assert item_shard and all(len(s) == 1 for s in item_shard.values())

    def test_categories_live_on_shard_zero(self, tiny_text):
        partition = DocumentPartitioner(4).partition(tiny_text)
        for rank, text in enumerate(partition.shard_texts[1:], start=1):
            site = parse(text).root
            assert not list(site.find("categories").child_elements())
            assert not list(site.find("catgraph").child_elements())

    def test_single_shard_fragment_is_the_whole_document(self, tiny_text):
        partition = DocumentPartitioner(1).partition(tiny_text)
        assert partition.shard_texts == [serialize(parse(tiny_text).root)]

    def test_summary_counts(self, tiny_text):
        partition = DocumentPartitioner(2).partition(tiny_text)
        summary = partition.summary()
        assert summary["shards"] == 2
        persons = sum(row["person"] for row in summary["entities"])
        assert persons == len(parse(tiny_text).root.find("people").children)

    def test_rejects_bad_input(self, tiny_text):
        with pytest.raises(ShardError):
            DocumentPartitioner(0)
        with pytest.raises(ShardError):
            DocumentPartitioner(2).partition("<notsite/>")


class TestShardedStoreNavigation:
    def test_serialization_is_bit_identical(self, tiny_text, oracle_store,
                                            sharded_three):
        assert store_document_text(sharded_three) == \
            store_document_text(oracle_store)

    @pytest.mark.parametrize("number", sorted(QUERIES))
    def test_compatibility_path_answers_match_oracle(
            self, number, oracle_store, sharded_three):
        expected = run_store(oracle_store, get_profile("F"), number)
        assert run_store(sharded_three, SHARDED_PROFILE, number) == expected

    def test_doc_positions_sort_like_document_order(self, sharded_three):
        walked = []
        stack = [sharded_three.root()]
        while stack:
            node = stack.pop()
            walked.append(sharded_three.doc_position(node))
            stack.extend(reversed(sharded_three.children(node)))
        assert walked == sorted(walked)

    def test_lookup_id_routes_across_shards(self, sharded_three, oracle_store):
        handle = sharded_three.lookup_id("person0")
        assert handle is not None
        assert sharded_three.tag(handle) == "person"
        assert sharded_three.attribute(handle, "id") == "person0"
        assert sharded_three.lookup_id("no-such-id") is None

    def test_virtual_containers_refuse_direct_structural_writes(
            self, sharded_three):
        root = sharded_three.root()
        with pytest.raises(StorageError):
            sharded_three.remove_node(root)
        with pytest.raises(StorageError):
            sharded_three.insert_child(root, Element("people"))
        with pytest.raises(StorageError):
            sharded_three.set_text(root, "boom")

    def test_rejects_bad_construction(self):
        with pytest.raises(ShardError):
            ShardedStore(0)
        with pytest.raises(ShardError):
            ShardedStore(2, ())


class TestShardedUpdates:
    """The update engine on the sharded store vs a single-store replay."""

    BACKEND_MIXES = [("F",), ("F", "G", "E"), ("A", "F")]

    @settings(max_examples=4, deadline=None)
    @given(
        shards=st.sampled_from((1, 2, 6)),
        mix=st.sampled_from(range(len(BACKEND_MIXES))),
        seed=st.integers(min_value=1, max_value=2**31),
        op_count=st.integers(min_value=3, max_value=8),
    )
    def test_replay_property(self, tiny_text, shards, mix, seed, op_count):
        """Q1-Q20 and post-update serializations over a ShardedStore are
        bit-identical to a single store replaying the same op sequence."""
        single = make_store("F")
        single.load(tiny_text)
        sharded = ShardedStore(shards, self.BACKEND_MIXES[mix])
        sharded.load(tiny_text)
        stream = UpdateStream(single, seed)
        for _ in range(op_count):
            op = stream.next_op()
            stream.note_applied(op)
            first = apply_update(single, op)
            second = apply_update(sharded, op)
            assert first.digest == second.digest
        assert store_document_text(sharded) == store_document_text(single)
        for number in sorted(QUERIES):
            assert run_store(sharded, SHARDED_PROFILE, number) == \
                run_store(single, get_profile("F"), number)

    def test_close_auction_cascade_is_co_located(self, tiny_text):
        sharded = ShardedStore(3, ("F",))
        sharded.load(tiny_text)
        single = make_store("F")
        single.load(tiny_text)
        stream = UpdateStream(single)
        op = stream.next_op("close_auction")
        open_shard = sharded.shard_of_id(op.auction_id)
        closed_path = ("site", "closed_auctions")
        before = [len(shard) for shard in sharded.extent_members(closed_path)]
        apply_update(sharded, op)
        after = [len(shard) for shard in sharded.extent_members(closed_path)]
        grew = [rank for rank in range(3) if after[rank] == before[rank] + 1]
        assert grew == [open_shard]

    def test_writes_advance_only_the_touched_shard_digest(self, tiny_text):
        sharded = ShardedStore(3, ("F",))
        sharded.load(tiny_text)
        single = make_store("F")
        single.load(tiny_text)
        stream = UpdateStream(single)
        op = stream.next_op("register_person")
        target = shard_of_key(op.person.attributes["id"], 3)
        before = [sharded.shard_digest(rank) for rank in range(3)]
        apply_update(sharded, op)
        after = [sharded.shard_digest(rank) for rank in range(3)]
        for rank in range(3):
            if rank == target:
                assert after[rank] != before[rank]
            else:
                assert after[rank] == before[rank]
        assert sharded.shard_indexes_dirty(target)
        sharded.ensure_shard_indexes(target)
        assert not sharded.shard_indexes_dirty(target)


class TestScatterGather:
    #: All twenty, recorded on the scatter.py planner before it moved
    #: into compile_query: a recogniser that stops matching must fail
    #: here, not silently send a distributed query down the fallback.
    EXPECTED_PLANS = {
        1: "routed", 2: "scatter_flwor", 3: "scatter_flwor",
        4: "scatter_flwor", 5: "partial_count", 6: "fallback",
        7: "fallback", 8: "broadcast_join", 9: "fallback", 10: "fallback",
        11: "fallback", 12: "fallback", 13: "routed", 14: "fallback",
        15: "fallback", 16: "scatter_flwor", 17: "scatter_flwor",
        18: "fallback", 19: "fallback", 20: "fallback",
    }

    @pytest.fixture(scope="class")
    def executor(self, sharded_three):
        with ScatterGatherExecutor(sharded_three) as executor:
            yield executor

    def test_plan_selection(self, executor):
        assert sorted(self.EXPECTED_PLANS) == sorted(QUERIES)
        for number, kind in self.EXPECTED_PLANS.items():
            assert executor.explain(query_text(number)) == kind, f"Q{number}"

    def test_the_planner_is_used_through_its_public_names(self):
        """Shapes are the planner's decisions: the executor neither
        re-derives them nor reaches into the planner's helpers."""
        import ast
        import inspect

        import repro.shard.scatter as scatter
        imported = [alias.name
                    for node in ast.walk(ast.parse(inspect.getsource(scatter)))
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "repro.xquery.planner"
                    for alias in node.names]
        assert imported and not [n for n in imported if n.startswith("_")]

    @pytest.mark.parametrize("number", sorted(QUERIES))
    def test_distributed_results_match_oracle(self, number, executor,
                                              oracle_store):
        expected = run_store(oracle_store, get_profile("F"), number)
        outcome = executor.execute(query_text(number))
        assert outcome.result.serialize() == expected

    def test_routed_query_touches_one_shard(self, executor):
        outcome = executor.execute(query_text(1))
        assert outcome.plan_kind == "routed"
        assert outcome.shards_used == 1

    def test_join_with_computed_inner_return_is_not_distributed(
            self, executor, oracle_store):
        """count($a) over ``return $t/bidder`` counts the *returned* items
        per match, which build-side bucket counts cannot stand in for —
        the shape must fall back, and the fallback must match the oracle."""
        query = (
            'for $p in document("auction.xml")/site/people/person\n'
            'let $a := for $t in document("auction.xml")'
            '/site/open_auctions/open_auction\n'
            '          where $t/seller/@person = $p/@id\n'
            '          return $t/bidder\n'
            'return <x>{count($a)}</x>')
        assert executor.explain(query) == "fallback"
        expected = evaluate(compile_query(
            query, oracle_store, get_profile("F"))).serialize()
        assert executor.execute(query).result.serialize() == expected

    def test_join_whose_rows_a_nested_flwor_reads_is_not_distributed(
            self, executor, oracle_store):
        """A constructor that iterates the let's rows in a FLWOR reads
        more than their count: the broadcast join's bucket counts would
        stand in for nodes a path step then navigates."""
        query = (
            "for $p in /site/people/person "
            "let $a := for $t in /site/closed_auctions/closed_auction "
            "where $t/buyer/@person = $p/@id return $t "
            "return <r>{for $x in $a return $x/price/text()}</r>")
        assert executor.explain(query) == "fallback"
        expected = evaluate(compile_query(
            query, oracle_store, get_profile("F"))).serialize()
        assert executor.execute(query).result.serialize() == expected

    def test_routed_unknown_id_is_empty(self, executor):
        outcome = executor.execute(
            'for $b in document("auction.xml")/site/people/person'
            '[@id = "person999999"] return $b/name/text()')
        assert outcome.plan_kind == "routed"
        assert len(outcome.result) == 0

    def test_count_pushdown_skips_materialization(self, sharded_three,
                                                  oracle_store):
        with ScatterGatherExecutor(sharded_three) as executor:
            for store in sharded_three.shard_stores():
                store.stats.reset()
            outcome = executor.execute(query_text(5))
            visited = sum(store.stats.nodes_visited
                          for store in sharded_three.shard_stores())
            lookups = sum(store.stats.index_lookups
                          for store in sharded_three.shard_stores())
        expected = run_store(oracle_store, get_profile("F"), 5)
        assert outcome.result.serialize() == expected
        assert lookups == sharded_three.shard_count
        assert visited == 0              # pure bisection, no navigation

    def test_single_shard_mode_delegates_to_the_backend(self, tiny_text,
                                                        oracle_store):
        sharded = ShardedStore(1, ("F",))
        sharded.load(tiny_text)
        with ScatterGatherExecutor(sharded) as executor:
            outcome = executor.execute(query_text(5))
            assert outcome.plan_kind == "single"
            assert outcome.result.serialize() == \
                run_store(oracle_store, get_profile("F"), 5)

    def test_closed_executor_rejects_work(self, tiny_text):
        sharded = ShardedStore(2, ("F",))
        sharded.load(tiny_text)
        executor = ScatterGatherExecutor(sharded)
        executor.close()
        with pytest.raises(ShardError):
            executor.execute(query_text(1))


class TestShardSelectiveInvalidation:
    def test_write_invalidates_only_the_touched_shards_partials(self, tiny_text):
        sharded = ShardedStore(3, ("F",))
        sharded.load(tiny_text)
        single = make_store("F")
        single.load(tiny_text)
        with ScatterGatherExecutor(sharded) as executor:
            first = executor.execute(query_text(5))
            assert first.partial_misses == 3 and first.partial_hits == 0
            warm = executor.execute(query_text(5))
            assert warm.partial_hits == 3 and warm.partial_misses == 0

            op = UpdateStream(single).next_op("register_person")
            target = shard_of_key(op.person.attributes["id"], 3)
            apply_update(sharded, op)

            third = executor.execute(query_text(5))
            # Only the written shard's digest moved: its partial recomputes,
            # the other shards' cached partials keep serving.
            assert third.partial_hits == 2
            assert third.partial_misses == 1
            assert third.result.serialize() == first.result.serialize()
            assert sharded.shard_digest(target) is not None

    def test_routes_follow_the_routing_map_across_writes(self, tiny_text):
        """Placement is read per execution: one executor, reused across
        ``apply_update``, finds a person registered after its first look
        and stops finding an item (and its auction) once deleted."""
        sharded = ShardedStore(2, ("F",))
        sharded.load(tiny_text)
        single = make_store("F")
        single.load(tiny_text)
        stream = UpdateStream(single)
        register = stream.next_op("register_person")
        delete = stream.next_op("delete_item")
        person = ('for $b in /site/people/person[@id="%s"] '
                  'return $b/name/text()' % register.person.attributes["id"])
        items = ['for $i in /site/regions/%s/item[@id="%s"] '
                 'return $i/name/text()' % (region, delete.item_id)
                 for region in REGIONS]

        def oracle(query):
            return evaluate(compile_query(
                query, single, get_profile("F"))).serialize()

        with ScatterGatherExecutor(sharded) as executor:
            def distributed(query):
                outcome = executor.execute(query)
                assert outcome.plan_kind == "routed"
                return outcome.result.serialize()

            assert distributed(person) == oracle(person) == ""
            assert any(distributed(query) for query in items)
            for op in (register, delete):
                apply_update(single, op)
                apply_update(sharded, op)
            assert distributed(person) == oracle(person) != ""
            assert [distributed(query) for query in items] == [""] * len(items)

    def test_join_probe_partials_cover_every_shard_digest(self, tiny_text):
        """A build-side write on one shard must refresh *all* probe
        partials (they embed the broadcast table), not just that shard's."""
        sharded = ShardedStore(2, ("F",))
        sharded.load(tiny_text)
        single = make_store("F")
        single.load(tiny_text)
        with ScatterGatherExecutor(sharded) as executor:
            executor.execute(query_text(8))
            stream = UpdateStream(single)
            op = stream.next_op("close_auction")   # grows closed_auctions
            apply_update(single, op)
            apply_update(sharded, op)
            outcome = executor.execute(query_text(8))
            assert outcome.result.serialize() == \
                run_store(single, get_profile("F"), 8)


def test_shard_of_key_is_stable():
    assert shard_of_key("person0", 6) == zlib.crc32(b"person0") % 6
    assert shard_of_key("person0", 6) == shard_of_key("person0", 6)
