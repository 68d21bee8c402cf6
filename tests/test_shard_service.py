"""The sharded deployment behind the query service.

The service serves the sharded store as one more system: same admission,
same result-cache keying (on the sharded store's global digest chain),
same write path through the update engine — plus the executor's
distributed plans underneath.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.benchmark.queries import query_text
from repro.errors import BenchmarkError, ShardError
from repro.schema.auction import REGIONS
from repro.service import QueryService, ShardSpec
from repro.update.stream import UpdateStream


@pytest.fixture(scope="module")
def sharded_service(tiny_text):
    with QueryService(
        tiny_text, ("F",),
        shard_spec=ShardSpec(shards=3, backends=("F",)),
    ) as service:
        yield service


class TestShardedService:
    def test_serves_the_shard_system(self, sharded_service):
        assert "S" in sharded_service.stores
        assert "S" in sharded_service.load_reports
        outcome = sharded_service.execute("S", 1)
        assert outcome.system == "S"
        assert outcome.result_size == 1

    @pytest.mark.parametrize("number", (1, 2, 5, 8, 13, 20))
    def test_sharded_answers_match_the_unsharded_system(
            self, sharded_service, number):
        sharded = sharded_service.execute("S", number)
        unsharded = sharded_service.execute("F", number)
        assert sharded.result.serialize() == unsharded.result.serialize()

    def test_result_cache_serves_repeats(self, tiny_text):
        with QueryService(tiny_text, ("F",),
                          shard_spec=ShardSpec(shards=2)) as service:
            first = service.execute("S", 5)
            again = service.execute("S", 5)
            assert not first.result_cache_hit
            assert again.result_cache_hit
            assert again.result.serialize() == first.result.serialize()

    def test_write_path_keeps_the_sharded_lineage(self, tiny_text):
        with QueryService(tiny_text, ("F",),
                          shard_spec=ShardSpec(shards=3)) as service:
            summary = service.apply_update(
                UpdateStream(service.store("F")).next_op())
            assert set(summary["systems"]) == {"F", "S"}
            digests = {store.document_digest()
                       for store in service.stores.values()}
            assert len(digests) == 1     # same op chain, same digest
            sharded = service.execute("S", 8)
            unsharded = service.execute("F", 8)
            assert sharded.result.serialize() == unsharded.result.serialize()

    def test_clients_can_target_the_shard_system(self, sharded_service):
        before = sharded_service.metrics.snapshot()

        def client(_rank: int) -> None:
            for query in (1, 2, 5, 20):
                assert sharded_service.submit("S", query).result().system == "S"

        with ThreadPoolExecutor(max_workers=2) as clients:
            list(clients.map(client, range(2)))
        after = sharded_service.metrics.snapshot()
        assert after["completed"] - before["completed"] == 8
        assert after["errors"] == before["errors"]

    def test_partials_and_plans_are_cached_per_system(self, sharded_service):
        sharded_service.execute("S", 5)
        exchange = sharded_service.store("S").exchange
        assert exchange.partial_cache.stats.misses >= 3
        # S plans live in the service's one plan cache, sized per system.
        assert sharded_service.plan_cache.capacity == 2 * 128

    @pytest.mark.parametrize("service", [False, True])
    def test_routes_follow_commits(self, tiny_text, service):
        """A routed plan outlives the commit that moves its target: the
        point query for a person registered *after* its first execution
        answers like D, and a deleted item's routed query comes back
        empty — on a direct sharded connection and behind the service
        (whose plan cache keeps the plan across the commit)."""
        with repro.connect(tiny_text, systems=("D",), shards=2,
                           service=service) as db:
            session = db.session()
            stream = UpdateStream(db.store("D"))
            register = stream.next_op("register_person")
            delete = stream.next_op("delete_item")
            person = ('for $b in /site/people/person[@id="%s"] '
                      'return $b/name/text()'
                      % register.person.attributes["id"])
            items = ['for $i in /site/regions/%s/item[@id="%s"] '
                     'return $i/name/text()' % (region, delete.item_id)
                     for region in REGIONS]

            def on(system, query):
                return session.execute(query, system=system).serialize()

            assert on("S", person) == on("D", person) == ""
            assert any(on("S", query) for query in items)
            with session.transaction() as txn:
                txn.apply(register).apply(delete)
            assert on("S", person) == on("D", person) != ""
            assert [on("S", query) for query in items] == [""] * len(items)

    def test_unsharded_service_has_no_shard_system(self, tiny_text):
        with QueryService(tiny_text, ("F",)) as service:
            assert set(service.stores) == {"F"}
            with pytest.raises(BenchmarkError, match="unavailable"):
                service.submit("S", 1)

    def test_partition_follows_the_spec(self, sharded_service):
        sharded = sharded_service.store("S")
        assert sharded.shard_count == 3
        assert sharded.partition_summary()["backends"] == ["F"] * 3
        digests = [sharded.shard_digest(rank) for rank in range(3)]
        assert all(digests) and len(set(digests)) == 3

    def test_close_shuts_the_scatter_executor(self, tiny_text):
        service = QueryService(tiny_text, ("F",),
                               shard_spec=ShardSpec(shards=2))
        executor = service.store("S").exchange
        assert executor.execute(query_text(1)).result.serialize() == \
            service.execute("F", 1).result.serialize()
        service.close()
        with pytest.raises(ShardError, match="closed"):
            executor.execute(query_text(1))

    def test_shard_name_collision_is_rejected(self, tiny_text):
        with pytest.raises(BenchmarkError):
            QueryService(tiny_text, ("F",),
                         shard_spec=ShardSpec(shards=2, name="D"))

    def test_the_sharded_store_builds_a_global_index_set(self,
                                                          sharded_service):
        assert sharded_service.store("S").indexes.summary()["value"]
