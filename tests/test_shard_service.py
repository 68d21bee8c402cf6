"""The sharded deployment behind the query service.

The service serves the sharded store as one more system: same admission,
same result-cache keying (on the sharded store's global digest chain),
same write path through the update engine — plus the executor's
distributed plans underneath.
"""

from __future__ import annotations

import pytest

import repro
from repro.benchmark.queries import query_text
from repro.errors import BenchmarkError
from repro.schema.auction import REGIONS
from repro.service import QueryService, ShardSpec, WorkloadSpec
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
            summary = service.apply_next_update()
            assert set(summary["systems"]) == {"F", "S"}
            digests = {store.document_digest()
                       for store in service.stores.values()}
            assert len(digests) == 1     # same op chain, same digest
            sharded = service.execute("S", 8)
            unsharded = service.execute("F", 8)
            assert sharded.result.serialize() == unsharded.result.serialize()

    def test_reload_swaps_the_sharded_deployment(self, tiny_text, small_text):
        with QueryService(tiny_text, ("F",),
                          shard_spec=ShardSpec(shards=2)) as service:
            before = service.execute("S", 5).result.serialize()
            first_executor = service._shard_executor
            service.reload_document(small_text)
            assert service._shard_executor is not first_executor
            after = service.execute("S", 5)
            expected = service.execute("F", 5)
            assert after.result.serialize() == expected.result.serialize()
            assert (before == after.result.serialize()) is False

    def test_workload_can_target_the_shard_system(self, sharded_service):
        snapshot = sharded_service.run_workload(
            WorkloadSpec(clients=2, requests_per_client=4, systems=("S",)))
        assert snapshot["completed"] == 8
        assert snapshot["errors"] == 0

    def test_shard_stats_shape(self, sharded_service):
        sharded_service.execute("S", 5)
        stats = sharded_service.shard_stats()
        assert stats["partition"]["shards"] == 3
        assert len(stats["shard_digests"]) == 3
        assert stats["partial_cache"]["misses"] >= 3
        # S plans live in the service's one plan cache, sized per system.
        assert stats["plan_cache"] == \
            sharded_service.cache_stats()["plan_cache"]
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

    def test_unsharded_service_has_no_shard_stats(self, tiny_text):
        with QueryService(tiny_text, ("F",)) as service:
            assert service.shard_stats() == {}

    def test_shard_name_collision_is_rejected(self, tiny_text):
        with pytest.raises(BenchmarkError):
            QueryService(tiny_text, ("F",),
                         shard_spec=ShardSpec(shards=2, name="D"))

    def test_index_stats_include_the_global_sharded_set(self, sharded_service):
        stats = sharded_service.index_stats()
        assert "S" in stats
        assert stats["S"]["value"]       # the global IndexSet built at load
