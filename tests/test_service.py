"""The query service: caching, workload determinism, metrics, concurrency.

Covers the serving layer's contracts:

* plan-cache reuse (the same compiled object, zero recompilation),
* result-cache invalidation when the document changes,
* deterministic workload generation under a fixed seed,
* latency-percentile math,
* thread-safety regression: the same query from 8 threads must return
  identical results on every store architecture the service targets.
"""

from __future__ import annotations

import concurrent.futures
import threading

import pytest

from repro.errors import BenchmarkError
from repro.service import (
    LRUCache, QueryService, ResultCache, ServiceMetrics,
    WorkloadGenerator, WorkloadSpec, percentile,
)
from repro.service.metrics import LatencySummary
from repro.benchmark.queries import QUERIES, query_text
from repro.benchmark.systems import get_profile
from repro.xmlgen.config import GeneratorConfig
from repro.xmlgen.generator import XMarkGenerator
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import compile_query


@pytest.fixture(scope="module")
def service(small_text):
    with QueryService(small_text, ("B", "C", "D"), max_workers=8) as svc:
        yield svc


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1     # refresh a; b becomes the LRU victim
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_get_or_compute(self):
        cache = LRUCache(4)
        value, hit = cache.get_or_compute("k", lambda: 41 + 1)
        assert (value, hit) == (42, False)
        value, hit = cache.get_or_compute("k", lambda: pytest.fail("must not run"))
        assert (value, hit) == (42, True)

    def test_cached_none_is_a_hit(self):
        """A legitimately-falsy cached value must not read as a miss.

        Regression: ``get_or_compute`` used to test the value against
        ``None``, so a cached ``None`` (or empty result) recomputed and
        re-``put`` on every lookup."""
        cache = LRUCache(4)
        cache.put("empty", None)
        value, hit = cache.lookup("empty")
        assert (value, hit) == (None, True)
        value, hit = cache.get_or_compute(
            "empty", lambda: pytest.fail("cached None must not recompute"))
        assert (value, hit) == (None, True)
        assert cache.stats.hits == 2 and cache.stats.misses == 0

    def test_cached_falsy_values_hit(self):
        cache = LRUCache(8)
        for key, falsy in (("zero", 0), ("empty-list", []), ("empty-str", "")):
            cache.put(key, falsy)
            value, hit = cache.get_or_compute(
                key, lambda: pytest.fail("cached falsy must not recompute"))
            assert hit and value == falsy
        # An absent key still reads as a miss through the same surface.
        value, hit = cache.lookup("absent")
        assert (value, hit) == (None, False)

    def test_invalidate_where(self):
        cache = ResultCache(8)
        cache.put(ResultCache.key("D", "q", "digest1"), "old")
        cache.put(ResultCache.key("D", "q", "digest2"), "new")
        assert cache.invalidate_document("digest1") == 1
        assert cache.get(ResultCache.key("D", "q", "digest1")) is None
        assert cache.get(ResultCache.key("D", "q", "digest2")) == "new"
        assert cache.stats.invalidations == 1

    def test_concurrent_put_get(self):
        cache = LRUCache(16)
        errors: list[BaseException] = []

        def worker(base: int) -> None:
            try:
                for i in range(200):
                    cache.put((base, i % 20), i)
                    cache.get((base, (i + 7) % 20))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 16


class TestPercentiles:
    def test_known_quartiles(self):
        samples = [15.0, 20.0, 35.0, 40.0, 50.0]
        assert percentile(samples, 0) == 15.0
        assert percentile(samples, 100) == 50.0
        assert percentile(samples, 50) == 35.0
        # linear interpolation: rank = 0.25 * 4 = 1.0 -> exactly x[1]
        assert percentile(samples, 25) == 20.0
        # rank = 0.40 * 4 = 1.6 -> 20 + 0.6 * 15
        assert percentile(samples, 40) == pytest.approx(29.0)

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_single_sample(self):
        assert percentile([7.5], 99) == 7.5

    def test_single_sample_at_every_boundary(self):
        # One sample is every percentile of itself, including both ends.
        for q in (0, 0.0, 50, 100, 100.0):
            assert percentile([7.5], q) == 7.5

    def test_all_equal_samples_never_interpolate_away(self):
        samples = [0.25] * 9
        for q in (0, 1, 50, 95, 99, 100):
            assert percentile(samples, q) == 0.25

    def test_boundary_ranks_are_exact_not_interpolated(self):
        # q=0 and q=100 must return the exact extremes: rank 0 and n-1
        # land on real elements, so no interpolation drift is tolerated.
        samples = [0.1, 0.2, 0.7]
        assert percentile(samples, 0) == 0.1
        assert percentile(samples, 100) == 0.7
        # Two samples: the midpoint interpolates, the ends do not.
        assert percentile([1.0, 2.0], 0) == 1.0
        assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)
        assert percentile([1.0, 2.0], 100) == 2.0

    def test_near_boundary_interpolation(self):
        # rank = 0.999 * 1 for n=2: interpolates just below the maximum.
        assert percentile([0.0, 1.0], 99.9) == pytest.approx(0.999)
        assert percentile([0.0, 1.0], 0.1) == pytest.approx(0.001)

    def test_rejects_empty_and_bad_q(self):
        from repro.errors import BenchmarkError
        with pytest.raises(BenchmarkError):
            percentile([], 50)
        with pytest.raises(BenchmarkError):
            percentile([1.0], 101)
        with pytest.raises(BenchmarkError):
            percentile([1.0], -0.001)

    def test_summary_from_samples(self):
        summary = LatencySummary.from_samples([0.001 * i for i in range(1, 101)])
        assert summary.count == 100
        assert summary.p50 == pytest.approx(0.0505)
        assert summary.p99 == pytest.approx(0.09901)
        assert summary.maximum == pytest.approx(0.1)

    def test_metrics_snapshot(self):
        metrics = ServiceMetrics()
        for i in range(10):
            metrics.record(started=float(i), finished=float(i) + 0.5,
                           compile_seconds=0.1, queue_seconds=0.0,
                           plan_cache_hit=(i % 2 == 0), result_cache_hit=False)
        snapshot = metrics.snapshot()
        assert snapshot["completed"] == 10
        assert snapshot["plan_cache_hits"] == 5
        assert snapshot["elapsed_seconds"] == pytest.approx(9.5)
        assert snapshot["throughput_qps"] == pytest.approx(10 / 9.5, abs=0.01)
        assert snapshot["latency"]["p50_ms"] == pytest.approx(500.0)


class TestWorkloadGenerator:
    def test_same_seed_identical_stream(self):
        spec = WorkloadSpec(clients=6, requests_per_client=40, think_mean_seconds=0.001)
        assert WorkloadGenerator(spec).flat() == WorkloadGenerator(spec).flat()

    def test_different_seed_different_stream(self):
        base = WorkloadSpec(clients=4, requests_per_client=40)
        other = WorkloadSpec(clients=4, requests_per_client=40, seed=base.seed + 1)
        assert WorkloadGenerator(base).flat() != WorkloadGenerator(other).flat()

    def test_clients_are_independent_streams(self):
        generator = WorkloadGenerator(WorkloadSpec(clients=2, requests_per_client=50))
        first, second = generator.streams()
        assert [r.query for r in first] != [r.query for r in second]
        # ... but replaying one client alone matches the full generation.
        assert generator.client_stream(1) == second

    def test_zipf_skew_concentrates_popular_queries(self):
        spec = WorkloadSpec(clients=8, requests_per_client=100, zipf_exponent=1.0)
        generator = WorkloadGenerator(spec)
        histogram = generator.query_histogram()
        most_popular = generator.popularity_order[0]
        least_popular = generator.popularity_order[-1]
        assert histogram[most_popular] > 3 * histogram[least_popular]
        assert sum(histogram.values()) == spec.total_requests

    def test_explicit_weights_override_zipf(self):
        spec = WorkloadSpec(clients=2, requests_per_client=50, queries=(1, 6),
                            query_weights=(1.0, 0.0))
        histogram = WorkloadGenerator(spec).query_histogram()
        assert histogram == {1: 100, 6: 0}

    def test_think_times_follow_mean(self):
        spec = WorkloadSpec(clients=4, requests_per_client=200,
                            think_mean_seconds=0.01)
        thinks = [r.think_seconds for r in WorkloadGenerator(spec).flat()]
        assert all(t >= 0 for t in thinks)
        assert sum(thinks) / len(thinks) == pytest.approx(0.01, rel=0.15)

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            WorkloadSpec(clients=0)
        with pytest.raises(BenchmarkError):
            WorkloadSpec(queries=(999,))
        with pytest.raises(BenchmarkError):
            WorkloadSpec(queries=(1, 2), query_weights=(1.0,))


class TestQueryService:
    def test_submit_returns_result(self, service):
        outcome = service.execute("D", 1)
        assert outcome.result_size == 1
        assert outcome.system == "D"
        assert outcome.latency_seconds > 0

    def test_plan_cache_reuse(self, small_text):
        with QueryService(small_text, ("B",), max_workers=2,
                          result_cache_size=0) as svc:
            first = svc.execute("B", 7)
            again = svc.execute("B", 7)
            assert not first.plan_cache_hit and first.compile_seconds > 0
            assert again.plan_cache_hit and again.compile_seconds == 0.0
            assert again.result_size == first.result_size
            # The cached entry is the very same compiled object.
            text, store = svc._query_text(7), svc.store("B")
            plan, _values, hit = svc.plan_cache.lookup(
                "B", text, store, get_profile("B"))
            assert hit and plan is svc.plan_cache.lookup(
                "B", text, store, get_profile("B"))[0]
            assert svc.plan_cache.stats.hits >= 1

    def test_plan_cache_is_per_system(self, service):
        service.execute("D", 5)
        outcome = service.execute("C", 5)
        assert not outcome.plan_cache_hit

    def test_result_cache_hit_skips_execution(self, small_text):
        with QueryService(small_text, ("D",), max_workers=2) as svc:
            first = svc.execute("D", 2)
            again = svc.execute("D", 2)
            assert not first.result_cache_hit
            assert again.result_cache_hit
            assert again.execute_seconds == 0.0
            assert again.result is first.result

    def test_result_cache_invalidated_on_document_change(self, small_text, tiny_text):
        with QueryService(small_text, ("D",), max_workers=2) as svc:
            before = svc.execute("D", 6)
            digest_before = svc.store("D").document_digest()
            svc.reload_document(tiny_text)
            after = svc.execute("D", 6)
            assert svc.store("D").document_digest() != digest_before
            assert not after.result_cache_hit, "stale result must not be served"
            assert not after.plan_cache_hit, "plans are bound to the old store"
            # Q6 counts items per region: different documents, different counts.
            assert after.result.serialize() != before.result.serialize()
            assert svc.result_cache.stats.invalidations >= 1

    def test_stale_plan_from_raced_reload_is_recompiled(self, small_text, tiny_text):
        """A plan bound to a superseded store (a compile racing
        reload_document) must not be executed or re-cached."""
        with QueryService(small_text, ("D",), max_workers=2) as svc:
            old_store = svc.store("D")
            svc.reload_document(tiny_text)
            text, profile = svc._query_text(6), get_profile("D")
            # Simulate the race: a lookup still holding the old store
            # lands its plan after the reload cleared the cache.
            stale = svc.plan_cache.lookup("D", text, old_store, profile)[0]
            assert stale.store is old_store
            outcome = svc.execute("D", 6)
            assert not outcome.plan_cache_hit
            fresh, _values, hit = svc.plan_cache.lookup(
                "D", text, svc.store("D"), profile)
            assert hit and fresh is not stale and fresh.store is svc.store("D")
            # The served result matches the current document, not the old one.
            direct = evaluate(compile_query(text, svc.store("D"), get_profile("D")))
            assert outcome.result.serialize() == direct.serialize()

    def test_workload_snapshot_cache_stats_are_per_window(self, small_text):
        spec = WorkloadSpec(clients=2, requests_per_client=5, systems=("D",))
        with QueryService(small_text, ("D",), max_workers=2) as svc:
            for _ in range(4):
                svc.execute("D", 1)  # pre-workload traffic must not leak in
            snapshot = svc.run_workload(spec)
        cache = snapshot["result_cache"]
        assert cache["hits"] + cache["misses"] == spec.total_requests

    def test_submit_batch(self, service):
        futures = service.submit_batch([("D", 1), ("D", 5), ("C", 2)])
        outcomes = [f.result() for f in futures]
        assert [o.system for o in outcomes] == ["D", "D", "C"]

    def test_raw_query_text(self, service):
        outcome = service.execute(
            "D", 'for $p in document("auction.xml")/site/people/person return $p/name')
        assert outcome.result_size > 0

    def test_unavailable_system_raises(self, service):
        with pytest.raises(BenchmarkError, match="unavailable"):
            service.submit("A", 1)

    def test_run_workload_snapshot(self, small_text):
        spec = WorkloadSpec(clients=3, requests_per_client=5, systems=("D",),
                            think_mean_seconds=0.0)
        with QueryService(small_text, ("D",), max_workers=4) as svc:
            snapshot = svc.run_workload(spec)
        assert snapshot["completed"] == spec.total_requests
        assert snapshot["errors"] == 0
        assert snapshot["throughput_qps"] > 0
        assert snapshot["latency"]["p95_ms"] >= snapshot["latency"]["p50_ms"]

    def test_closed_service_rejects_work(self, small_text):
        svc = QueryService(small_text, ("D",), max_workers=1)
        svc.close()
        with pytest.raises(BenchmarkError, match="closed"):
            svc.submit("D", 1)


class TestConcurrentReads:
    """Thread-safety regression: stores must serve identical results from
    many threads at once (the SummaryStore/FragmentStore audit)."""

    QUERY_BY_SYSTEM = {"B": 13, "C": 14, "D": 10}  # reconstruction + full text

    @pytest.mark.parametrize("system", sorted(QUERY_BY_SYSTEM))
    def test_same_query_from_8_threads(self, service, system):
        query = self.QUERY_BY_SYSTEM[system]
        store = service.store(system)
        profile = get_profile(system)
        compiled = compile_query(query_text(query), store, profile)
        reference = evaluate(compiled).serialize()

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            serialized = list(pool.map(
                lambda _: evaluate(compiled).serialize(), range(8)))
        assert all(s == reference for s in serialized)

    def test_mixed_workload_across_systems(self, service):
        """submit() from many clients against three architectures at once."""
        spec = WorkloadSpec(clients=8, requests_per_client=6,
                            systems=("B", "C", "D"), seed=99)
        snapshot = service.run_workload(spec)
        assert snapshot["completed"] == spec.total_requests
        assert snapshot["errors"] == 0

    def test_fragment_store_string_value_has_no_read_scratch(self, service):
        store = service.store("B")
        scratch_before = dict(store._text_tables_below)
        root = store.root()
        store.string_value(root)
        assert store._text_tables_below == scratch_before, \
            "string_value must not mutate shared state"


PERSON_LISTING = """
for $p in document("auction.xml")/site/people/person
return $p/name/text()
"""


class TestServiceWritePath:
    """The write path: exclusion, selective invalidation, reload no-op."""

    def test_concurrent_readers_never_observe_a_torn_document(self, tiny_text):
        """8 reader threads against a store taking writes: every observed
        result must be one of the documents the update chain produced —
        a person count within the applied range, every name non-empty —
        never a half-spliced state."""
        from repro.update import RegisterPerson, UpdateStream

        with QueryService(tiny_text, ("D",), max_workers=8,
                          result_cache_size=0) as svc:
            store = svc.store("D")
            stream = UpdateStream(store)
            base_count = len(store.children_by_tag(
                store.children_by_tag(store.root(), "people")[0], "person"))
            updates = 6
            stop = threading.Event()
            violations: list[str] = []

            def read_loop() -> None:
                while not stop.is_set():
                    outcome = svc.execute("D", PERSON_LISTING)
                    names = outcome.result.items
                    if not (base_count <= len(names) <= base_count + updates):
                        violations.append(f"saw {len(names)} persons")
                        return
                    if any(not str(name).strip() for name in names):
                        violations.append("saw a person with an empty name")
                        return

            readers = [threading.Thread(target=read_loop, daemon=True)
                       for _ in range(8)]
            for reader in readers:
                reader.start()
            for _ in range(updates):
                svc.apply_update(RegisterPerson(stream.build_person()))
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            assert not violations, violations
            final = svc.execute("D", PERSON_LISTING)
            assert len(final.result.items) == base_count + updates

    def test_result_cache_invalidation_is_path_selective(self, tiny_text):
        """A person insert drops person-touching results and keeps the
        open-auction results cached under the advanced digest."""
        from repro.update import RegisterPerson, UpdateStream

        with QueryService(tiny_text, ("D",), max_workers=2) as svc:
            stream = UpdateStream(svc.store("D"))
            svc.execute("D", 1)     # person exact-match
            svc.execute("D", 2)     # open-auction ordered access
            svc.execute("D", 5)     # closed-auction range
            summary = svc.apply_update(RegisterPerson(stream.build_person()))
            cell = summary["systems"]["D"]
            assert cell["results_kept"] >= 2, cell
            assert cell["results_dropped"] >= 1, cell
            q2 = svc.execute("D", 2)
            assert q2.result_cache_hit, \
                "untouched Q2 must stay cached across the write"
            q5 = svc.execute("D", 5)
            assert q5.result_cache_hit, \
                "untouched Q5 must stay cached across the write"
            q1 = svc.execute("D", 1)
            assert not q1.result_cache_hit, \
                "Q1 touches persons and must have been invalidated"

    def test_write_invalidation_is_per_system(self, tiny_text):
        """Both serving systems advance together; each keeps its own
        untouched entries."""
        from repro.update import RegisterPerson, UpdateStream

        with QueryService(tiny_text, ("C", "D"), max_workers=2) as svc:
            stream = UpdateStream(svc.store("D"))
            svc.execute("C", 2)
            svc.execute("D", 2)
            svc.apply_update(RegisterPerson(stream.build_person()))
            assert svc.execute("C", 2).result_cache_hit
            assert svc.execute("D", 2).result_cache_hit
            assert svc.store("C").document_digest() == \
                svc.store("D").document_digest()

    def test_reload_with_unchanged_content_is_a_noop(self, tiny_text):
        """Regression: reloading identical content must not drop stores,
        plans, results, or indexes."""
        with QueryService(tiny_text, ("D",), max_workers=2) as svc:
            store_before = svc.store("D")
            outcome = svc.execute("D", 1)
            assert not outcome.result_cache_hit
            indexes_before = store_before.indexes
            svc.reload_document(tiny_text)
            assert svc.store("D") is store_before
            assert store_before.indexes is indexes_before
            assert svc.execute("D", 1).result_cache_hit
            assert svc.plan_cache.stats.invalidations == 0

    def test_reload_with_changed_content_still_invalidates(
            self, tiny_text, small_text):
        with QueryService(tiny_text, ("D",), max_workers=2) as svc:
            store_before = svc.store("D")
            svc.execute("D", 1)
            svc.reload_document(small_text)
            assert svc.store("D") is not store_before
            assert store_before.indexes is None
            assert not svc.execute("D", 1).result_cache_hit

    def test_reload_under_concurrent_scatter_readers(self, tiny_text,
                                                     small_text):
        """Regression: a reload must not close the superseded scatter
        executor out from under in-flight scatter queries.

        Eight readers hammer the shard pseudo-system while the main
        thread reloads the document repeatedly; no reader may surface an
        executor-closed error, and every result must match one of the two
        documents' correct answers."""
        from repro.service import ShardSpec

        spec = ShardSpec(shards=2, backends=("F",))
        with QueryService(tiny_text, ("S",), max_workers=8,
                          shard_spec=spec, result_cache_size=0) as svc:
            expected = {
                svc.execute("S", 1).result.serialize(),
            }
            svc.reload_document(small_text)
            expected.add(svc.execute("S", 1).result.serialize())
            stop = threading.Event()
            failures: list[BaseException] = []
            wrong: list[str] = []

            def read() -> None:
                while not stop.is_set():
                    try:
                        text = svc.execute("S", 1).result.serialize()
                    except BaseException as exc:
                        failures.append(exc)
                        return
                    if text not in expected:
                        wrong.append(text)
                        return

            readers = [threading.Thread(target=read) for _ in range(8)]
            for thread in readers:
                thread.start()
            for document in (tiny_text, small_text, tiny_text):
                svc.reload_document(document)
            stop.set()
            for thread in readers:
                thread.join()
            assert not failures, failures[0]
            assert not wrong

    def test_footprint_fallback_is_counted_and_narrow(self, monkeypatch):
        """Regression: only a parse failure may take the broad-footprint
        fallback; walker bugs must surface, and fallbacks are counted."""
        from repro.service import invalidation
        from repro.errors import QuerySyntaxError

        before = invalidation.footprint_fallbacks()
        footprint = invalidation.query_footprint("][ this does not parse 1")
        assert footprint.broad
        assert footprint.tokens == frozenset()
        assert invalidation.footprint_fallbacks() == before + 1

        def boom(_text):
            raise RuntimeError("walker bug")

        monkeypatch.setattr(invalidation, "parse_query", boom)
        with pytest.raises(RuntimeError, match="walker bug"):
            invalidation.query_footprint("this text was never seen before 2")
        assert invalidation.footprint_fallbacks() == before + 1
        monkeypatch.undo()

        def syntax(_text):
            raise QuerySyntaxError("bad", 1, 1)

        monkeypatch.setattr(invalidation, "parse_query", syntax)
        footprint = invalidation.query_footprint("nor was this one 3")
        assert footprint.broad
        assert invalidation.footprint_fallbacks() == before + 2

    def test_footprint_fallback_gauge_exported(self, tiny_text):
        from repro.service import invalidation

        with QueryService(tiny_text, ("D",), max_workers=1) as svc:
            snapshot = svc.export_metrics()
            assert snapshot["gauges"]["service.footprint_fallbacks"] == \
                invalidation.footprint_fallbacks()

    def test_mixed_read_write_workload(self, tiny_text):
        """A write-ratio workload completes with every update applied and
        the serving stores still in lockstep."""
        from repro.update import serialize_store

        spec = WorkloadSpec(clients=4, requests_per_client=8,
                            systems=("C", "D"), write_ratio=0.3,
                            queries=(1, 2, 5, 17, 20), seed=7)
        kinds = [request.kind for stream in WorkloadGenerator(spec).streams()
                 for request in stream]
        expected_updates = kinds.count("update")
        assert 0 < expected_updates < len(kinds)
        with QueryService(tiny_text, ("C", "D"), max_workers=4) as svc:
            snapshot = svc.run_workload(spec)
            assert snapshot["updates"]["count"] == expected_updates
            assert snapshot["completed"] == len(kinds) - expected_updates
            assert svc.updates_applied == expected_updates
            assert serialize_store(svc.store("C")) == \
                serialize_store(svc.store("D"))

    def test_zero_write_ratio_reproduces_read_only_streams(self):
        read_only = WorkloadSpec(clients=2, requests_per_client=10, seed=3)
        mixed_off = WorkloadSpec(clients=2, requests_per_client=10, seed=3,
                                 write_ratio=0.0)
        assert WorkloadGenerator(read_only).flat() == \
            WorkloadGenerator(mixed_off).flat()
