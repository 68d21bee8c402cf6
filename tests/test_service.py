"""The query service: caching, metrics, concurrency, the write path.

Covers the serving layer's contracts:

* plan-cache reuse (the same compiled object, zero recompilation),
* result-cache invalidation when a commit changes the document,
* latency-percentile math,
* thread-safety regression: the same query from 8 threads must return
  identical results on every store architecture the service targets,
  and many clients submitting and committing at once finish cleanly.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time

import pytest

from repro.errors import BenchmarkError, XMarkError
from repro.service import (
    LRUCache, QueryService, ResultCache, ServiceMetrics, ShardSpec, percentile,
)
from repro.service.metrics import LatencySummary
from repro.benchmark.queries import QUERIES, query_text
from repro.benchmark.systems import get_profile
from repro.xmlgen.config import GeneratorConfig
from repro.xmlgen.generator import XMarkGenerator
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import compile_query


#: Queries that stay interactive on every architecture (no value joins).
INTERACTIVE = (1, 2, 3, 5, 6, 7, 13, 14, 15, 16, 17, 20)


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
        assert snapshot["latency"]["p50_ms"] == pytest.approx(500.0)


class TestServiceMetrics:
    @staticmethod
    def _record(metrics, *, queue=0.0, system=None, result_hit=False):
        metrics.record(started=0.0, finished=1.0, compile_seconds=0.0,
                       queue_seconds=queue, plan_cache_hit=False,
                       result_cache_hit=result_hit, system=system)

    def test_snapshot_reports_queue_wait(self):
        """The ledger's sharded mix reads ``queue_wait.p50_ms``; the
        snapshot carries per-query distributions and totals only."""
        metrics = ServiceMetrics()
        for queue in (0.1, 0.2, 0.3):
            self._record(metrics, queue=queue)
        snapshot = metrics.snapshot()
        assert snapshot["queue_wait"]["p50_ms"] == pytest.approx(200.0)
        assert snapshot["queue_wait"]["count"] == 3
        assert set(snapshot) == {
            "completed", "errors", "latency", "compile_latency",
            "queue_wait", "plan_cache_hits", "result_cache_hits"}

    def test_errors_are_counted_per_system(self):
        metrics = ServiceMetrics()
        metrics.record_error(system="D")
        metrics.record_error(system="D")
        metrics.record_error()
        assert metrics.snapshot()["errors"] == 3
        assert metrics.registry.counter(
            "service.errors_total", system="D").value == 2
        assert metrics.completed == 0

    def test_queries_are_labelled_by_system(self):
        metrics = ServiceMetrics()
        self._record(metrics, system="B")
        self._record(metrics, system="B", result_hit=True)
        self._record(metrics, system="D")
        registry = metrics.registry
        assert registry.counter("service.queries_total", system="B").value == 2
        assert registry.counter("service.queries_total", system="D").value == 1
        assert registry.histogram("service.latency_seconds",
                                  system="B").count == 2
        assert metrics.snapshot()["result_cache_hits"] == 1

    def test_percentiles_cover_a_bounded_window(self):
        """Totals stay exact while the histograms keep only ``window``
        samples, so a long-running service does not grow with traffic."""
        metrics = ServiceMetrics(window=4)
        for _ in range(10):
            self._record(metrics, system="D")
        snapshot = metrics.snapshot()
        assert snapshot["completed"] == 10
        assert snapshot["latency"]["count"] == 10
        registry = metrics.registry
        assert registry.histogram("service.latency_seconds").retained == 4
        assert registry.histogram("service.latency_seconds",
                                  system="D").retained == 4


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

    def test_result_cache_invalidated_on_document_change(self, tiny_text):
        """A commit that changes a query's answer advances the digest and
        drops the cached result; the compiled plan survives the commit."""
        from repro.update import RegisterPerson, UpdateStream

        with QueryService(tiny_text, ("D",), max_workers=2) as svc:
            before = svc.execute("D", PERSON_LISTING)
            digest_before = svc.store("D").document_digest()
            stream = UpdateStream(svc.store("D"))
            svc.apply_update(RegisterPerson(stream.build_person()))
            after = svc.execute("D", PERSON_LISTING)
            assert svc.store("D").document_digest() != digest_before
            assert not after.result_cache_hit, "stale result must not be served"
            assert after.plan_cache_hit, "plans resolve through the live store"
            assert len(after.result) == len(before.result) + 1
            assert svc.result_cache.stats.invalidations >= 1

    def test_cache_stats_report_both_caches(self, small_text):
        with QueryService(small_text, ("D",), max_workers=2) as svc:
            svc.execute("D", 1)
            svc.execute("D", 1)
            stats = svc.cache_stats()
        assert set(stats) == {"plan_cache", "result_cache"}
        assert stats["result_cache"]["hits"] == 1
        assert stats["result_cache"]["misses"] == 1
        assert stats["plan_cache"]["misses"] == 1

    def test_export_metrics_text_counts_queries_per_system(self, small_text):
        with QueryService(small_text, ("B", "D"), max_workers=2) as svc:
            svc.execute("D", 1)
            svc.execute("D", 2)
            svc.execute("B", 1)
            text = svc.export_metrics(as_text=True)
            snapshot = svc.export_metrics()
        assert 'service.queries_total{system="D"} 2' in text
        assert 'service.queries_total{system="B"} 1' in text
        assert "service.latency_seconds" in text
        assert snapshot["counters"]["service.queries_total"] == 3
        assert snapshot["gauges"]["service.updates_applied"] == 0

    def test_outcome_latency_covers_queue_and_execution(self, service):
        outcome = service.execute("C", 20)
        assert outcome.finished >= outcome.submitted
        assert outcome.queue_seconds >= 0.0
        assert outcome.latency_seconds >= \
            outcome.queue_seconds + outcome.execute_seconds

    def test_query_errors_are_counted_and_raised(self, small_text):
        with QueryService(small_text, ("D",), max_workers=1) as svc:
            future = svc.submit("D", "for $x in ][ return")
            with pytest.raises(XMarkError):
                future.result()
            snapshot = svc.metrics.snapshot()
            assert snapshot["errors"] == 1
            assert snapshot["completed"] == 0
            assert svc.registry.counter(
                "service.errors_total", system="D").value == 1

    def test_unknown_query_number_raises(self, service):
        with pytest.raises(BenchmarkError, match="unknown query number"):
            service.submit("D", 99)

    def test_raw_query_text(self, service):
        outcome = service.execute(
            "D", 'for $p in document("auction.xml")/site/people/person return $p/name')
        assert outcome.result_size > 0

    def test_unavailable_system_raises(self, service):
        with pytest.raises(BenchmarkError, match="unavailable"):
            service.submit("A", 1)

    def test_closed_service_rejects_work(self, small_text):
        svc = QueryService(small_text, ("D",), max_workers=1)
        svc.close()
        with pytest.raises(BenchmarkError, match="closed"):
            svc.submit("D", 1)

    def test_closed_service_rejects_commits(self, tiny_text):
        from repro.update import RegisterPerson, UpdateStream

        svc = QueryService(tiny_text, ("D",), max_workers=1)
        op = RegisterPerson(UpdateStream(svc.store("D")).build_person())
        svc.close()
        with pytest.raises(BenchmarkError, match="closed"):
            svc.apply_update(op)
        with pytest.raises(BenchmarkError, match="closed"):
            svc.apply_transaction([op])
        assert svc.updates_applied == 0

    def test_context_exit_closes_the_service(self, tiny_text):
        with QueryService(tiny_text, ("D",), max_workers=1) as svc:
            assert svc.execute("D", 1).result_size == 1
        with pytest.raises(BenchmarkError, match="closed"):
            svc.execute("D", 1)

    @pytest.mark.parametrize("shard_spec", [None, ShardSpec(shards=2)])
    def test_limits_are_checked_before_any_load(self, tiny_text, monkeypatch,
                                                shard_spec):
        """A bad ``max_workers``/``per_system_limit`` raises before a
        single store (or a scatter executor) is built."""
        from repro.service import service as service_module

        loads = []
        real_load = service_module.load_stores

        def spy(*args, **kwargs):
            loads.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(service_module, "load_stores", spy)
        with pytest.raises(BenchmarkError, match="per_system_limit"):
            QueryService(tiny_text, ("D",), per_system_limit=0,
                         shard_spec=shard_spec)
        with pytest.raises(BenchmarkError, match="max_workers"):
            QueryService(tiny_text, ("D",), max_workers=0,
                         shard_spec=shard_spec)
        assert loads == []


class TestAdmission:
    """The per-system gates: a bound per store, independent stores, and a
    write that waits for the reads holding them."""

    @staticmethod
    def _wrap_evaluate(monkeypatch, before):
        """Run ``before()`` inside every evaluation the service makes."""
        from repro.service import service as service_module

        real = service_module.evaluate

        def wrapped(*args, **kwargs):
            before()
            return real(*args, **kwargs)

        monkeypatch.setattr(service_module, "evaluate", wrapped)

    @pytest.mark.parametrize("limit", [1, 2])
    def test_per_system_limit_bounds_concurrent_executions(
            self, tiny_text, monkeypatch, limit):
        lock, running, peak = threading.Lock(), [0], [0]

        def hold() -> None:
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.05)
            with lock:
                running[0] -= 1

        self._wrap_evaluate(monkeypatch, hold)
        with QueryService(tiny_text, ("D",), max_workers=4,
                          per_system_limit=limit,
                          result_cache_size=0) as svc:
            futures = [svc.submit("D", 1) for _ in range(6)]
            assert all(f.result().result_size == 1 for f in futures)
        assert peak[0] == limit

    def test_systems_are_admitted_independently(self, tiny_text, monkeypatch):
        """With one permit per system, a query on C and one on D still run
        at the same time: the barrier breaks if either waits for the other."""
        barrier = threading.Barrier(2, timeout=10)
        self._wrap_evaluate(monkeypatch, barrier.wait)
        with QueryService(tiny_text, ("C", "D"), max_workers=2,
                          per_system_limit=1) as svc:
            on_c, on_d = svc.submit("C", 1), svc.submit("D", 1)
            assert on_c.result().result_size == on_d.result().result_size == 1

    def test_commit_waits_for_in_flight_reads(self, tiny_text, monkeypatch):
        from repro.update import RegisterPerson, UpdateStream

        reading, release = threading.Event(), threading.Event()

        def block() -> None:
            reading.set()
            assert release.wait(timeout=10)

        self._wrap_evaluate(monkeypatch, block)
        with QueryService(tiny_text, ("D",), max_workers=2) as svc:
            op = RegisterPerson(UpdateStream(svc.store("D")).build_person())
            read = svc.submit("D", PERSON_LISTING)
            assert reading.wait(timeout=10)
            writer = threading.Thread(target=svc.apply_update, args=(op,))
            writer.start()
            writer.join(timeout=0.2)
            assert writer.is_alive() and svc.updates_applied == 0
            release.set()
            writer.join(timeout=10)
            assert not writer.is_alive() and svc.updates_applied == 1
            # the read finished against the document it started on
            assert len(read.result().result) + 1 == \
                len(svc.execute("D", PERSON_LISTING).result)


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
        """submit() from 8 clients against three architectures at once."""
        systems = ("B", "C", "D")
        before = service.metrics.snapshot()

        def client(rank: int) -> None:
            for seq in range(6):
                system = systems[(rank + seq) % len(systems)]
                query = INTERACTIVE[(rank * 6 + seq) % len(INTERACTIVE)]
                assert service.submit(system, query).result().system == system

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as clients:
            list(clients.map(client, range(8)))
        after = service.metrics.snapshot()
        assert after["completed"] - before["completed"] == 48
        assert after["errors"] == before["errors"]

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
    """The write path: exclusion, selective invalidation, mixed clients."""

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
        """Clients interleaving reads and commits finish with every commit
        applied and the serving stores still in lockstep."""
        from repro.update import UpdateStream, serialize_store

        systems, queries = ("C", "D"), (1, 2, 5, 17, 20)
        with QueryService(tiny_text, systems, max_workers=4) as svc:
            stream = UpdateStream(svc.store("D"))
            draw = threading.Lock()     # the stream plays the document forward

            def client(rank: int) -> int:
                commits = 0
                for seq in range(8):
                    if (rank + seq) % 3 == 0:
                        with draw:
                            op = stream.next_op()
                            stream.note_applied(op)
                            svc.apply_update(op)
                        commits += 1
                    else:
                        svc.submit(systems[seq % 2],
                                   queries[(rank + seq) % len(queries)]).result()
                return commits

            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as clients:
                commits = sum(clients.map(client, range(4)))
            assert 0 < commits < 32
            assert svc.updates_applied == commits
            assert svc.metrics.completed == 32 - commits
            assert svc.metrics.snapshot()["errors"] == 0
            assert serialize_store(svc.store("C")) == \
                serialize_store(svc.store("D"))
