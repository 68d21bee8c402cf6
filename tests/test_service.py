"""The query service: caching, metrics, concurrency, the write path.

Covers the serving layer's contracts:

* plan-cache reuse (the same compiled object, zero recompilation),
* result-cache invalidation when a commit changes the document,
* latency-percentile math,
* thread-safety regression: the same query from 8 threads must return
  identical results on every store architecture the service targets,
  and many clients reading and committing at once finish cleanly,
* each read runs on the thread that asked for it, and ``close()`` waits
  for the reads already running.

Every service here is the one a connection builds
(``repro.connect(..., service=True)``); commits go through the
connection's ``apply_transaction``.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import threading
import time

import pytest

from repro.cache import LRUCache
from repro.db import connect
from repro.errors import (
    BenchmarkError, ClosedSessionError, UnknownSystemError, XMarkError,
)
from repro.obs.metrics import (
    DEFAULT_WINDOW, LatencySummary, MetricsRegistry, percentile,
)
from repro.service import ResultCache, ServiceMetrics
from repro.benchmark.queries import QUERIES, query_text
from repro.benchmark.systems import get_profile
from repro.xmlgen.config import GeneratorConfig
from repro.xmlgen.generator import XMarkGenerator
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import compile_query


#: Queries that stay interactive on every architecture (no value joins).
INTERACTIVE = (1, 2, 3, 5, 6, 7, 13, 14, 15, 16, 17, 20)


def serve(text: str, systems: tuple[str, ...], **options):
    """A service connection over ``systems``."""
    return connect(text, systems=systems, service=True, **options)


def commits(db) -> int:
    """How many commits the connection's write path applied."""
    return db.service.export_metrics()["gauges"]["service.updates_applied"]


@pytest.fixture(scope="module")
def service_db(small_text):
    with serve(small_text, ("B", "C", "D"), max_workers=8) as db:
        yield db


@pytest.fixture(scope="module")
def service(service_db):
    return service_db.service


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
        metrics = ServiceMetrics(MetricsRegistry())
        for _ in range(10):
            metrics.record(0.5, 0.1, 0.0, "D")
        snapshot = metrics.snapshot()
        assert snapshot["latency"]["count"] == 10
        assert snapshot["compile_latency"]["p50_ms"] == pytest.approx(100.0)
        assert snapshot["latency"]["p50_ms"] == pytest.approx(500.0)


class TestServiceMetrics:
    @staticmethod
    def _record(metrics, *, queue=0.0, system="D"):
        metrics.record(1.0, 0.0, queue, system)

    def test_snapshot_reports_queue_wait(self):
        """The ledger's sharded mix reads ``queue_wait.p50_ms``; the
        snapshot carries per-query distributions only."""
        metrics = ServiceMetrics(MetricsRegistry())
        for queue in (0.1, 0.2, 0.3):
            self._record(metrics, queue=queue)
        snapshot = metrics.snapshot()
        assert snapshot["queue_wait"]["p50_ms"] == pytest.approx(200.0)
        assert snapshot["queue_wait"]["count"] == 3
        assert set(snapshot) == {"latency", "compile_latency", "queue_wait"}

    def test_errors_are_counted_per_system_by_the_connection(self, tiny_text):
        """A failed execution is counted once, in ``db.errors_total``,
        whether it came through a session or ``db.service.execute``."""
        with serve(tiny_text, ("D",), max_workers=1) as db:
            with pytest.raises(XMarkError):
                db.session().execute("for $x in ][ return")
            with pytest.raises(XMarkError):
                db.service.execute("D", "for $x in ][ return")
            counters = db.registry.snapshot()["counters"]
        assert counters['db.errors_total{system="D"}'] == 2
        assert counters['db.queries_total{system="D"}'] == 2
        assert db.service.metrics.snapshot()["latency"]["count"] == 0

    def test_queries_are_labelled_by_system(self, tiny_text):
        with serve(tiny_text, ("B", "D"), max_workers=1) as db:
            svc = db.service
            svc.execute("B", 1)
            svc.execute("B", 1)
            svc.execute("D", 1)
            registry = db.registry
            assert registry.counter("db.queries_total",
                                    system="B").value == 2
            assert registry.counter("db.queries_total",
                                    system="D").value == 1
            assert registry.histogram("service.latency_seconds",
                                      system="B").count == 2
            assert svc.cache_stats()["result_cache"]["hits"] == 1

    def test_percentiles_cover_a_bounded_window(self):
        """Totals stay exact while a histogram keeps only ``window``
        samples, so a long-running service does not grow with traffic;
        the service's histograms take the registry's default window."""
        labelled = MetricsRegistry().histogram(
            "service.latency_seconds", window=4, system="D")
        for _ in range(10):
            labelled.observe(1.0)
        assert (labelled.count, labelled.retained) == (10, 4)
        metrics = ServiceMetrics(MetricsRegistry())
        for _ in range(10):
            self._record(metrics, system="D")
        snapshot = metrics.snapshot()
        assert snapshot["latency"]["count"] == 10
        registry = metrics.registry
        assert registry.histogram("service.latency_seconds").window == \
            DEFAULT_WINDOW
        assert registry.histogram("service.latency_seconds",
                                  system="D").window == DEFAULT_WINDOW


class TestQueryService:
    def test_submit_returns_result(self, service):
        outcome = service.execute("D", 1)
        assert outcome.result_size == 1
        assert outcome.system == "D"
        assert outcome.latency_seconds > 0

    def test_plan_cache_reuse(self, small_text):
        with serve(small_text, ("B",), max_workers=2,
                   result_cache_size=0) as db:
            svc = db.service
            first = svc.execute("B", 7)
            again = svc.execute("B", 7)
            assert not first.plan_cache_hit and first.compile_seconds > 0
            assert again.plan_cache_hit and again.compile_seconds == 0.0
            assert again.result_size == first.result_size
            # The cached entry is the very same compiled object.
            text, store = db.query_text(7), db.store("B")
            plan, _values, hit = db.plan_cache.lookup(
                "B", text, store, get_profile("B"))
            assert hit and plan is db.plan_cache.lookup(
                "B", text, store, get_profile("B"))[0]
            assert db.plan_cache.stats.hits >= 1

    def test_plan_cache_is_per_system(self, service):
        service.execute("D", 5)
        outcome = service.execute("C", 5)
        assert not outcome.plan_cache_hit

    def test_result_cache_hit_skips_execution(self, small_text):
        with serve(small_text, ("D",), max_workers=2) as db:
            svc = db.service
            first = svc.execute("D", 2)
            again = svc.execute("D", 2)
            assert not first.result_cache_hit
            assert again.result_cache_hit
            assert again.execute_seconds == 0.0
            assert again.result.items == first.result.items

    def test_result_cache_invalidated_on_document_change(self, tiny_text):
        """A commit that changes a query's answer advances the digest and
        drops the cached result; the compiled plan survives the commit."""
        from repro.update import RegisterPerson, UpdateStream

        with serve(tiny_text, ("D",), max_workers=2) as db:
            svc = db.service
            before = svc.execute("D", PERSON_LISTING)
            digest_before = db.store("D").document_digest()
            stream = UpdateStream(db.store("D"))
            db.apply_transaction([RegisterPerson(stream.build_person())])
            after = svc.execute("D", PERSON_LISTING)
            assert db.store("D").document_digest() != digest_before
            assert not after.result_cache_hit, "stale result must not be served"
            assert after.plan_cache_hit, "plans resolve through the live store"
            assert len(after.result) == len(before.result) + 1
            assert svc.result_cache.stats.invalidations >= 1

    def test_cache_stats_report_both_caches(self, small_text):
        with serve(small_text, ("D",), max_workers=2) as db:
            svc = db.service
            svc.execute("D", 1)
            svc.execute("D", 1)
            stats = svc.cache_stats()
        assert set(stats) == {"plan_cache", "result_cache"}
        assert stats["result_cache"]["hits"] == 1
        assert stats["result_cache"]["misses"] == 1
        assert stats["plan_cache"]["misses"] == 1

    def test_export_metrics_text_counts_queries_per_system(self, small_text):
        with serve(small_text, ("B", "D"), max_workers=2) as db:
            svc = db.service
            svc.execute("D", 1)
            svc.execute("D", 2)
            svc.execute("B", 1)
            text = svc.export_metrics(as_text=True)
            snapshot = svc.export_metrics()
        assert 'db.queries_total{system="D"} 2' in text
        assert 'db.queries_total{system="B"} 1' in text
        assert "service.latency_seconds" in text
        assert snapshot["counters"]['db.queries_total{system="D"}'] == 2
        assert snapshot["gauges"]["service.updates_applied"] == 0

    def test_outcome_latency_covers_queue_and_execution(self, service):
        outcome = service.execute("C", 20)
        assert outcome.finished >= outcome.submitted
        assert outcome.queue_seconds >= 0.0
        assert outcome.latency_seconds >= \
            outcome.queue_seconds + outcome.execute_seconds

    def test_query_errors_are_counted_and_raised(self, small_text):
        with serve(small_text, ("D",), max_workers=1) as db:
            svc = db.service
            with pytest.raises(XMarkError):
                svc.execute("D", "for $x in ][ return")
            assert svc.metrics.snapshot()["latency"]["count"] == 0
            assert db.registry.counter(
                "db.errors_total", system="D").value == 1

    def test_unknown_query_number_raises(self, service):
        with pytest.raises(BenchmarkError, match="unknown query number"):
            service.execute("D", 99)

    def test_raw_query_text(self, service):
        outcome = service.execute(
            "D", 'for $p in document("auction.xml")/site/people/person return $p/name')
        assert outcome.result_size > 0

    def test_unavailable_system_raises(self, service):
        with pytest.raises(UnknownSystemError, match="unknown system 'A'"):
            service.execute("A", 1)

    def test_closed_service_rejects_work(self, small_text):
        db = serve(small_text, ("D",), max_workers=1)
        svc = db.service
        db.close()
        with pytest.raises(ClosedSessionError, match="closed"):
            svc.execute("D", 1)

    def test_closed_service_rejects_commits(self, tiny_text):
        from repro.update import RegisterPerson, UpdateStream

        db = serve(tiny_text, ("D",), max_workers=1)
        op = RegisterPerson(UpdateStream(db.store("D")).build_person())
        digest = db.document_digest()
        db.close()
        with pytest.raises(ClosedSessionError, match="closed"):
            db.apply_transaction([op])
        assert commits(db) == 0 and db.document_digest() == digest

    def test_context_exit_closes_the_service(self, tiny_text):
        with serve(tiny_text, ("D",), max_workers=1) as db:
            svc = db.service
            assert svc.execute("D", 1).result_size == 1
        with pytest.raises(ClosedSessionError, match="closed"):
            svc.execute("D", 1)

    @pytest.mark.parametrize("shards", [None, 2])
    @pytest.mark.parametrize("service", [True, False],
                             ids=["service", "direct"])
    def test_limits_are_checked_before_any_load(self, tiny_text, monkeypatch,
                                                shards, service):
        """A bad ``max_workers`` raises before a single store (or a
        scatter executor) is built, on every kind of connection."""
        from repro.db import database as database_module

        loads = []
        real_load = database_module.load_stores

        def spy(*args, **kwargs):
            loads.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(database_module, "load_stores", spy)
        with pytest.raises(BenchmarkError, match="max_workers"):
            connect(tiny_text, systems=("D",), service=service,
                    max_workers=0, shards=shards)
        assert loads == []


class TestAdmission:
    """The connection's read side: a bound on running reads, systems read
    side by side, and a write that waits for the reads holding it."""

    @staticmethod
    def _wrap_evaluate(monkeypatch, before):
        """Run ``before()`` inside every eager evaluation the connection
        makes (a service connection's every miss)."""
        from repro.db import database as database_module

        real = database_module.evaluate

        def wrapped(*args, **kwargs):
            before()
            return real(*args, **kwargs)

        monkeypatch.setattr(database_module, "evaluate", wrapped)

    @pytest.mark.parametrize("limit", [1, 2])
    def test_max_workers_bounds_concurrent_executions(
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
        with serve(tiny_text, ("D",), max_workers=limit,
                   result_cache_size=0) as db:
            svc = db.service
            with concurrent.futures.ThreadPoolExecutor(6) as clients:
                sizes = list(clients.map(
                    lambda _: svc.execute("D", 1).result_size, range(6)))
            assert sizes == [1] * 6
        assert peak[0] == limit

    def test_systems_are_admitted_independently(self, tiny_text, monkeypatch):
        """A query on C and one on D run at the same time: the barrier
        breaks if either waits for the other."""
        barrier = threading.Barrier(2, timeout=10)
        self._wrap_evaluate(monkeypatch, barrier.wait)
        with serve(tiny_text, ("C", "D"), max_workers=2) as db:
            svc = db.service
            with concurrent.futures.ThreadPoolExecutor(2) as clients:
                sizes = list(clients.map(
                    lambda system: svc.execute(system, 1).result_size,
                    ("C", "D")))
            assert sizes == [1, 1]

    def test_commit_waits_for_in_flight_reads(self, tiny_text, monkeypatch):
        from repro.update import RegisterPerson, UpdateStream

        reading, release = threading.Event(), threading.Event()

        def block() -> None:
            reading.set()
            assert release.wait(timeout=10)

        self._wrap_evaluate(monkeypatch, block)
        with serve(tiny_text, ("D",), max_workers=2) as db, \
                concurrent.futures.ThreadPoolExecutor(1) as client:
            svc = db.service
            op = RegisterPerson(UpdateStream(db.store("D")).build_person())
            read = client.submit(svc.execute, "D", PERSON_LISTING)
            assert reading.wait(timeout=10)
            writer = threading.Thread(target=db.apply_transaction,
                                      args=([op],))
            writer.start()
            writer.join(timeout=0.2)
            assert writer.is_alive() and commits(db) == 0
            release.set()
            writer.join(timeout=10)
            assert not writer.is_alive() and commits(db) == 1
            # the read finished against the document it started on
            assert len(read.result().result) + 1 == \
                len(svc.execute("D", PERSON_LISTING).result)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity")
    def test_readers_in_a_loop_do_not_starve_commits_on_one_core(
            self, tiny_text):
        """A reader re-takes the read side on its own thread within one
        GIL slice; on one core only writer priority lets commits drain
        the reads while readers loop."""
        from repro.update import RegisterPerson, UpdateStream

        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})    # inherited by new threads
        try:
            with serve(tiny_text, ("D",), max_workers=4,
                       result_cache_size=0) as db:
                svc = db.service
                stream = UpdateStream(db.store("D"))
                stop = threading.Event()

                def read_loop() -> None:
                    while not stop.is_set():
                        svc.execute("D", PERSON_LISTING)

                def write() -> None:
                    for _ in range(6):
                        db.apply_transaction(
                            [RegisterPerson(stream.build_person())])

                readers = [threading.Thread(target=read_loop, daemon=True)
                           for _ in range(4)]
                for reader in readers:
                    reader.start()
                writer = threading.Thread(target=write, daemon=True)
                writer.start()
                writer.join(timeout=10)
                committed = commits(db)
                stop.set()
                for reader in readers:
                    reader.join(timeout=10)
                writer.join(timeout=30)
            assert committed == 6
        finally:
            os.sched_setaffinity(0, cpus)

    def test_reads_run_on_the_calling_thread(self, tiny_text, monkeypatch):
        """No hand-off: the evaluation of a plain system's read and of
        the sharded system's runs on the thread that called execute()."""
        threads = []
        self._wrap_evaluate(
            monkeypatch, lambda: threads.append(threading.current_thread()))
        with serve(tiny_text, ("D",), shards=2, result_cache_size=0) as db:
            svc = db.service
            assert svc.execute("D", 1).result_size == 1
            assert svc.execute("S", 1).result_size == 1
        assert threads == [threading.current_thread()] * 2

    def test_close_waits_for_a_running_read(self, tiny_text, monkeypatch,
                                            tmp_path):
        """close() takes the write side: it returns only after the read it
        found running has finished and written its query-log line."""
        reading, release = threading.Event(), threading.Event()

        def block() -> None:
            reading.set()
            assert release.wait(timeout=10)

        self._wrap_evaluate(monkeypatch, block)
        log = tmp_path / "queries.jsonl"
        db = serve(tiny_text, ("D",), max_workers=2, query_log=log)
        svc = db.service
        with concurrent.futures.ThreadPoolExecutor(1) as client:
            read = client.submit(svc.execute, "D", PERSON_LISTING)
            assert reading.wait(timeout=10)
            closer = threading.Thread(target=db.close)
            closer.start()
            closer.join(timeout=0.2)
            assert closer.is_alive() and not read.done()
            release.set()
            closer.join(timeout=10)
            assert not closer.is_alive()
            outcome = read.result(timeout=10)
        assert outcome.result_size == len(outcome.result) > 0
        (line,) = log.read_text().splitlines()
        record = json.loads(line)
        assert record["rows"] == outcome.result_size
        assert "error" not in record
        with pytest.raises(ClosedSessionError, match="closed"):
            svc.execute("D", 1)


class TestConcurrentReads:
    """Thread-safety regression: stores must serve identical results from
    many threads at once (the SummaryStore/FragmentStore audit)."""

    QUERY_BY_SYSTEM = {"B": 13, "C": 14, "D": 10}  # reconstruction + full text

    @pytest.mark.parametrize("system", sorted(QUERY_BY_SYSTEM))
    def test_same_query_from_8_threads(self, service_db, system):
        query = self.QUERY_BY_SYSTEM[system]
        store = service_db.store(system)
        profile = get_profile(system)
        compiled = compile_query(query_text(query), store, profile)
        reference = evaluate(compiled).serialize()

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            serialized = list(pool.map(
                lambda _: evaluate(compiled).serialize(), range(8)))
        assert all(s == reference for s in serialized)

    def test_mixed_workload_across_systems(self, service):
        """execute() from 8 clients against three architectures at once."""
        systems = ("B", "C", "D")
        before = service.metrics.snapshot()["latency"]["count"]

        def client(rank: int) -> None:
            for seq in range(6):
                system = systems[(rank + seq) % len(systems)]
                query = INTERACTIVE[(rank * 6 + seq) % len(INTERACTIVE)]
                assert service.execute(system, query).system == system

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as clients:
            list(clients.map(client, range(8)))
        after = service.metrics.snapshot()["latency"]["count"]
        assert after - before == 48
        assert not any(name.startswith("db.errors_total") for name in
                       service.metrics.registry.snapshot()["counters"])

    def test_fragment_store_string_value_has_no_read_scratch(self,
                                                             service_db):
        store = service_db.store("B")
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

        with serve(tiny_text, ("D",), max_workers=8,
                   result_cache_size=0) as db:
            svc = db.service
            store = db.store("D")
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
                db.apply_transaction([RegisterPerson(stream.build_person())])
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

        with serve(tiny_text, ("D",), max_workers=2) as db:
            svc = db.service
            stream = UpdateStream(db.store("D"))
            svc.execute("D", 1)     # person exact-match
            svc.execute("D", 2)     # open-auction ordered access
            svc.execute("D", 5)     # closed-auction range
            summary = db.apply_transaction(
                [RegisterPerson(stream.build_person())])
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

        with serve(tiny_text, ("C", "D"), max_workers=2) as db:
            svc = db.service
            stream = UpdateStream(db.store("D"))
            svc.execute("C", 2)
            svc.execute("D", 2)
            db.apply_transaction([RegisterPerson(stream.build_person())])
            assert svc.execute("C", 2).result_cache_hit
            assert svc.execute("D", 2).result_cache_hit
            assert db.store("C").document_digest() == \
                db.store("D").document_digest()

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

        with serve(tiny_text, ("D",), max_workers=1) as db:
            snapshot = db.service.export_metrics()
            assert snapshot["gauges"]["service.footprint_fallbacks"] == \
                invalidation.footprint_fallbacks()

    def test_mixed_read_write_workload(self, tiny_text):
        """Clients interleaving reads and commits finish with every commit
        applied and the serving stores still in lockstep."""
        from repro.update import UpdateStream, serialize_store

        systems, queries = ("C", "D"), (1, 2, 5, 17, 20)
        with serve(tiny_text, systems, max_workers=4) as db:
            svc = db.service
            stream = UpdateStream(db.store("D"))
            draw = threading.Lock()     # the stream plays the document forward

            def client(rank: int) -> int:
                applied = 0
                for seq in range(8):
                    if (rank + seq) % 3 == 0:
                        with draw:
                            op = stream.next_op()
                            stream.note_applied(op)
                            db.apply_transaction([op])
                        applied += 1
                    else:
                        svc.execute(systems[seq % 2],
                                    queries[(rank + seq) % len(queries)])
                return applied

            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as clients:
                committed = sum(clients.map(client, range(4)))
            assert 0 < committed < 32
            assert commits(db) == committed
            counters = db.registry.snapshot()["counters"]
            assert sum(counters[f'db.queries_total{{system="{name}"}}']
                       for name in systems) == 32 - committed
            assert svc.metrics.snapshot()["latency"]["count"] == 32 - committed
            assert not any(name.startswith("db.errors_total")
                           for name in counters)
            assert serialize_store(db.store("C")) == \
                serialize_store(db.store("D"))
