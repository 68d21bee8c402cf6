"""Observability: tracer, metrics registry, EXPLAIN/PROFILE agreement.

The profile tests verify span trees against *independently counted*
execution facts: index probes against untraced ``store.stats`` deltas,
shard fan-out against the scatter outcome's ``shards_used``, cache-hit
flags against the service's cache counters.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.benchmark.queries import query_text
from repro.benchmark.systems import get_profile
from repro.db import connect
from repro.errors import BenchmarkError, XMarkError
from repro.obs import (
    NULL_SPAN, NULL_TRACER, MetricsRegistry, TraceLogWriter, Tracer,
)
from repro.obs.metrics import DEFAULT_WINDOW
from repro.obs.trace import TRACE_SCHEMA_VERSION, Span
from repro.service.metrics import ServiceMetrics
from repro.xmlio.parser import parse
from repro.xquery.ast import FLWOR, ForClause, Path, walk
from repro.xquery.evaluator import evaluate
from repro.xquery.parser import parse_query
from repro.xquery.planner import compile_query

ALL_SYSTEMS = tuple("ABCDEFG")
PROFILED_QUERIES = (1, 5, 8)


@pytest.fixture(scope="module")
def traced_db(tiny_text):
    with connect(tiny_text, systems=ALL_SYSTEMS, tracing=True) as db:
        yield db


@pytest.fixture(scope="module")
def traced_sharded_db(tiny_text):
    with connect(tiny_text, systems=(), shards=2, tracing=True) as db:
        yield db


@pytest.fixture(scope="module")
def traced_service_db(tiny_text):
    with connect(tiny_text, systems=("D",), service=True, tracing=True) as db:
        yield db


# -- tracer ---------------------------------------------------------------------------


class TestTracer:
    def test_span_tree_nesting_and_attrs(self):
        tracer = Tracer()
        with tracer.span("root", kind="outer") as root:
            with tracer.span("child") as child:
                child.set(rows=3)
            with tracer.span("sibling"):
                pass
        assert root.finished
        assert [c.name for c in root.children] == ["child", "sibling"]
        assert root.attrs == {"kind": "outer"}
        assert root.children[0].attrs == {"rows": 3}
        assert root.find("sibling") is root.children[1]
        assert len(root.find_all("child")) == 1
        assert tracer.roots == (root,)

    def test_exception_sets_error_attr(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (root,) = tracer.roots
        assert root.attrs["error"] == "ValueError"
        assert root.finished

    def test_cross_thread_begin_parents_under_caller(self):
        tracer = Tracer()
        root = tracer.begin("root")

        def worker():
            child = tracer.begin("worker", parent=root, rank=1)
            with tracer.activate(child):
                with tracer.span("inner"):
                    pass
            child.finish()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        root.finish()
        assert [c.name for c in root.children] == ["worker"]
        assert [c.name for c in root.children[0].children] == ["inner"]

    def test_roots_retention_is_bounded(self):
        tracer = Tracer(keep=2)
        for number in range(5):
            with tracer.span("q", n=number):
                pass
        assert [r.attrs["n"] for r in tracer.roots] == [3, 4]

    def test_null_tracer_produces_zero_spans(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("anything", x=1) is NULL_SPAN
        assert NULL_TRACER.begin("anything") is NULL_SPAN
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.roots == ()
        with NULL_TRACER.activate(NULL_SPAN):
            with NULL_TRACER.span("nested") as span:
                span.set(ignored=True)
        assert NULL_TRACER.roots == ()
        assert NULL_SPAN.attrs == {}
        assert NULL_SPAN.to_dict()["children"] == []

    def test_trace_log_writer_schema(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(on_root=TraceLogWriter(path))
        with tracer.span("outer", q=1):
            with tracer.span("inner"):
                pass
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["v"] == TRACE_SCHEMA_VERSION
        span = record["span"]
        assert set(span) == {"name", "start", "duration_ms", "attrs",
                             "children"}
        assert span["name"] == "outer"
        assert span["attrs"] == {"q": 1}
        assert span["children"][0]["name"] == "inner"


# -- metrics registry -----------------------------------------------------------------


class TestMetricsRegistry:
    def test_get_or_create_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", system="D")
        b = registry.counter("hits", system="D")
        c = registry.counter("hits", system="E")
        assert a is b and a is not c
        a.inc()
        a.inc(4)
        assert a.value == 5 and c.value == 0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("latency")
        with pytest.raises(BenchmarkError):
            registry.histogram("latency")

    def test_label_order_finds_the_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("x", a="1", b="2")
        assert registry.counter("x", b="2", a="1") is first
        assert registry.counter("x", a="1", b="2") is first
        first.inc()
        assert registry.snapshot()["counters"] == {'x{a="1",b="2"}': 1}

    def test_a_memoised_name_still_refuses_another_kind(self):
        registry = MetricsRegistry()
        counter = registry.counter("latency")
        assert registry.counter("latency") is counter     # memoised
        for _ in range(2):
            with pytest.raises(BenchmarkError):
                registry.histogram("latency")
            with pytest.raises(BenchmarkError):
                registry.gauge("latency")
        assert registry.counter("latency") is counter

    def test_snapshot_after_lookups_from_eight_threads(self):
        """Threads racing through lookups in both label orders, of all
        three kinds, leave one series each with every increment in it."""
        def lookups(registry: MetricsRegistry, worker: int) -> None:
            for number in range(300):
                tenant = f"t{number % 3}"
                if number % 2:
                    counter = registry.counter("requests", kind="execute",
                                               tenant=tenant)
                else:
                    counter = registry.counter("requests", tenant=tenant,
                                               kind="execute")
                counter.inc()
                registry.histogram("ms", tenant=tenant).observe(0.001)
                registry.gauge("active", worker=str(worker)).set(number)

        expected = MetricsRegistry()
        for worker in range(8):
            lookups(expected, worker)
        registry = MetricsRegistry()
        threads = [threading.Thread(target=lookups, args=(registry, worker))
                   for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert registry.snapshot() == expected.snapshot()
        assert registry.snapshot()["counters"][
            'requests{kind="execute",tenant="t0"}'] == 8 * 100

    def test_histogram_ring_bounds_memory(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", window=4)
        for number in range(100):
            hist.observe(number / 1000.0)
        assert hist.retained == 4             # ring keeps the window only
        assert hist.count == 100              # lifetime total stays exact
        summary = hist.summary()
        assert summary.count == 100
        assert summary.maximum == pytest.approx(0.099)
        assert len(hist.samples()) == 4

    def test_exporters(self):
        registry = MetricsRegistry()
        registry.counter("queries", system="D").inc(3)
        registry.gauge("window").set(1.5)
        registry.histogram("lat").observe(0.002)
        snapshot = registry.snapshot()
        assert snapshot["counters"]['queries{system="D"}'] == 3
        assert snapshot["gauges"]["window"] == 1.5
        assert snapshot["histograms"]["lat"]["count"] == 1
        text = registry.render_text()
        assert 'queries{system="D"} 3' in text
        assert "lat count=1" in text

    def test_service_metrics_shim_is_bounded(self):
        metrics = ServiceMetrics(MetricsRegistry())
        for _ in range(50):
            metrics.record(0.001, 0.0001, 0.0, "D")
        assert metrics._latency.window == DEFAULT_WINDOW
        snapshot = metrics.snapshot()
        assert snapshot["latency"]["count"] == 50
        assert snapshot["compile_latency"]["count"] == 50
        text = metrics.registry.render_text()
        assert 'service.latency_seconds{system="D"} count=50' in text


# -- EXPLAIN --------------------------------------------------------------------------


class TestExplain:
    def test_q1_reports_id_lookup(self, traced_db):
        explain = traced_db.session().explain(1, system="D")
        kinds = [a["kind"] for a in explain["plan"]["access_paths"]]
        assert "id_lookup" in kinds
        assert "EXPLAIN system=D mode=direct" in explain.render()

    def test_q5_reports_range_plan(self, traced_db):
        explain = traced_db.session().explain(5, system="D")
        ranges = explain["plan"]["ranges"]
        assert len(ranges) == 1
        assert ranges[0]["op"] == ">="
        assert ranges[0]["bound"] == 40.0

    def test_q8_reports_hash_join(self, traced_db):
        explain = traced_db.session().explain(8, system="D")
        joins = explain["plan"]["joins"]
        assert len(joins) == 1
        assert joins[0]["strategy"] == "hash"

    def test_q19_predicts_order_by_barrier(self, traced_db):
        explain = traced_db.session().explain(19, system="D")
        assert any("order-by" in b for b in explain["plan"]["barriers"])
        assert "streaming barrier: order-by" in explain.render()

    def test_sharded_explain_names_route(self, traced_sharded_db):
        explain = traced_sharded_db.session().explain(1, system="S")
        assert explain["mode"] == "scatter"
        assert explain["shard"]["kind"] == "routed"
        assert explain["shard"]["shards"] == 2
        broadcast = traced_sharded_db.session().explain(8, system="S")
        assert broadcast["shard"]["kind"] == "broadcast_join"

    @pytest.mark.parametrize("query", (8, 9, 10, 11, 12, 19))
    def test_navigation_names_the_store_bound_variables(self, traced_db, query):
        """Every ``for`` variable a path binds is store-bound; a ``let``
        over constructors (Q9's ``$a``, Q10's ``$p``), atomics (Q10's
        ``$i``, Q19's ``$k``) go through the ``Navigator``."""
        explain = traced_db.session().explain(query, system="D")
        plan = explain["plan"]
        fors = {clause.var for node in walk(parse_query(query_text(query)))
                if isinstance(node, FLWOR)
                for clause in node.clauses
                if isinstance(clause, ForClause) and isinstance(clause.sequence, Path)}
        assert fors and fors <= set(plan["store_bound"])
        assert not set(plan["store_bound"]) & set(plan["navigator"])
        navigator = {9: ["a"], 10: ["i", "p"], 19: ["k"]}.get(query, [])
        assert sorted(plan["navigator"]) == navigator
        line = "  navigation: store " + " ".join(f"${name}" for name in plan["store_bound"])
        if navigator:
            line += "; navigator " + " ".join(f"${name}" for name in plan["navigator"])
        for twig in plan["twigs"]:
            line += f"; twig ${twig['var']}: {twig['leaves']} " + (
                "leaf" if twig["leaves"] == 1 else "leaves")
        assert line in explain.render().splitlines()

    def test_navigation_shows_q10s_twig(self, traced_db):
        """Q10's eleven value paths from ``$t`` are one twig: one store
        call per person row."""
        explain = traced_db.session().explain(10, system="D")
        assert explain["plan"]["twigs"] == [{"var": "t", "leaves": 11}]
        assert ("  navigation: store $t; navigator $i $p; twig $t: 11 leaves"
                in explain.render().splitlines())

    def test_explain_does_not_execute(self, traced_db):
        tracer = traced_db.tracer
        before = len(tracer.roots)
        traced_db.session().explain(8, system="D")
        assert len(tracer.roots) == before


# -- PROFILE vs. independently counted execution facts --------------------------------


class TestProfileAgainstExecution:
    @pytest.mark.parametrize("query", PROFILED_QUERIES)
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_eager_and_streaming_probe_counts_agree(self, traced_db,
                                                    system, query):
        session = traced_db.session()
        eager = session.execute(query, system=system, stream=False)
        eager.fetchall()
        eval_span = eager.profile().find("evaluator.eval")
        assert eval_span is not None
        streamed = session.execute(query, system=system, stream=True)
        streamed.fetchall()
        stream_span = streamed.profile().find("evaluator.stream")
        assert stream_span is not None
        # Two different pipelines, one probe count.
        assert (eval_span.attrs["index_probes"]
                == stream_span.attrs["index_probes"])
        assert eager.profile().attrs["rows"] == streamed.rowcount

    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("query", [11, 12])
    def test_unread_join_windows_materialize_nothing(self, small_text,
                                                     query, stream):
        """The allocation oracle: Q11/Q12's join ``let`` is only ever read
        by ``count($l)``, so although every person probes the sorted index
        and the windows are not empty, no handle is wrapped into an item."""
        with connect(small_text, systems=("D",), tracing=True) as db:
            cursor = db.session().execute(query, system="D", stream=stream)
            rows = cursor.fetchall()
            counted = sum(int(parse(cursor.rowtext(row)).root.text_content())
                          for row in rows)
            span = cursor.profile().find(
                "evaluator.stream" if stream else "evaluator.eval")
            assert counted > 0
            # still one probe per outer binding with an income to bisect on
            (with_income,) = db.session().execute(
                "count(/site/people/person/profile/@income)").fetchall()
            assert span.attrs["index_probes"] == with_income > 0
            assert span.attrs["items_materialized"] == 0
            assert "items_materialized=0" in cursor.profile().render()

    def test_iterated_windows_count_what_they_wrap(self, small_text):
        """A consumer that pulls items pays for exactly those: Q5's range
        FLWOR binds each qualifying node once, and a hash-join ``let``
        read through a path wraps each matched auction once."""
        bought = ("for $p in /site/people/person "
                  "let $a := for $t in /site/closed_auctions/closed_auction "
                  "          where $t/buyer/@person = $p/@id return $t "
                  "return <n>{$a/price/text()}</n>")
        with connect(small_text, systems=("D",), tracing=True) as db:
            session = db.session()
            (qualifying,) = session.execute(5, system="D").fetchall()
            (auctions,) = session.execute(
                "count(/site/closed_auctions/closed_auction)").fetchall()
            for query, expected in ((5, qualifying), (bought, auctions)):
                cursor = session.execute(query, system="D", stream=False)
                cursor.fetchall()
                span = cursor.profile().find("evaluator.eval")
                assert span.attrs["items_materialized"] == expected > 0

    @pytest.mark.parametrize("query", PROFILED_QUERIES)
    @pytest.mark.parametrize("system", ("C", "E"))
    def test_probe_count_matches_untraced_stats_delta(self, traced_db,
                                                      system, query):
        # On C and E every index lookup flows through the evaluator, so
        # the span's probe count must equal the store's own counter delta
        # measured around a completely untraced execution.
        store = traced_db.store(system)
        compiled = compile_query(query_text(query), store,
                                 get_profile(system))
        before = store.stats.index_lookups
        evaluate(compiled)
        delta = store.stats.index_lookups - before
        cursor = traced_db.session().execute(query, system=system,
                                             stream=False)
        cursor.fetchall()
        span = cursor.profile().find("evaluator.eval")
        assert span.attrs["index_probes"] == delta
        assert span.attrs["index_degrades"] == 0

    @pytest.mark.parametrize("query", PROFILED_QUERIES)
    @pytest.mark.parametrize("system", ("F", "G"))
    def test_scan_only_profiles_probe_nothing(self, traced_db, system,
                                              query):
        cursor = traced_db.session().execute(query, system=system,
                                             stream=False)
        cursor.fetchall()
        span = cursor.profile().find("evaluator.eval")
        assert span.attrs["index_probes"] == 0

    @pytest.mark.parametrize("query", PROFILED_QUERIES)
    def test_shard_span_fanout_matches_shards_used(self, traced_sharded_db,
                                                   query):
        cursor = traced_sharded_db.session().execute(query, system="S",
                                                     stream=False)
        cursor.fetchall()
        # S is one more system: the exchange runs inside the evaluator.
        assert cursor.profile().name == "query"
        root = cursor.profile().find("evaluator.eval").find("scatter.query")
        shard_spans = root.find_all("scatter.shard")
        distinct = {s.attrs["shard"] for s in shard_spans}
        assert len(distinct) == root.attrs["shards_used"]
        merge = root.find("scatter.merge")
        if merge is not None:
            assert merge.attrs["rows"] == root.attrs["rows"]

    def test_routed_query_touches_one_shard(self, traced_sharded_db):
        cursor = traced_sharded_db.session().execute(1, system="S",
                                                     stream=False)
        cursor.fetchall()
        root = cursor.profile().find("scatter.query")
        assert root.attrs["plan"] == "routed"
        assert root.attrs["shards_used"] == 1
        assert len({s.attrs["shard"]
                    for s in root.find_all("scatter.shard")}) == 1

    def test_broadcast_join_fans_out_to_all_shards(self, traced_sharded_db):
        cursor = traced_sharded_db.session().execute(8, system="S",
                                                     stream=False)
        cursor.fetchall()
        root = cursor.profile().find("scatter.query")
        assert root.attrs["plan"] == "broadcast_join"
        assert root.attrs["shards_used"] == 2

    def test_service_cache_hit_flag_matches_cache_stats(self,
                                                        traced_service_db):
        service = traced_service_db.service
        session = traced_service_db.session()
        first = session.execute(5, system="D", stream=False)
        first.fetchall()
        hits_before = service.result_cache.stats.hits
        second = session.execute(5, system="D", stream=False)
        second.fetchall()
        assert service.result_cache.stats.hits == hits_before + 1
        root = second.profile()
        assert root.name == "query" and root.attrs["source"] == "service"
        assert root.attrs["result_cache_hit"] is True
        assert root.find("plan") is None        # the hit planned nothing
        assert first.profile().attrs["result_cache_hit"] is False
        # the wait for the read side is recorded on either path
        assert first.profile().attrs["queue_ms"] >= 0.0
        assert root.attrs["queue_ms"] >= 0.0

    def test_service_span_rides_the_outcome(self, traced_service_db):
        cursor = traced_service_db.session().execute(2, system="D",
                                                     stream=False)
        rows = cursor.fetchall()
        root = cursor.profile()
        assert root.attrs["rows"] == len(rows)
        assert "plan_cache_hit" in root.attrs
        outcome = traced_service_db.service.execute("D", 2)
        assert outcome.span.name == "query"
        assert outcome.span.attrs["rows"] == outcome.result_size

    def test_profile_none_when_tracing_off(self, tiny_text):
        with connect(tiny_text, systems=("D",)) as db:
            cursor = db.session().execute(1, stream=False)
            cursor.fetchall()
            assert cursor.profile() is None
            assert db.tracer is NULL_TRACER
            assert db.tracer.roots == ()

    def test_untraced_connection_allocates_no_span(self, tiny_text,
                                                   monkeypatch):
        """Instrumentation is free when it is off, by count rather than
        by clock: Q1-Q20, eager and streamed, construct no ``Span``."""
        made = []
        init = Span.__init__

        def counting_init(span, name, *args, **kwargs):
            made.append(name)
            init(span, name, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting_init)
        with connect(tiny_text, systems=("D",)) as db:
            session = db.session()
            for query in range(1, 21):
                for stream in (False, True):
                    session.execute(query, stream=stream).fetchall()
        assert made == []
        with connect(tiny_text, systems=("D",), tracing=True) as db:
            db.session().execute(1).fetchall()
        assert "evaluator.stream" in made       # the counter does bite

    def test_streaming_profile_completes_on_exhaustion(self, traced_db):
        cursor = traced_db.session().execute(2, system="D", stream=True)
        assert not cursor.profile().finished   # still streaming
        cursor.fetchall()
        root = cursor.profile()
        assert root.finished
        assert root.attrs["rows"] == cursor.rowcount

    def test_streaming_profile_completes_on_close(self, traced_db):
        cursor = traced_db.session().execute(2, system="D", stream=True)
        cursor.fetchone()
        cursor.close()
        assert cursor.profile().finished

    def test_update_and_transaction_spans(self, tiny_text):
        with connect(tiny_text, systems=("D",), tracing=True) as db:
            session = db.session()
            with session.transaction() as txn:
                txn.place_bid("open_auction0", "person1", 4.0,
                              "05/24/2000", "11:00:00")
            root = db.tracer.roots[-1]
            assert root.name == "txn.commit"
            assert root.attrs["ops"] == 1
            assert root.attrs["source"] == "direct"
            assert "kind" not in root.attrs     # one commit kind: a batch
            assert root.find("commit.gates") is not None
            op_span = root.find("update.op")
            assert op_span is not None
            assert op_span.attrs["maintenance"] == "incremental"
            assert op_span.attrs["footprint"] > 0
            # A bidder is five label paths: one run each into D's summary
            # (D builds no secondary path index), placed by a few order keys.
            assert op_span.attrs["nodes_indexed"] >= 5
            assert op_span.attrs["extent_splices"] == 5
            assert 0 < op_span.attrs["order_keys"] < 100

    def test_service_update_span_records_invalidation(self, tiny_text):
        with connect(tiny_text, systems=("D",), service=True,
                     tracing=True) as db:
            session = db.session()
            session.execute(1, system="D", stream=False).fetchall()
            with session.transaction() as txn:
                txn.place_bid("open_auction0", "person1", 4.0,
                              "05/24/2000", "11:00:00")
            roots = [r for r in db.tracer.roots
                     if r.name == "txn.commit"]
            assert roots and roots[-1].attrs["source"] == "service"
            assert roots[-1].find("commit.gates") is not None
            invalidate = roots[-1].find("service.invalidate")
            assert invalidate.attrs["system"] == "D"
            kept = invalidate.attrs["results_kept"]
            dropped = invalidate.attrs["results_dropped"]
            assert kept + dropped >= 1       # the Q1 result was cached

    def test_connection_trace_log(self, tiny_text, tmp_path):
        path = tmp_path / "workload.jsonl"
        with connect(tiny_text, systems=("D",), tracing=True,
                     trace_log=str(path)) as db:
            cursor = db.session().execute(1, stream=False)
            cursor.fetchall()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["v"] == TRACE_SCHEMA_VERSION
        assert record["span"]["name"] == "query"
        names = {c["name"] for c in record["span"]["children"]}
        assert {"plan", "evaluator.eval"} <= names

    def test_tenant_label_reaches_registry(self, tiny_text):
        with connect(tiny_text, systems=("D",)) as db:
            db.session(tenant="alice").execute(1, stream=False).fetchall()
            db.session(tenant="alice").execute(2, stream=False).fetchall()
            db.session(tenant="bob").execute(1, stream=False).fetchall()
            text = db.registry.render_text()
            assert 'db.queries_total{system="D",tenant="alice"} 2' in text
            assert 'db.queries_total{system="D",tenant="bob"} 1' in text


# -- CLI ------------------------------------------------------------------------------


class TestObsCli:
    def test_trace_command(self, capsys):
        from repro.cli import main
        assert main(["trace", "-f", "0.0005", "-q", "1", "-s", "D"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN system=D mode=direct" in out
        assert "PROFILE" in out
        assert "evaluator.eval" in out

    def test_trace_command_sharded_json(self, tmp_path, capsys):
        from repro.cli import main
        report = tmp_path / "trace.json"
        assert main(["trace", "-f", "0.0005", "-q", "8", "--shards", "2",
                     "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN system=S mode=scatter" in out
        assert "scatter.query" in out
        payload = json.loads(report.read_text())
        assert payload["explain"]["shard"]["kind"] == "broadcast_join"
        assert payload["profile"]["name"] == "query"

    def test_stats_command(self, tmp_path, capsys):
        from repro.cli import main
        report = tmp_path / "stats.json"
        assert main(["stats", "-f", "0.0005", "-s", "BD",
                     "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "service.latency_seconds" in out
        assert 'db.queries_total{system="B"} 20' in out
        snapshot = json.loads(report.read_text())
        assert snapshot["counters"]['db.queries_total{system="D"}'] == 20
        assert not any(name.startswith("db.errors_total")
                       for name in snapshot["counters"])


# -- one counter family per fact -----------------------------------------------------


def _counts(registry) -> dict:
    """Every counter, and the caches' hit and miss counts, by series."""
    snapshot = registry.snapshot()
    counts = dict(snapshot["counters"])
    counts.update((name, value) for name, value in snapshot["gauges"].items()
                  if name.startswith(("cache.hits", "cache.misses")))
    return counts


def _moved(registry, action) -> dict:
    """The series ``action()`` moved, and by how much."""
    before = _counts(registry)
    action()
    after = _counts(registry)
    return {name: value - before.get(name, 0) for name, value in after.items()
            if value != before.get(name, 0)}


class TestOneFamilyPerFact:
    """An execution, a plan or result-cache hit and a failure each move
    exactly one family of the connection's registry, whatever the route:
    ``db.queries_total``, ``cache.hits{cache=...}``, ``db.errors_total``
    (a miss moves ``cache.misses``)."""

    Q1 = query_text(1)
    BAD = "for $x in ][ return"

    def test_direct_route(self, tiny_text):
        with connect(tiny_text, systems=("D",)) as db:
            session = db.session()

            def run(query, stream=True):
                return lambda: session.execute(query, stream=stream).fetchall()

            queries = 'db.queries_total{system="D"}'
            assert _moved(db.registry, run(self.Q1)) == {
                queries: 1, 'cache.misses{cache="plan"}': 1}
            assert _moved(db.registry, run(self.Q1, stream=False)) == {
                queries: 1, 'cache.hits{cache="plan"}': 1}
            failing = run("for $p in /site/people/person return 1 div 0")
            with pytest.raises(XMarkError):
                failing()
            assert db.registry.counter("db.errors_total",
                                       system="D").value == 1

    def test_service_route(self, tiny_text):
        with connect(tiny_text, systems=("D",), service=True) as db:
            session = db.session()
            queries = 'db.queries_total{system="D"}'
            miss = _moved(db.registry,
                          lambda: session.execute(self.Q1).fetchall())
            assert miss == {queries: 1, 'cache.misses{cache="result"}': 1,
                            'cache.misses{cache="plan"}': 1}
            hit = _moved(db.registry,
                         lambda: session.execute(self.Q1).fetchall())
            assert hit == {queries: 1, 'cache.hits{cache="result"}': 1}
            # The service's own entry point is one more execution.
            assert _moved(db.registry,
                          lambda: db.service.execute("D", self.Q1)) == hit

            def fail():
                with pytest.raises(XMarkError):
                    db.service.execute("D", self.BAD)

            assert _moved(db.registry, fail) == {
                queries: 1, 'db.errors_total{system="D"}': 1,
                'cache.misses{cache="result"}': 1,
                'cache.misses{cache="plan"}': 1}
            assert not any(name.startswith("service.")
                           for name in db.registry.snapshot()["counters"])

    def test_wire_route(self, tiny_text):
        from repro.server import XMarkServer, connect_url, serve_in_thread

        database = connect(tiny_text, systems=("D",))
        server = XMarkServer()
        server.add_document("auction", database, owned=True)
        with serve_in_thread(server) as handle:
            with connect_url(handle.url, tenant="acme") as remote:
                session = remote.session()
                queries = 'db.queries_total{system="D",tenant="acme"}'
                assert _moved(database.registry,
                              lambda: session.execute(self.Q1).fetchall()) \
                    == {queries: 1, 'cache.misses{cache="plan"}': 1}

                def fail():
                    with pytest.raises(XMarkError):
                        session.execute(self.BAD).fetchall()

                assert _moved(database.registry, fail) == {
                    queries: 1, 'db.errors_total{system="D"}': 1,
                    'cache.misses{cache="plan"}': 1}
