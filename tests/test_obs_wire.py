"""Distributed tracing over the wire: joined profiles, sampling, the
structured query log, and the live ops surface.

The joined-profile tests reuse PR 6's probe-count oracle: the span a
remote ``cursor.profile()`` shows for the server's execution must carry
the same ``index_probes`` as an embedded run of the same query — and on
System C (where every lookup flows through the evaluator) the same
count as the store's own ``stats.index_lookups`` delta measured around a
completely untraced ``evaluate()``.
"""

from __future__ import annotations

import json
import socket
import struct

import pytest

import repro
from repro.benchmark.queries import query_text
from repro.benchmark.systems import get_profile
from repro.errors import ProtocolError, QuerySyntaxError
from repro.obs.querylog import (
    QUERY_LOG_SCHEMA_VERSION, QueryLogWriter, span_breakdown,
)
from repro.obs.trace import TraceLogWriter, TraceSampler, Tracer
from repro.server import (
    PROTOCOL_VERSION, XMarkServer, connect_url, serve_in_thread,
)
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import compile_query

ALL_QUERIES = tuple(range(1, 21))


@pytest.fixture(scope="module")
def traced_served(tiny_text):
    """A wire server whose database traces, plus the database."""
    database = repro.connect(tiny_text, systems=("C", "D"), tracing=True)
    server = XMarkServer(queue_depth=64, tracer=database.tracer)
    server.add_document("auction", database, owned=True)
    handle = serve_in_thread(server)
    yield handle, database, server
    handle.stop()


@pytest.fixture()
def traced_remote(traced_served):
    handle, _database, _server = traced_served
    database = connect_url(handle.url, tracing=True)
    yield database
    database.close()


def raw_connection(handle) -> socket.socket:
    sock = socket.create_connection((handle.host, handle.port), timeout=10.0)
    sock.settimeout(10.0)
    return sock


def raw_send(sock: socket.socket, payload: dict) -> None:
    body = json.dumps(payload).encode("utf-8")
    sock.sendall(struct.pack(">I", len(body)) + body)


def raw_recv(sock: socket.socket) -> dict | None:
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        if not chunk:
            return None
        header += chunk
    (length,) = struct.unpack(">I", header)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            return None
        body += chunk
    return json.loads(body)


def raw_hello(sock: socket.socket, tenant: str | None = None) -> dict:
    raw_send(sock, {"kind": "hello", "protocol": PROTOCOL_VERSION,
                    "document": "auction", "tenant": tenant})
    reply = raw_recv(sock)
    assert reply is not None and reply["kind"] == "welcome"
    return reply


def probe_count(span) -> int:
    node = span.find("evaluator.eval") or span.find("evaluator.stream")
    assert node is not None, "no evaluator span in the tree"
    return node.attrs["index_probes"]


#: Spans of the planner's phases rather than of its decisions.
_PLAN_PHASES = {"plan", "plan.parse", "plan.emit", "plan.cache"}


def plan_choices(span) -> list[tuple[str, dict]]:
    """The optimizer decisions a profile shows, compiled or replayed."""
    return [(node.name, node.attrs) for node in span.walk()
            if node.name.startswith("plan") and node.name not in _PLAN_PHASES]


# -- joined client+server profiles ----------------------------------------------------


class TestJoinedRemoteProfiles:
    @pytest.mark.parametrize("query", ALL_QUERIES)
    def test_joined_profile_matches_embedded(self, traced_served,
                                             traced_remote, query):
        _, database, _ = traced_served
        embedded = database.session().execute(query, system="D",
                                              stream=False)
        embedded.fetchall()
        expected = probe_count(embedded.profile())
        choices = plan_choices(embedded.profile())

        cursor = traced_remote.session().execute(query, system="D")
        rows = cursor.fetchall()
        root = cursor.profile()
        assert root is not None and root.finished
        assert root.name == "query"
        assert root.attrs["source"] == "wire"
        assert root.attrs["trace_id"]
        # The server's subtree came back over the wire and was grafted
        # under the client root: the served execution found the plan the
        # embedded one put in the shared plan cache, replayed its choices
        # under ``plan.cache``, and ran its evaluator.
        served = root.find_all("query")[1]
        assert served.attrs["plan_cache_hit"] is True
        assert root.find("plan") is None
        cached = root.find("plan.cache")
        assert cached is not None and cached.attrs["hit"] is True
        assert plan_choices(cached) == choices
        assert probe_count(root) == expected
        assert root.attrs["rows"] == len(rows)

    @pytest.mark.parametrize("query", (1, 5, 8))
    def test_probe_count_matches_untraced_stats_delta(self, traced_served,
                                                      traced_remote, query):
        # PR 6's oracle, now end-to-end over the socket: on C every
        # index lookup flows through the evaluator, so the joined tree's
        # probe count must equal the store's counter delta around an
        # untraced raw execution.
        _, database, _ = traced_served
        store = database.store("C")
        compiled = compile_query(query_text(query), store, get_profile("C"))
        before = store.stats.index_lookups
        evaluate(compiled)
        delta = store.stats.index_lookups - before

        cursor = traced_remote.session().execute(query, system="C")
        cursor.fetchall()
        assert probe_count(cursor.profile()) == delta

    def test_profile_none_when_client_untraced(self, traced_served):
        handle, _, _ = traced_served
        with connect_url(handle.url) as remote:
            cursor = remote.session().execute(1, system="D")
            cursor.fetchall()
            assert cursor.profile() is None


# -- wire trace context and sampling --------------------------------------------------


@pytest.fixture(scope="module")
def sampled_off_served(tiny_text):
    """A tracing-capable server that head-samples nothing (rate 0)."""
    database = repro.connect(tiny_text, systems=("D",), tracing=True)
    server = XMarkServer(queue_depth=64, tracer=database.tracer,
                         trace_sample_rate=0.0)
    server.add_document("auction", database, owned=True)
    handle = serve_in_thread(server)
    yield handle, database, server
    handle.stop()


class TestWireTraceContext:
    def test_unsampled_request_gets_no_span(self, sampled_off_served):
        handle, _, _ = sampled_off_served
        sock = raw_connection(handle)
        try:
            raw_hello(sock)
            raw_send(sock, {"kind": "execute", "system": "D",
                            "query": query_text(1), "fetch": 1000})
            reply = raw_recv(sock)
            assert reply["kind"] == "cursor" and reply["done"]
            assert "span" not in reply
        finally:
            sock.close()

    def test_client_context_overrides_head_sampling(self, sampled_off_served):
        # sampled=True in the inbound trace context wins over the
        # server's rate-0 head sampler: the subtree still comes back.
        handle, _, _ = sampled_off_served
        with connect_url(handle.url, tracing=True) as remote:
            session = remote.session()
            session.execute(1, system="D").fetchall()  # the plan is cached
            cursor = session.execute(1, system="D")
            cursor.fetchall()
            root = cursor.profile()
            assert root.children, "server subtree missing from joined tree"
            assert root.find("evaluator.stream") is not None
            cached = root.find("plan.cache")
            assert cached is not None
            assert [name for name, _attrs in plan_choices(cached)] == \
                ["plan.access_path"]

    def test_explicit_unsampled_context_is_honored(self, sampled_off_served):
        handle, _, _ = sampled_off_served
        sock = raw_connection(handle)
        try:
            raw_hello(sock)
            raw_send(sock, {"kind": "execute", "system": "D",
                            "query": query_text(1), "fetch": 1000,
                            "trace": {"trace_id": "ab12cd34ef56",
                                      "parent": "ab12cd34ef56/0",
                                      "sampled": False}})
            reply = raw_recv(sock)
            assert reply["kind"] == "cursor" and "span" not in reply
        finally:
            sock.close()

    def test_malformed_trace_context_is_dropped_not_refused(
            self, sampled_off_served):
        handle, _, _ = sampled_off_served
        sock = raw_connection(handle)
        try:
            raw_hello(sock)
            for junk in ("garbage", 17, {"sampled": True}, ["x"]):
                raw_send(sock, {"kind": "execute", "system": "D",
                                "query": query_text(1), "fetch": 1000,
                                "trace": junk})
                reply = raw_recv(sock)
                assert reply["kind"] == "cursor", f"trace={junk!r} refused"
        finally:
            sock.close()


# -- error-path span hygiene ----------------------------------------------------------


class TestErrorSpanHygiene:
    @pytest.fixture()
    def error_served(self, tiny_text):
        tracer = Tracer()
        database = repro.connect(tiny_text, systems=("D",))
        # Head sampling off: only the always-keep-on-error tail rule can
        # retain a server.request span here.
        server = XMarkServer(queue_depth=64, tracer=tracer,
                             trace_sample_rate=0.0)
        server.add_document("auction", database, owned=True)
        handle = serve_in_thread(server)
        yield handle, server, tracer
        handle.stop()

    @pytest.mark.parametrize("request_payload, code", (
        ({"kind": "execute", "system": "Z", "query": "/site"},
         "unknown_system"),
        ({"kind": "execute", "system": "D", "query": "for $x in"},
         "query_syntax"),
    ))
    def test_error_span_carries_wire_code(self, error_served,
                                          request_payload, code):
        # Raw requests so the error happens *server-side* (the client
        # facade refuses an unknown system before it ever hits the wire).
        handle, server, tracer = error_served
        sock = raw_connection(handle)
        try:
            raw_hello(sock)
            raw_send(sock, request_payload)
            reply = raw_recv(sock)
            assert reply["kind"] == "error" and reply["code"] == code
            raw_send(sock, {"kind": "ping"})     # serialize past the finally
            assert raw_recv(sock)["kind"] == "pong"
        finally:
            sock.close()
        spans = [root for root in tracer.roots
                 if root.name == "server.request"
                 and root.attrs.get("error") == code]
        assert spans, f"no server.request span finished with error={code}"
        counters = server.registry.snapshot()["counters"]
        assert counters[f'server.errors_total{{code="{code}"}}'] >= 1

    def test_successful_requests_leave_no_roots_at_rate_zero(
            self, error_served):
        handle, _, tracer = error_served
        with connect_url(handle.url) as remote:
            remote.session().execute(1, system="D").fetchall()
        assert not [root for root in tracer.roots
                    if root.name == "server.request"
                    and "error" not in root.attrs]


# -- head sampler units ---------------------------------------------------------------


class TestTraceSampler:
    def test_deterministic_across_instances(self):
        first = TraceSampler(0.5, seed=7)
        second = TraceSampler(0.5, seed=7)
        decisions = [first.sample("acme") for _ in range(200)]
        assert decisions == [second.sample("acme") for _ in range(200)]
        assert any(decisions) and not all(decisions)

    def test_rate_bounds_short_circuit(self):
        assert all(TraceSampler(1.0).sample("t") for _ in range(50))
        assert not any(TraceSampler(0.0).sample("t") for _ in range(50))

    def test_observed_rate_tracks_configured_rate(self):
        sampler = TraceSampler(0.25, seed=11)
        kept = sum(sampler.sample("acme") for _ in range(4000))
        assert 0.20 < kept / 4000 < 0.30

    def test_tenant_streams_are_independent(self):
        # Each tenant draws from its own stream: interleaving draws for
        # another tenant must not perturb a tenant's decision sequence.
        solo = TraceSampler(0.5, seed=9)
        expected = [solo.sample("acme") for _ in range(100)]
        mixed = TraceSampler(0.5, seed=9)
        got = []
        for _ in range(100):
            got.append(mixed.sample("acme"))
            mixed.sample("interloper")
        assert got == expected

    def test_every_tenant_samples_at_the_one_rate(self):
        sampler = TraceSampler(0.25, seed=11)
        kept = {tenant: [sampler.sample(tenant) for _ in range(4000)]
                for tenant in ("acme", "globex")}
        for decisions in kept.values():
            assert 0.20 < sum(decisions) / 4000 < 0.30
        # same rate, separate streams: the kept-sets differ
        assert kept["acme"] != kept["globex"]

    def test_tail_rules_keep_slow_and_errored(self):
        sampler = TraceSampler(0.0, slow_ms=5.0)
        assert sampler.keep(True, 0.1)
        assert not sampler.keep(False, 0.1)
        assert sampler.keep(False, 5.0)          # slow query: always kept
        assert sampler.keep(False, 0.1, error=True)
        no_tail = TraceSampler(0.0)
        assert not no_tail.keep(False, 10_000.0)


# -- size-bounded rotation ------------------------------------------------------------


class TestLogRotation:
    def _finished_span(self, tracer):
        span = tracer.begin("query", payload="x" * 40)
        span.finish()
        return span

    def test_trace_log_rotates_whole_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer()
        writer = TraceLogWriter(str(path), max_bytes=400, keep=2)
        for _ in range(30):
            writer(self._finished_span(tracer))
        writer.close()
        rotated = sorted(p.name for p in tmp_path.iterdir())
        assert path.name in rotated
        assert f"{path.name}.1" in rotated
        assert f"{path.name}.3" not in rotated      # keep bound honored
        for name in rotated:
            for line in (tmp_path / name).read_text().splitlines():
                record = json.loads(line)              # no straddled lines
                assert record["span"]["name"] == "query"
        assert (tmp_path / f"{path.name}.1").stat().st_size <= 400 + 200

    def test_query_log_rotates(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        writer = QueryLogWriter(str(path), max_bytes=300, keep=2)
        for index in range(40):
            writer.record(source="server", tenant="acme", query=index,
                          duration_ms=1.0)
        writer.close()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert {path.name, f"{path.name}.1", f"{path.name}.2"} <= set(names)
        assert f"{path.name}.3" not in names
        for line in path.read_text().splitlines():
            assert json.loads(line)["v"] == QUERY_LOG_SCHEMA_VERSION


# -- the structured query log ---------------------------------------------------------


class TestQueryLog:
    def test_writer_drops_none_fields(self, tmp_path):
        path = tmp_path / "q.jsonl"
        writer = QueryLogWriter(str(path))
        writer.record(source="test", tenant="acme", error=None, rows=3)
        writer.close()
        record = json.loads(path.read_text())
        assert record["v"] == QUERY_LOG_SCHEMA_VERSION
        assert record["source"] == "test" and record["rows"] == 3
        assert "error" not in record and record["ts"] > 0

    def test_span_breakdown_folds_the_tree(self):
        tracer = Tracer()
        root = tracer.begin("query")
        with tracer.activate(root):
            with tracer.span("plan"):
                with tracer.span("plan.access_path", kind="id_index"):
                    pass
            with tracer.span("evaluator.eval", index_probes=7):
                pass
            with tracer.span("scatter.merge"):
                pass
        root.finish()
        breakdown = span_breakdown(root)
        assert breakdown["index_probes"] == 7
        assert breakdown["access_paths"] == ["id_index"]
        assert breakdown["plan_ms"] >= 0.0
        assert breakdown["scan_ms"] >= 0.0
        assert breakdown["merge_ms"] >= 0.0

    def test_server_records_every_query(self, tiny_text, tmp_path):
        """The served connection's query log takes one record per
        execute — a finished cursor with the server's wire fields, a
        failure inside the facade, and one that never reached it."""
        path = tmp_path / "server_queries.jsonl"
        database = repro.connect(tiny_text, systems=("D",),
                                 query_log=str(path))
        server = XMarkServer(queue_depth=64)
        server.add_document("auction", database, owned=True)
        with serve_in_thread(server) as handle:
            with connect_url(handle.url, tenant="acme") as remote:
                session = remote.session()
                expected_rows = len(session.execute(1).fetchall())
                with pytest.raises(QuerySyntaxError):
                    session.execute("for $x in")
                with pytest.raises(ProtocolError, match="fetch size"):
                    remote._client.request({"kind": "execute", "query": 1,
                                            "fetch": -1})
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == 3
        ok, failed, refused = records
        assert ok["v"] == QUERY_LOG_SCHEMA_VERSION
        assert ok["source"] == "server" and ok["tenant"] == "acme"
        assert ok["system"] == "D" and ok["rows"] == expected_rows
        assert ok["query"] == ok["query_text"] and ok["pages"] == 1
        assert ok["duration_ms"] > 0
        assert isinstance(ok["plan_cache_hit"], bool)
        assert "error" not in ok
        assert failed["error"] == "query_syntax"
        assert failed["source"] == "server" and failed["tenant"] == "acme"
        assert refused["error"] == "bad_message" and refused["query"] == 1

    def test_traced_server_records_breakdown_and_wire_ms(self, traced_served,
                                                         tmp_path,
                                                         traced_remote):
        # Attach a fresh log to the live traced connection for this test.
        path = tmp_path / "traced_queries.jsonl"
        _, database, _ = traced_served
        writer = QueryLogWriter(str(path))
        database.query_log = writer
        try:
            cursor = traced_remote.session().execute(8, system="D")
            cursor.fetchall()
        finally:
            database.query_log = None
            writer.close()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records, "traced execute logged nothing"
        record = records[-1]
        assert record["scan_ms"] >= 0.0 and record["plan_ms"] >= 0.0
        assert record["wire_ms"] >= 0.0
        assert record["index_probes"] >= 1
        assert record["access_paths"]
        assert record["rows"] == cursor.rowcount

    def test_pages_count_a_cursors_round_trips(self, tiny_text, tmp_path):
        """``pages`` on the log record and on the finishing
        ``server.request`` span is the number of request/reply pairs
        the client spent on the cursor's rows."""
        path = tmp_path / "paged_queries.jsonl"
        tracer = Tracer()
        database = repro.connect(tiny_text, systems=("D",),
                                 query_log=str(path))
        server = XMarkServer(queue_depth=64, tracer=tracer)
        server.add_document("auction", database, owned=True)
        round_trips = []
        with serve_in_thread(server) as handle:
            for page_size in (None, 4):
                with connect_url(handle.url, page_size=page_size) as remote:
                    send = remote._client.request
                    kinds = []
                    remote._client.request = lambda payload: (
                        kinds.append(payload["kind"]) or send(payload))
                    remote.session().execute(8).fetchall()
                    round_trips.append(len(kinds))
        assert round_trips[0] == 1 and round_trips[1] > 2
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [record["pages"] for record in records] == round_trips
        finishing = [root.attrs["pages"] for root in tracer.roots
                     if root.name == "server.request"
                     and "pages" in root.attrs]
        assert finishing == round_trips

    def test_service_records_queries(self, tiny_text, tmp_path):
        path = tmp_path / "service_queries.jsonl"
        with repro.connect(tiny_text, systems=("D",), service=True,
                           query_log=str(path)) as db:
            rows = db.session().execute(1, stream=False).fetchall()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == 1
        record = records[0]
        assert record["source"] == "service" and record["system"] == "D"
        assert record["rows"] == len(rows)
        assert record["queue_ms"] >= 0.0 and record["duration_ms"] > 0


# -- the live ops surface -------------------------------------------------------------


class TestOpsSurface:
    def test_stats_carries_per_tenant_histograms(self, traced_served,
                                                 traced_remote):
        traced_remote.session().execute(1, system="D").fetchall()
        stats = traced_remote.stats()
        histograms = stats["metrics"]["histograms"]
        assert "server.request_ms" in histograms        # unlabeled: kept
        labeled = histograms['server.request_ms{tenant="default"}']
        assert labeled["count"] >= 1
        assert labeled["p50_ms"] >= 0.0
        counters = stats["metrics"]["counters"]
        assert counters['server.executes_total{tenant="default"}'] >= 1

    def test_top_renders_tenant_table(self, traced_served, traced_remote,
                                      capsys):
        from repro.cli import main
        handle, _, _ = traced_served
        traced_remote.session().execute(1, system="D").fetchall()
        assert main(["top", handle.url, "-n", "2",
                     "--interval", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "TENANT" in out and "P95MS" in out
        assert "default" in out

    def test_top_unreachable_server_fails_cleanly(self, capsys):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        from repro.cli import main
        assert main(["top", f"xmark://127.0.0.1:{port}/auction",
                     "-n", "1"]) == 1
        assert "top:" in capsys.readouterr().err
