"""The wire server: protocol, framing damage, quotas, backpressure, e2e.

The damage tests follow tests/faultinject.py's philosophy: hit the frame
codec at every structurally interesting offset — truncated header,
truncated payload, lying length fields, junk inside a well-framed
payload — and assert the server answers with a *typed* protocol error
(or hangs up cleanly when no reply is possible) while other connections
and the served state survive untouched.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

import repro
from repro.errors import (
    ClosedCursorError, ClosedSessionError, ProtocolError, QueryError,
    QuerySyntaxError, ServerBusyError, ServerError, ServerStopError,
    StorageError, TenantQuotaError,
    TransactionError, TypeCoercionError, UnknownSystemError, XMarkError,
)
from repro.server import (
    PROTOCOL_VERSION, RemotePrepared, TenantQuota, TenantRegistry,
    WireClient, XMarkServer, connect_url, parse_url, serve_in_thread,
)
from repro.server import protocol
from repro.update.ops import CloseAuction, DeleteItem, PlaceBid, RegisterPerson
from repro.xmlgen.generator import generate_string
from repro.xmlio.parser import parse
from repro.xmlio.serialize import serialize


@pytest.fixture(scope="module")
def served(tiny_text):
    """A wire server over a direct D connection, plus the database."""
    database = repro.connect(tiny_text, systems=("D",))
    server = XMarkServer(queue_depth=64)
    server.add_document("auction", database, owned=True)
    handle = serve_in_thread(server)
    yield handle, database, server
    handle.stop()


@pytest.fixture()
def remote(served):
    handle, _database, _server = served
    database = connect_url(handle.url)
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


def raw_hello(sock: socket.socket, document: str = "auction",
              tenant: str | None = None) -> dict:
    raw_send(sock, {"kind": "hello", "protocol": PROTOCOL_VERSION,
                    "document": document, "tenant": tenant})
    reply = raw_recv(sock)
    assert reply is not None and reply["kind"] == "welcome"
    return reply


# -- protocol units -------------------------------------------------------------------


class TestProtocolUnits:
    def test_frame_roundtrip(self):
        frame = protocol.encode_frame({"kind": "ping", "id": 7})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert protocol.decode_payload(frame[4:]) == {"kind": "ping", "id": 7}

    def test_decode_rejects_junk(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_payload(b"\xff\x00 not json")
        assert err.value.code == "bad_frame"
        with pytest.raises(ProtocolError) as err:
            protocol.decode_payload(b'["a", "list"]')
        assert err.value.code == "bad_message"
        with pytest.raises(ProtocolError) as err:
            protocol.decode_payload(b'{"no": "kind"}')
        assert err.value.code == "bad_message"

    def test_bind_params(self):
        text = "for $i in /site return $min + $i/x"
        bound = protocol.bind_params(text, {"min": 5})
        assert bound == "for $i in /site return 5 + $i/x"
        bound = protocol.bind_params("$name", {"name": "abc"})
        assert bound == '"abc"'
        # $names must not be clobbered by a $name substitution
        assert protocol.bind_params("$a + $ab", {"a": 1}) == "1 + $ab"

    def test_bind_params_rejects_bad_values(self):
        for params in ({"bad name": 1}, {"a": True}, {"a": None},
                       {"a": [1]}, {"a": float("nan")}, {"a": float("inf")},
                       {"a": float("-inf")}):
            with pytest.raises(ProtocolError) as err:
                protocol.bind_params("$a $bad $name", params)
            assert err.value.code == "bad_params"
        with pytest.raises(ProtocolError) as err:
            protocol.bind_params("no placeholder", {"a": 1})
        assert err.value.code == "bad_params"

    def test_op_roundtrip(self):
        person = parse('<person id="p9"><name>N</name></person>').root
        ops = [RegisterPerson(person),
               PlaceBid("open_auction0", "person0", 3.5, "01/01/26", "00:00"),
               CloseAuction("open_auction1", "02/02/26"),
               DeleteItem("item0")]
        for op in ops:
            decoded = protocol.decode_op(protocol.encode_op(op))
            assert decoded.token() == op.token()
        rp = protocol.decode_op(protocol.encode_op(ops[0]))
        assert serialize(rp.person) == serialize(person)

    def test_decode_op_rejects_junk(self):
        for bad in (None, [], {"kind": "nope"}, {"kind": "place_bid"}):
            with pytest.raises(ProtocolError):
                protocol.decode_op(bad)

    def test_error_code_mapping(self):
        assert protocol.error_code(ServerBusyError("x")) == "server_busy"
        assert protocol.error_code(TenantQuotaError("x")) == "tenant_quota"
        assert protocol.error_code(QuerySyntaxError("x")) == "query_syntax"
        assert protocol.error_code(
            ProtocolError("x", code="truncated")) == "truncated"
        assert protocol.error_code(ValueError("x")) == "internal"

    def test_error_payload_detail_roundtrip(self):
        exc = UnknownSystemError("Z", ("D", "S"))
        reply = protocol.error_payload(4, exc)
        assert reply["code"] == "unknown_system"
        with pytest.raises(UnknownSystemError) as err:
            protocol.raise_wire_error(reply)
        assert err.value.system == "Z"
        assert err.value.available == ("D", "S")
        reply = protocol.error_payload(None, TransactionError("t", applied=2))
        with pytest.raises(TransactionError) as err:
            protocol.raise_wire_error(reply)
        assert err.value.applied == 2

    def test_parse_url(self):
        assert parse_url("xmark://h:17/doc") == ("h", 17, "doc")
        assert parse_url("xmark://h:17/") == ("h", 17, "")
        for bad in ("http://h:1/d", "xmark://nohost/d", "xmark://h:xx/d"):
            with pytest.raises(ProtocolError):
                parse_url(bad)


class TestTenantRegistry:
    def test_inflight_quota(self):
        registry = TenantRegistry(default_quota=TenantQuota(max_inflight=2))
        tenant = registry.connect("t")
        registry.begin_request(tenant)
        registry.begin_request(tenant)
        with pytest.raises(TenantQuotaError):
            registry.begin_request(tenant)
        assert tenant.refused_total == 1
        registry.end_request(tenant)
        registry.begin_request(tenant)     # slot freed

    def test_disabled_limit(self):
        registry = TenantRegistry(default_quota=TenantQuota(max_sessions=0))
        for _ in range(100):
            registry.connect("t")
        assert registry.state("t").sessions == 100

    def test_every_tenant_gets_the_default_quota(self):
        quota = TenantQuota(max_sessions=1)
        registry = TenantRegistry(default_quota=quota)
        registry.connect("a")
        registry.connect("b")              # a's session is not b's
        with pytest.raises(TenantQuotaError):
            registry.connect("a")
        assert registry.state("a").quota is registry.state("b").quota is quota

    def test_counts_lose_no_update_across_threads(self):
        """Worker threads release cursor slots while others claim them:
        every claim and release lands, so the count ends at exactly 0."""
        registry = TenantRegistry()
        tenant = registry.connect("t")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def churn():
                for _ in range(50_000):
                    registry.open_cursor(tenant)
                    registry.close_cursor(tenant)
            threads = [threading.Thread(target=churn) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert tenant.cursors == 0
        assert registry.snapshot()["t"]["refused_total"] == 0

    def test_an_over_release_fails_loudly(self):
        registry = TenantRegistry()
        tenant = registry.connect("t")
        registry.disconnect(tenant)
        for release in (registry.disconnect, registry.end_request,
                        registry.close_cursor):
            with pytest.raises(AssertionError, match="does not hold"):
                release(tenant)
        assert registry.snapshot()["t"]["sessions"] == 0


# -- handshake ------------------------------------------------------------------------


class TestHandshake:
    def test_protocol_mismatch(self, served):
        handle, _, _ = served
        sock = raw_connection(handle)
        raw_send(sock, {"kind": "hello", "protocol": 99,
                        "document": "auction"})
        reply = raw_recv(sock)
        assert reply["kind"] == "error"
        assert reply["code"] == "protocol_mismatch"
        sock.close()

    def test_unknown_document(self, served):
        handle, _, _ = served
        with pytest.raises(ProtocolError) as err:
            connect_url(f"xmark://{handle.host}:{handle.port}/nope")
        assert err.value.code == "unknown_document"

    def test_single_document_is_the_default(self, served):
        handle, _, _ = served
        database = connect_url(f"xmark://{handle.host}:{handle.port}/")
        assert database._client.welcome["document"] == "auction"
        database.close()

    def test_request_before_hello(self, served):
        handle, _, _ = served
        sock = raw_connection(handle)
        raw_send(sock, {"kind": "ping"})
        reply = raw_recv(sock)
        assert reply["kind"] == "error" and reply["code"] == "bad_message"
        sock.close()


# -- framing damage -------------------------------------------------------------------


class TestFramingFuzz:
    """Garbled wire bytes -> typed error + surviving connection/state."""

    def test_truncated_header_then_eof(self, served, remote):
        handle, _, _ = served
        sock = raw_connection(handle)
        sock.sendall(b"\x00\x00")       # half a length header
        sock.close()                    # peer vanishes mid-header
        # The server must survive: an established connection still works.
        assert remote.session().execute(1).rowcount >= 0

    def test_truncated_payload_then_eof(self, served, remote):
        handle, _, _ = served
        sock = raw_connection(handle)
        body = json.dumps({"kind": "ping"}).encode()
        sock.sendall(struct.pack(">I", len(body) + 64) + body)
        sock.close()                    # length promised more than was sent
        assert remote.session().execute(1).serialize() is not None

    def test_oversized_length_is_typed_then_closed(self, served):
        handle, _, server = served
        sock = raw_connection(handle)
        raw_hello(sock)
        sock.sendall(struct.pack(">I", server.max_frame + 1))
        reply = raw_recv(sock)
        assert reply["kind"] == "error"
        assert reply["code"] == "frame_too_large"
        # The stream is desynchronized; the server hangs up.
        assert raw_recv(sock) is None
        sock.close()

    def test_mid_payload_junk_survives(self, served):
        handle, _, _ = served
        sock = raw_connection(handle)
        raw_hello(sock)
        for junk in (b"\xfe\xed\xfa\xce not json at all",
                     b'{"kind": "execute", "query": ',   # cut mid-JSON
                     b'"just a string"',
                     b"[1, 2, 3]",
                     b'{"no_kind": true}'):
            sock.sendall(struct.pack(">I", len(junk)) + junk)
            reply = raw_recv(sock)
            assert reply["kind"] == "error"
            assert reply["code"] in ("bad_frame", "bad_message")
        # Framing stayed aligned: the connection still serves queries.
        raw_send(sock, {"kind": "execute", "query": 1, "fetch": True,
                        "id": 9})
        reply = raw_recv(sock)
        assert reply["kind"] == "cursor" and reply["id"] == 9
        assert reply["done"] is True
        sock.close()

    def test_unknown_kind_is_typed(self, served):
        handle, _, _ = served
        sock = raw_connection(handle)
        raw_hello(sock)
        raw_send(sock, {"kind": "frobnicate", "id": 1})
        reply = raw_recv(sock)
        assert reply == {"kind": "error", "id": 1, "code": "bad_message",
                         "message": "unknown message kind 'frobnicate'"}
        sock.close()

    def test_oversized_outgoing_frame_refused(self):
        with pytest.raises(ProtocolError) as err:
            protocol.encode_frame({"kind": "x", "pad": "y" * protocol.MAX_FRAME})
        assert err.value.code == "frame_too_large"

    def test_damage_never_corrupts_served_state(self, served, remote):
        handle, database, _ = served
        before = database.document_digest()
        for offset in (0, 1, 3, 4, 7, 20):
            sock = raw_connection(handle)
            frame = protocol.encode_frame(
                {"kind": "hello", "protocol": PROTOCOL_VERSION,
                 "document": "auction"})
            sock.sendall(frame[:offset])
            sock.close()
        assert database.document_digest() == before
        assert remote.document_digest() == before


# -- queries over the wire ------------------------------------------------------------


class TestRemoteQueries:
    def test_q1_to_q20_bit_identical(self, served, remote):
        _, database, _ = served
        local = database.session()
        session = remote.session()
        for number in range(1, 21):
            expected = local.execute(number).serialize()
            got = session.execute(number).serialize()
            assert got == expected, f"Q{number} diverged over the wire"

    def test_small_pages_preserve_order(self, served, tiny_text):
        handle, database, _ = served
        paged = connect_url(handle.url, page_size=1)
        try:
            query = "for $p in /site/people/person return $p/name"
            expected = database.session().execute(query).serialize()
            assert paged.session().execute(query).serialize() == expected
        finally:
            paged.close()

    def test_prepared_query_roundtrip(self, remote):
        prepared = remote.session().prepare(2)
        assert isinstance(prepared.compiled, RemotePrepared)
        first = prepared.execute().serialize()
        assert prepared.execute().serialize() == first

    def test_params_bind_over_the_wire(self, served, remote):
        _, database, _ = served
        reply = remote._client.request({
            "kind": "execute",
            "query": "for $p in /site/people/person "
                     "where $p/@id = $who return $p/name",
            "params": {"who": "person0"},
            "fetch": True,
        })
        expected = database.session().execute(
            'for $p in /site/people/person '
            'where $p/@id = "person0" return $p/name').serialize()
        assert "\n".join(reply["rows"]) == expected

    @pytest.mark.parametrize("value", ['say "hi"', "it's <b> & 'more'",
                                       1e20, 1e-05, 2.5, 42])
    def test_params_read_back_as_the_value(self, served, remote, value):
        """A bound value is the value: quotes are doubled, ``&`` written
        as a reference and a float keeps its exponent — and the wire
        answers as the in-process connection does."""
        _, database, _ = served
        query = '<r v="{$v}">{$v}</r>'
        reply = remote._client.request({"kind": "execute", "query": query,
                                         "params": {"v": value},
                                         "fetch": True})
        local = database.session().execute(
            protocol.bind_params(query, {"v": value})).serialize()
        assert reply["rows"] == [local]
        row = parse(local).root
        assert row.get("v") == row.text_content()
        if isinstance(value, str):
            assert row.text_content() == value
        else:
            assert float(row.text_content()) == value

    def test_unknown_system_typed(self, remote):
        with pytest.raises(UnknownSystemError) as err:
            remote.session().execute(1, system="Z")
        assert err.value.available == ("D",)

    def test_syntax_error_typed(self, remote):
        with pytest.raises(QuerySyntaxError):
            remote.session().execute("for $x in").serialize()

    def test_division_by_zero_typed(self, served, remote):
        """A runtime arithmetic failure is a typed ``query`` reply over the
        wire — never ``internal`` — and a typed error in process."""
        _, database, _ = served
        for query in ("1 div 0", "7 mod 0"):
            with pytest.raises(TypeCoercionError, match="by zero"):
                database.session().execute(query).fetchall()
            with pytest.raises(QueryError, match="by zero"):
                remote.session().execute(query).serialize()
        assert protocol.error_code(TypeCoercionError("x")) == "query"

    def test_explain_matches_in_process(self, served, remote):
        _, database, _ = served
        local = database.session().explain(8).as_dict()
        wire = remote.session().explain(8).as_dict()
        assert wire == local

    def test_digest_matches_in_process(self, served, remote):
        _, database, _ = served
        assert remote.document_digest() == database.document_digest()

    def test_cursor_quota_enforced(self, served):
        handle, _, server = served
        database = connect_url(handle.url, tenant="hoarder", page_size=1)
        try:
            limit = server.tenants.state("hoarder").quota.max_cursors
            query = "for $p in /site/people/person return $p"
            cursors = [database.session().execute(query)
                       for _ in range(limit)]
            with pytest.raises(TenantQuotaError):
                database.session().execute(query)
            for cursor in cursors:      # closing releases the slots
                cursor.close()
            database.session().execute(query).close()
        finally:
            database.close()

    def test_session_quota_enforced(self, tiny_text):
        database = repro.connect(tiny_text, systems=("D",))
        server = XMarkServer(default_quota=TenantQuota(max_sessions=1))
        server.add_document("auction", database, owned=True)
        with serve_in_thread(server) as handle:
            first = connect_url(handle.url)
            with pytest.raises(TenantQuotaError):
                connect_url(handle.url)
            first.close()
            connect_url(handle.url).close()     # slot released


# -- byte-sized pages -----------------------------------------------------------------


def record_replies(database) -> list[tuple[str, dict]]:
    """Record ``(request kind, reply)`` for every request ``database``
    sends from now on."""
    client = database._client
    send = client.request
    replies: list[tuple[str, dict]] = []

    def request(payload: dict) -> dict:
        reply = send(payload)
        replies.append((payload["kind"], reply))
        return reply

    client.request = request
    return replies


class TestBytePages:
    def test_q1_to_q20_take_one_round_trip_each(self, served, remote):
        _, database, _ = served
        local = database.session()
        session = remote.session()
        replies = record_replies(remote)
        for number in range(1, 21):
            expected = [cursor.rowtext(item) for cursor in
                        [local.execute(number)] for item in cursor]
            cursor = session.execute(number)
            assert [cursor.rowtext(item) for item in cursor] == expected
            cursor.close()
            assert [kind for kind, _ in replies] == ["execute"], f"Q{number}"
            replies.clear()

    def test_large_result_spans_pages_in_order(self, small_text):
        database = repro.connect(small_text, systems=("D",))
        server = XMarkServer()
        server.add_document("auction", database, owned=True)
        with serve_in_thread(server) as handle, \
                connect_url(handle.url) as remote:
            cursor = database.session().execute("//description")
            expected = [cursor.rowtext(item) for item in cursor]
            assert sum(map(len, expected)) > protocol.PAGE_CHARS
            replies = record_replies(remote)
            cursor = remote.session().execute("//description")
            assert [cursor.rowtext(item) for item in cursor] == expected
        pages = [reply["rows"] for _, reply in replies]
        assert len(pages) >= 2
        assert [row for page in pages for row in page] == expected
        for page in pages:
            assert len(page) == 1 or sum(map(len, page)) <= protocol.PAGE_CHARS

    def test_commit_poisons_a_cursor_between_byte_pages(self, small_text):
        database = repro.connect(small_text, systems=("D",))
        server = XMarkServer()
        server.add_document("auction", database, owned=True)
        with serve_in_thread(server) as handle, \
                connect_url(handle.url) as reader, \
                connect_url(handle.url) as writer:
            cursor = reader.session().execute("//description")
            assert cursor.fetchone() is not None    # first page only
            with writer.session().transaction() as txn:
                txn.place_bid("open_auction0", "person0", 4.5,
                              "01/01/2026", "00:00:00")
            with pytest.raises(ClosedCursorError):
                cursor.fetchall()


class TestUnframableReplies:
    """A reply too large for a frame is a typed error that takes its
    cursor with it: no leaked quota slot, no silently skipped page."""

    QUERY = "for $p in /site/people/person return $p"

    def test_unframable_first_page_releases_its_cursor(self, served,
                                                       monkeypatch):
        handle, _, server = served
        database = connect_url(handle.url, tenant="framed", page_size=5)
        try:
            limit = server.tenants.state("framed").quota.max_cursors
            monkeypatch.setattr(protocol, "MAX_FRAME", 400)
            for _ in range(limit + 1):
                with pytest.raises(ProtocolError) as err:
                    database.session().execute(self.QUERY)
                assert err.value.code == "frame_too_large"
            assert server.tenants.state("framed").cursors == 0
            monkeypatch.undo()
            assert database.session().execute(1).fetchall()
        finally:
            database.close()

    def test_unframable_fetch_closes_the_cursor(self, served, monkeypatch):
        handle, _, _ = served
        database = connect_url(handle.url, page_size=5)
        try:
            cursor = database.session().execute(self.QUERY)
            assert len(cursor.fetchmany(5)) == 5        # the inline page
            monkeypatch.setattr(protocol, "MAX_FRAME", 400)
            with pytest.raises(ProtocolError) as err:
                cursor.fetchone()
            assert err.value.code == "frame_too_large"
            monkeypatch.undo()
            with pytest.raises(ClosedCursorError):
                cursor.fetchall()
        finally:
            database.close()


class TestFailedFirstPage:
    """An execute whose inline first page raises answers with the query
    error and leaves no cursor behind holding its tenant's slot."""

    QUERY = "for $p in /site/people/person return 1 div 0"

    @pytest.fixture()
    def server(self):
        database = repro.connect(generate_string(0.002), systems=("D",))
        server = XMarkServer()
        server.add_document("auction", database, owned=True)
        handle = serve_in_thread(server)
        yield handle
        handle.stop()

    def test_failed_first_pages_leak_no_cursor(self, server):
        client = WireClient(server.host, server.port, document="auction")
        try:
            quota = TenantQuota().max_cursors
            for _ in range(quota + 2):
                with pytest.raises(QueryError, match="by zero"):
                    client.request({"kind": "execute", "system": "D",
                                    "query": self.QUERY, "fetch": True})
            stats = client.request({"kind": "stats"})
            assert stats["tenants"]["default"]["cursors"] == 0
            reply = client.request({"kind": "execute", "system": "D",
                                    "query": "count(/site/people/person)",
                                    "fetch": True})
            assert reply["done"] and int(reply["rows"][0]) > 0
            second = WireClient(server.host, server.port, document="auction")
            try:
                assert second.request({"kind": "ping"})["kind"] == "pong"
            finally:
                second.close()
        finally:
            client.close()


# -- the write path over the wire -----------------------------------------------------


@pytest.fixture()
def write_served(tiny_text):
    """A function-scoped server (writes mutate the document)."""
    database = repro.connect(tiny_text, systems=("D",))
    server = XMarkServer()
    server.add_document("auction", database, owned=True)
    handle = serve_in_thread(server)
    yield handle, database
    handle.stop()


class TestRemoteWrites:
    def test_transaction_commits_and_digests_agree(self, write_served):
        handle, database = write_served
        remote = connect_url(handle.url)
        try:
            before = database.document_digest()
            person = parse('<person id="personW1"><name>Wire W</name>'
                           '</person>').root
            with remote.session().transaction() as txn:
                txn.register_person(person)
                txn.place_bid("open_auction0", "person0", 4.5,
                              "01/01/2026", "00:00:00")
            assert txn.summary["digest"] is not None
            assert database.document_digest() != before
            assert remote.document_digest() == database.document_digest()
        finally:
            remote.close()

    def test_rollback_leaves_state_untouched(self, write_served):
        handle, database = write_served
        remote = connect_url(handle.url)
        try:
            before = database.document_digest()
            txn = remote.session().transaction()
            txn.place_bid("open_auction0", "person0", 4.5,
                          "01/01/2026", "00:00:00")
            txn.rollback()
            assert database.document_digest() == before
        finally:
            remote.close()

    def test_commit_poisons_suspended_remote_cursor(self, write_served):
        handle, _ = write_served
        reader = connect_url(handle.url, page_size=1)
        writer = connect_url(handle.url)
        try:
            cursor = reader.session().execute(
                "for $p in /site/people/person return $p/name")
            assert cursor.fetchone() is not None    # suspend mid-stream
            with writer.session().transaction() as txn:
                txn.place_bid("open_auction0", "person0", 4.5,
                              "01/01/2026", "00:00:00")
            with pytest.raises(ClosedCursorError):
                cursor.fetchall()
        finally:
            reader.close()
            writer.close()

    def test_checkpoint_over_the_wire(self, tiny_text, tmp_path):
        database = repro.connect(tiny_text, systems=("D",),
                                 durable=str(tmp_path / "wal"))
        server = XMarkServer()
        server.add_document("auction", database, owned=True)
        with serve_in_thread(server) as handle:
            remote = connect_url(handle.url)
            try:
                with remote.session().transaction() as txn:
                    txn.place_bid("open_auction0", "person0", 4.5,
                                  "01/01/2026", "00:00:00")
                report = remote.checkpoint()
                assert report["records_dropped"] >= 1
            finally:
                remote.close()


# -- backpressure ---------------------------------------------------------------------


class TestBackpressure:
    def test_saturation_is_typed_not_hung(self, served):
        handle, _, server = served
        loop, ceiling = handle.loop, server.max_workers + server.queue_depth

        def _set_active(value: int):
            event = threading.Event()

            def apply():
                server._active = value
                event.set()
            loop.call_soon_threadsafe(apply)
            assert event.wait(10.0)

        _set_active(ceiling)            # pool + queue artificially full
        database = connect_url(handle.url)
        try:
            with pytest.raises(ServerBusyError):
                database.session().execute(1)
        finally:
            _set_active(0)
            database.close()
        assert server.registry.counter("server.busy_total").value >= 1

    def test_saturated_sweep_never_hangs(self, tiny_text):
        """Many clients vs a 1-worker pool: every request completes —
        rows or a typed ServerBusy — and every connection survives."""
        database = repro.connect(tiny_text, systems=("D",))
        server = XMarkServer(max_workers=1, queue_depth=1,
                             default_quota=TenantQuota(max_sessions=0))
        server.add_document("auction", database, owned=True)
        outcomes: list[str] = []
        failures: list[BaseException] = []
        lock = threading.Lock()
        with serve_in_thread(server) as handle:
            def client(worker: int) -> None:
                try:
                    remote = connect_url(handle.url, tenant=f"t{worker}")
                    try:
                        for _ in range(5):
                            try:
                                remote.session().execute(1).serialize()
                                result = "served"
                            except ServerBusyError:
                                result = "busy"
                            with lock:
                                outcomes.append(result)
                    finally:
                        remote.close()
                except BaseException as exc:
                    with lock:
                        failures.append(exc)

            threads = [threading.Thread(target=client, args=(n,))
                       for n in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(t.is_alive() for t in threads), \
                "a client hung under saturation"
        assert not failures, failures
        assert len(outcomes) == 60
        assert outcomes.count("served") >= 1


class TestStop:
    def test_a_busy_worker_bounds_stop_with_a_typed_error(self, tiny_text):
        """One worker parked on an Event: ``stop`` cancels the request
        queued behind it, gives up at its timeout with a typed error that
        names the worker, and leaves the owned database open; once the
        worker is released, stopping again closes everything."""
        database = repro.connect(tiny_text, systems=("D",))
        parked, release = threading.Event(), threading.Event()
        digest = database.document_digest

        def stuck(system=None):
            parked.set()
            assert release.wait(30.0)
            return digest(system)
        database.document_digest = stuck
        server = XMarkServer(max_workers=1, queue_depth=4)
        server.add_document("auction", database, owned=True)
        handle = serve_in_thread(server)
        outcomes: dict[str, object] = {}

        def client(name: str) -> None:
            remote = connect_url(handle.url)
            try:
                outcomes[name] = remote.document_digest("D")
            except (XMarkError, OSError) as exc:
                outcomes[name] = exc
            finally:
                remote.close()

        first = threading.Thread(target=client, args=("parked",))
        first.start()
        assert parked.wait(10.0)
        queued = threading.Thread(target=client, args=("queued",))
        queued.start()
        for _ in range(1000):           # admitted behind the parked one
            if server._active == 2:
                break
            time.sleep(0.01)
        assert server._active == 2
        try:
            with pytest.raises(ServerStopError) as failure:
                handle.stop(timeout=0.3)
            assert failure.value.workers == ("xmark-server_0",)
            assert "xmark-server_0" in str(failure.value)
            database.session()          # still open
            queued.join(10.0)
            assert isinstance(outcomes["queued"], ServerError)
            assert "stopped before the request ran" in str(outcomes["queued"])
        finally:
            release.set()
            first.join(10.0)
            handle.stop(timeout=10.0)
        assert not handle.thread.is_alive()
        assert outcomes["parked"] == digest("D")
        with pytest.raises(ClosedSessionError):
            database.session()

    def test_an_open_client_connection_does_not_hold_stop(self, tiny_text):
        """From Python 3.12.1 on, ``Server.wait_closed()`` waits for every
        client connection to close.  ``stop`` must not wait on it: with a
        client still connected and ``wait_closed`` made to never return,
        ``stop`` still returns and the serving thread ends."""
        database = repro.connect(tiny_text, systems=("D",))
        server = XMarkServer(max_workers=1)
        server.add_document("auction", database, owned=True)
        handle = serve_in_thread(server)

        async def never() -> None:
            await asyncio.Event().wait()
        server._server.wait_closed = never
        remote = connect_url(handle.url)
        try:
            assert remote.document_digest("D") == database.document_digest("D")
            handle.stop(timeout=2.0)
            assert not handle.thread.is_alive()
            with pytest.raises(ClosedSessionError):
                database.session()
        finally:
            remote.close()

    def test_stopping_with_a_client_connected_logs_no_asyncio_error(
            self, tiny_text, caplog):
        """``stop`` ends the connections still open, so their handlers
        return: the loop's end no longer cancels them, which Python
        3.11's stream callback logged as an error with a traceback."""
        database = repro.connect(tiny_text, systems=("D",))
        server = XMarkServer(max_workers=1)
        server.add_document("auction", database, owned=True)
        handle = serve_in_thread(server)
        client = WireClient(handle.host, handle.port)
        try:
            with caplog.at_level(logging.WARNING, logger="asyncio"):
                assert client.request({"kind": "ping"})["kind"] == "pong"
                handle.stop(timeout=5.0)
            assert not handle.thread.is_alive()
            assert [record for record in caplog.records
                    if record.name.startswith("asyncio")] == []
            with pytest.raises((ProtocolError, OSError)):
                client.request({"kind": "ping"})    # the server hung up
        finally:
            client.close()

    def test_no_worker_thread_outlives_stop(self, tiny_text):
        def workers() -> set[threading.Thread]:
            return {thread for thread in threading.enumerate()
                    if thread.name.startswith("xmark-server_")}
        others = workers()              # other tests' servers
        database = repro.connect(tiny_text, systems=("D",))
        server = XMarkServer(max_workers=3)
        server.add_document("auction", database, owned=True)
        handle = serve_in_thread(server)
        remotes = [connect_url(handle.url) for _ in range(3)]
        try:
            threads = [threading.Thread(
                target=lambda r=remote: [r.document_digest("D")
                                         for _ in range(10)])
                for remote in remotes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert workers() - others
        finally:
            handle.stop(timeout=10.0)
            for remote in remotes:
                remote.close()
        assert workers() - others == set()

    def test_a_handler_error_reaches_its_client_typed(self, tiny_text):
        """An error raised on a worker thread comes back as the typed
        reply it always was: a library error under its own code, any
        other exception as ``internal``; the connection survives."""
        database = repro.connect(tiny_text, systems=("D",))
        digest = database.document_digest
        raised = iter([StorageError("disk on fire"), KeyError("boom")])

        def failing(system=None):
            raise next(raised)
        database.document_digest = failing
        server = XMarkServer(max_workers=1)
        server.add_document("auction", database, owned=True)
        with serve_in_thread(server) as handle:
            remote = connect_url(handle.url)
            try:
                with pytest.raises(StorageError, match="disk on fire"):
                    remote.document_digest("D")
                with pytest.raises(ServerError, match=r"\[internal\]"):
                    remote.document_digest("D")
                database.document_digest = digest
                assert remote.document_digest("D") == digest("D")
            finally:
                remote.close()
        errors = server.registry.snapshot()["counters"]
        assert errors['server.errors_total{code="storage"}'] == 1
        assert errors['server.errors_total{code="internal"}'] == 1

    def test_stop_after_a_request_storm_leaves_no_worker_marked(self, tiny_text):
        """More clients than workers and cores, with a short switch
        interval: every request is answered, and ``stop`` then finds no
        request queued or running."""
        database = repro.connect(tiny_text, systems=("D",))
        server = XMarkServer(max_workers=3, queue_depth=64)
        server.add_document("auction", database, owned=True)
        handle = serve_in_thread(server)
        failures: list[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def client() -> None:
                try:
                    with connect_url(handle.url) as remote:
                        for _ in range(20):
                            remote.document_digest("D")
                except BaseException as exc:
                    failures.append(exc)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            handle.stop(timeout=10.0)
        assert not failures, failures
        assert not handle.thread.is_alive()
        assert not server._queued and not server._running


# -- observability --------------------------------------------------------------------


class TestServerObservability:
    def test_counters_and_stats(self, tiny_text):
        database = repro.connect(tiny_text, systems=("D",))
        server = XMarkServer()
        server.add_document("auction", database, owned=True)
        with serve_in_thread(server) as handle:
            remote = connect_url(handle.url, tenant="acme")
            try:
                remote.session().execute(1).serialize()
                stats = remote.stats()
            finally:
                remote.close()
        counters = stats["metrics"]["counters"]
        assert counters["server.accepts_total"] == 1
        assert counters['server.requests_total{kind="hello",tenant="-"}'] == 1
        assert counters['server.requests_total{kind="execute",tenant="acme"}'] == 1
        assert counters['net.bytes_in_total{tenant="acme"}'] > 0
        assert counters['net.bytes_out_total{tenant="acme"}'] > 0
        assert stats["tenants"]["acme"]["requests_total"] >= 1
        assert "server.request_ms" in stats["metrics"]["histograms"]
        # The served database keeps its own db.* accounting too.
        assert database.registry.counter(
            "db.queries_total", system="D", tenant="acme").value == 1

    def test_accept_spans_recorded(self, tiny_text):
        from repro.obs.trace import Tracer
        tracer = Tracer()
        database = repro.connect(tiny_text, systems=("D",))
        server = XMarkServer(tracer=tracer)
        server.add_document("auction", database, owned=True)
        with serve_in_thread(server) as handle:
            remote = connect_url(handle.url)
            remote.session().execute(1).serialize()
            remote.close()
        names = [span.name for span in tracer.roots]
        assert "server.accept" in names
        assert "server.request" in names


# -- tenant accounting under any interleaving ----------------------------------------


@functools.cache
def _machine_document() -> str:
    return generate_string(0.0005)      # 13 persons


class _Peer:
    """One client connection of the model: its tenant and the cursor ids
    it holds open (id -> True once a commit poisoned it)."""

    def __init__(self, client: WireClient, tenant: str) -> None:
        self.client = client
        self.tenant = tenant
        self.cursors: dict[str, bool] = {}


class TenantAccountingMachine(RuleBasedStateMachine):
    """Clients of two tenants execute, page, close, commit and hang up in
    any order; after every step each tenant's ``sessions`` and
    ``cursors`` in the server's stats equal what its connections hold,
    and no request is left in flight."""

    TENANTS = ("acme", "zenith")
    LISTING = "for $p in /site/people/person return $p/name"
    FAILS_FIRST = "for $p in /site/people/person return 1 div 0"
    FAILS_LATER = ('for $p in /site/people/person return '
                   'if ($p/@id = "person3") then 1 div 0 else 1')

    def __init__(self) -> None:
        super().__init__()
        database = repro.connect(_machine_document(), systems=("D",))
        self.server = XMarkServer()
        self.server.add_document("auction", database, owned=True)
        self.handle = serve_in_thread(self.server)
        # The observer's tenant is not one the machine checks.
        self.watch = self._client("observer")
        self.peers: list[_Peer] = []

    def _client(self, tenant: str) -> WireClient:
        return WireClient(self.handle.host, self.handle.port,
                          document="auction", tenant=tenant)

    def _peer(self, index: int) -> _Peer:
        return self.peers[index % len(self.peers)]

    def _execute(self, peer: _Peer, query: str, fetch) -> dict:
        reply = peer.client.request({"kind": "execute", "system": "D",
                                     "query": query, "fetch": fetch})
        if not reply["done"]:
            peer.cursors[reply["cursor_id"]] = False
        return reply

    def _tenants(self) -> dict:
        return self.watch.request({"kind": "stats"})["tenants"]

    def _expected(self, tenant: str) -> tuple[int, int]:
        peers = [peer for peer in self.peers if peer.tenant == tenant]
        return len(peers), sum(len(peer.cursors) for peer in peers)

    def _counted(self, tenants: dict, tenant: str) -> tuple[int, int]:
        state = tenants.get(tenant, {"sessions": 0, "cursors": 0})
        return state["sessions"], state["cursors"]

    # -- steps ---------------------------------------------------------------------

    @initialize()
    def connect_both_tenants(self):
        for tenant in self.TENANTS:
            self.peers.append(_Peer(self._client(tenant), tenant))

    @precondition(lambda self: len(self.peers) < 4)
    @rule(tenant=st.sampled_from(TENANTS))
    def connect(self, tenant):
        self.peers.append(_Peer(self._client(tenant), tenant))

    @precondition(lambda self: self.peers)
    @rule(index=st.integers(0, 3), size=st.integers(1, 16))
    def execute(self, index, size):
        reply = self._execute(self._peer(index), self.LISTING, size)
        assert len(reply["rows"]) == min(size, 13)

    @precondition(lambda self: self.peers)
    @rule(index=st.integers(0, 3))
    def execute_failing_first_row(self, index):
        with pytest.raises(QueryError, match="by zero"):
            self._execute(self._peer(index), self.FAILS_FIRST, True)

    @precondition(lambda self: self.peers)
    @rule(index=st.integers(0, 3))
    def execute_failing_later_page(self, index):
        peer = self._peer(index)
        cursor_id = self._execute(peer, self.FAILS_LATER, 2)["cursor_id"]
        with pytest.raises(QueryError, match="by zero"):
            peer.client.request({"kind": "fetch", "cursor_id": cursor_id,
                                 "n": 5})
        # A client that saw its cursor fail closes it.
        peer.client.request({"kind": "close_cursor", "cursor_id": cursor_id})
        del peer.cursors[cursor_id]

    @precondition(lambda self: self.peers)
    @rule(index=st.integers(0, 3), fetch=st.sampled_from([-1, "two", 2.5]))
    def execute_with_bad_fetch_size(self, index, fetch):
        with pytest.raises(ProtocolError, match="fetch size"):
            self._execute(self._peer(index), self.LISTING, fetch)

    @precondition(lambda self: any(peer.cursors for peer in self.peers))
    @rule(data=st.data(), size=st.integers(1, 16))
    def fetch(self, data, size):
        peer = data.draw(st.sampled_from(
            [peer for peer in self.peers if peer.cursors]))
        cursor_id = data.draw(st.sampled_from(sorted(peer.cursors)))
        request = {"kind": "fetch", "cursor_id": cursor_id, "n": size}
        if peer.cursors[cursor_id]:
            with pytest.raises(ClosedCursorError):
                peer.client.request(request)
            del peer.cursors[cursor_id]
        elif peer.client.request(request)["done"]:
            del peer.cursors[cursor_id]

    @precondition(lambda self: any(peer.cursors for peer in self.peers))
    @rule(data=st.data())
    def close_cursor(self, data):
        peer = data.draw(st.sampled_from(
            [peer for peer in self.peers if peer.cursors]))
        cursor_id = data.draw(st.sampled_from(sorted(peer.cursors)))
        reply = peer.client.request({"kind": "close_cursor",
                                     "cursor_id": cursor_id})
        assert reply["known"]
        del peer.cursors[cursor_id]

    @precondition(lambda self: self.peers)
    @rule(index=st.integers(0, 3))
    def commit(self, index):
        client = self._peer(index).client
        client.request({"kind": "begin"})
        client.request({"kind": "txn_op", "op": protocol.encode_op(PlaceBid(
            "open_auction0", "person0", 1.5, "01/01/2026", "00:00:00"))})
        client.request({"kind": "commit"})
        for peer in self.peers:         # every open cursor is poisoned
            for cursor_id in peer.cursors:
                peer.cursors[cursor_id] = True

    @precondition(lambda self: self.peers)
    @rule(index=st.integers(0, 3))
    def drop_socket(self, index):
        peer = self._peer(index)
        self.peers.remove(peer)
        peer.client._sock.close()       # no bye: the server sees EOF
        peer.client._closed = True
        # The server releases the connection on its loop, after EOF.
        deadline = time.monotonic() + 10.0
        while (self._counted(self._tenants(), peer.tenant)
               != self._expected(peer.tenant)
               and time.monotonic() < deadline):
            time.sleep(0.005)

    # -- the accounting ------------------------------------------------------------

    @invariant()
    def tenant_counts_match_the_connections(self):
        tenants = self._tenants()
        for tenant in self.TENANTS:
            assert self._counted(tenants, tenant) == self._expected(tenant)
            assert tenants.get(tenant, {"inflight": 0})["inflight"] == 0

    def teardown(self) -> None:
        for peer in self.peers:
            peer.client.close()
        self.watch.close()
        self.handle.stop()


TenantAccountingMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestTenantAccounting = TenantAccountingMachine.TestCase
